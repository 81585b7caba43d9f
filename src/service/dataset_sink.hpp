// Dataset sinks: where the generation service streams finished designs.
//
// The sink owns everything that used to be inlined in
// examples/generate_dataset.cpp — sharded output directories, manifest
// writing, and checkpointed resume — behind a small interface, so the
// service (and the future daemon/socket front end) can target disk, a
// test buffer, or any other store interchangeably.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/dcg.hpp"
#include "util/json.hpp"

namespace syn::service {

/// Advisory per-directory lock: `<dir>/.lock` holding the owner pid,
/// linked into place atomically. Construction throws std::runtime_error
/// when a LIVE process already holds the lock (fail-fast against two
/// jobs interleaving one dataset dir); a lock whose pid is dead (crashed
/// or killed run) is stale and taken over silently. The destructor
/// releases. Shared by ShardedDiskSink (one lock per part/output dir)
/// and merge_dataset_parts (locking the final dir across the merge).
class DirLock {
 public:
  DirLock() = default;
  explicit DirLock(std::filesystem::path dir);
  ~DirLock();

  DirLock(DirLock&& other) noexcept;
  DirLock& operator=(DirLock&& other) noexcept;
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  void release();
  [[nodiscard]] bool held() const { return held_; }

 private:
  std::filesystem::path dir_;
  bool held_ = false;
};

/// One finished design as it travels producer -> queue -> sink.
struct DesignRecord {
  /// Global dataset index; design `index` is always driven by stream
  /// util::split_streams(seed, count)[index].
  std::size_t index = 0;
  /// The splitmix64 stream seed that drove this design end to end.
  std::uint64_t chain_seed = 0;
  graph::Graph graph;
};

/// Run-level metadata for the completion summary.
struct DatasetSummary {
  std::string generator;
  std::uint64_t seed = 0;
  std::size_t count = 0;
  std::size_t batch = 0;
  int threads = 1;
};

/// Receives a stream of finished designs. The service calls write() from
/// ONE consumer thread, in ascending index order; checkpoint(next) marks
/// every index < next durably written (the resume point of the next run);
/// finalize() closes the dataset. resume_index() is read once, before
/// generation starts.
class DatasetSink {
 public:
  virtual ~DatasetSink() = default;

  /// First index the next run still needs to produce (0 = fresh dataset).
  [[nodiscard]] virtual std::size_t resume_index() const = 0;

  virtual void write(const DesignRecord& record) = 0;

  /// Commit progress: after this returns, a crash must not lose any
  /// design with index < next.
  virtual void checkpoint(std::size_t next) = 0;

  virtual void finalize(const DatasetSummary& summary) = 0;
};

/// Disk sink writing the dataset layout of service/dataset_format.hpp:
///
///   DIR/shard_0000/synthetic_0.v ... (shard_size designs per shard dir)
///   DIR/manifest.jsonl   one JSON record per design (appended per write)
///   DIR/checkpoint.txt   (seed, shard_size, next) — rewritten by
///                        checkpoint()
///   DIR/manifest.json    run summary — written by finalize()
///   DIR/.lock            advisory lockfile (pid) held for the sink's
///                        lifetime — see below
///
/// Resume: the checkpoint is honoured only when its seed and shard_size
/// match, and its next is lowered to the first index whose manifest
/// record or design file is missing (read_resume_state). Manifest records
/// at or beyond the resume index are pruned at construction so replayed
/// designs never appear twice. A malformed checkpoint throws
/// DatasetFormatError.
///
/// Ownership: the sink assumes exclusive use of the output directory.
/// Construction takes an advisory lock (`.lock` holding the owner pid,
/// created with O_EXCL) and throws std::runtime_error when another live
/// process — or another sink in this process — already holds it, so two
/// daemon jobs (or a daemon job and a CLI run) targeting the same dir
/// fail fast instead of interleaving shards. A lockfile whose pid is no
/// longer running (a crashed or killed run) is stale and is taken over
/// silently; the destructor releases the lock.
class ShardedDiskSink final : public DatasetSink {
 public:
  struct Options {
    std::filesystem::path dir = "synthetic_dataset";
    /// Checkpoint compatibility key: must equal the generation seed.
    std::uint64_t seed = 0;
    /// Designs per shard_NNNN subdirectory; 0 writes a flat directory
    /// (the pre-sharding layout).
    std::size_t shard_size = 64;
    /// Discard any existing checkpoint/manifest and start over.
    bool fresh = false;
    /// Synthesize each design to record gates/SCPR/PCS in the manifest
    /// (the expensive part of writing; runs on the sink consumer thread,
    /// overlapped with generation by the service queue).
    bool with_synth_stats = true;
    /// Progress stream (one line per design); null = quiet.
    std::ostream* log = nullptr;
  };

  explicit ShardedDiskSink(Options options);
  ~ShardedDiskSink() override;

  ShardedDiskSink(const ShardedDiskSink&) = delete;
  ShardedDiskSink& operator=(const ShardedDiskSink&) = delete;

  [[nodiscard]] std::size_t resume_index() const override { return resume_; }
  void write(const DesignRecord& record) override;
  void checkpoint(std::size_t next) override;
  void finalize(const DatasetSummary& summary) override;

  /// Shard subdirectory (relative to dir) for a design index; empty when
  /// sharding is off.
  [[nodiscard]] std::filesystem::path shard_dir(std::size_t index) const;

  /// The manifest record the last write() appended, as encoded on disk.
  [[nodiscard]] const util::Json& last_record() const { return last_record_; }

  /// Why resume_index() differs from the checkpoint's next (an ignored
  /// checkpoint, or a missing record or design file); empty when it does
  /// not. Also written to Options::log.
  [[nodiscard]] const std::string& resume_note() const { return resume_note_; }

 private:
  Options options_;
  std::size_t resume_ = 0;
  std::string resume_note_;
  util::Json last_record_;
  DirLock lock_;
};

/// In-memory sink for tests and embedded consumers: keeps every record,
/// tracks the last checkpoint, never resumes. Deliberately non-final —
/// tests subclass it to inject sink failures.
class MemorySink : public DatasetSink {
 public:
  [[nodiscard]] std::size_t resume_index() const override { return 0; }
  void write(const DesignRecord& record) override;
  void checkpoint(std::size_t next) override { checkpointed_ = next; }
  void finalize(const DatasetSummary& summary) override {
    summary_ = summary;
    finalized_ = true;
  }

  [[nodiscard]] const std::vector<DesignRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t checkpointed() const { return checkpointed_; }
  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] const DatasetSummary& summary() const { return summary_; }

 private:
  std::vector<DesignRecord> records_;
  std::size_t checkpointed_ = 0;
  bool finalized_ = false;
  DatasetSummary summary_;
};

}  // namespace syn::service
