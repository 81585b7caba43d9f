// The dataset format: the one module that knows how a generated dataset
// is laid out on disk.
//
//   DIR/shard_0000/synthetic_0.v   design files, shard_size per shard dir
//                                  (directly in DIR when shard_size is 0)
//   DIR/manifest.jsonl             one record per design, ascending index
//   DIR/checkpoint.txt             seed, shard_size, next: the resume point
//   DIR/manifest.json              run summary, written when a run finishes
//
// ShardedDiskSink (write, checkpoint, finalize, resume), the fleet's
// merge_dataset_parts and the fleet dispatcher all go through these
// functions; nothing else spells a shard name, a manifest key or a
// checkpoint key. Records are encoded through util::Json and decoded
// strictly: a missing field, a wrong type or a malformed checkpoint
// number is a DatasetFormatError naming the file. Whole-file rewrites
// (checkpoint, pruned or merged manifest, summary) go through a sibling
// temp file and rename(2), so a crash leaves the old file or the new
// one, never a torn mix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "service/dataset_sink.hpp"
#include "util/json.hpp"

namespace syn::service {

/// A dataset file or manifest record that does not follow the format;
/// errors raised while reading a file name it.
struct DatasetFormatError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Shard subdirectory (relative to the dataset dir) that holds design
/// `index`; empty when shard_size is 0 (flat layout).
[[nodiscard]] std::filesystem::path shard_path(std::size_t index,
                                               std::size_t shard_size);

/// One manifest.jsonl record.
struct ManifestRecord {
  std::size_t index = 0;
  /// Design file relative to the dataset dir ("shard_0000/synthetic_0.v").
  std::string file;
  std::uint64_t chain_seed = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  struct Synth {
    std::size_t gates = 0;
    double scpr = 0.0;
    double pcs = 0.0;
  };
  /// Synthesis stats; absent when the dataset is written without them.
  std::optional<Synth> synth;
};

/// The record of one finished design. With with_synth_stats this is the
/// design's one synth::synthesize_stats call.
[[nodiscard]] ManifestRecord make_manifest_record(const DesignRecord& design,
                                                  std::size_t shard_size,
                                                  bool with_synth_stats);

/// The record as a JSON object, keys in manifest order.
[[nodiscard]] util::Json encode_manifest_record(const ManifestRecord& record);

/// Compact JSON text in the manifests' number form: every double at 6
/// significant digits (printf "%g"), the form manifest.jsonl has always
/// carried. Anything that mirrors manifest values (the daemon's STREAM
/// records) dumps through this so its numbers match the file's.
[[nodiscard]] std::string dump_manifest_json(const util::Json& value);

/// Parses one manifest.jsonl line; DatasetFormatError on malformed JSON,
/// a missing field or a field of the wrong type.
[[nodiscard]] ManifestRecord decode_manifest_record(std::string_view line);

/// Appends one encoded record line to DIR/manifest.jsonl.
void append_manifest_line(const std::filesystem::path& dir,
                          const std::string& line);

/// The newline-terminated lines of DIR/manifest.jsonl, newlines stripped
/// (an unterminated tail is a torn append and is left out); nullopt when
/// the file does not exist.
[[nodiscard]] std::optional<std::vector<std::string>> read_manifest_lines(
    const std::filesystem::path& dir);

/// Replaces DIR/manifest.jsonl with `lines` (atomically).
void write_manifest_file(const std::filesystem::path& dir,
                         std::string_view lines);

/// DIR/checkpoint.txt: every design with index < next is durably written.
struct DatasetCheckpoint {
  std::uint64_t seed = 0;
  std::size_t shard_size = 0;
  std::size_t next = 0;
};

/// Replaces DIR/checkpoint.txt (atomically).
void write_checkpoint_file(const std::filesystem::path& dir,
                           const DatasetCheckpoint& checkpoint);

/// DIR/manifest.json, the run summary.
void write_summary_file(const std::filesystem::path& dir,
                        const DatasetSummary& summary, std::size_t shard_size);

/// Reads DIR/manifest.json; nullopt when it does not exist,
/// DatasetFormatError when it is malformed.
[[nodiscard]] std::optional<DatasetSummary> read_summary_file(
    const std::filesystem::path& dir);

/// Deletes DIR's manifest.jsonl and checkpoint.txt (a fresh start).
void remove_progress_files(const std::filesystem::path& dir);

/// Where a run over an existing dataset dir resumes.
struct ResumeState {
  /// First index the run still needs to produce: the checkpoint's next,
  /// lowered to the first index whose manifest record or design file is
  /// missing. 0 without a checkpoint, or when its seed or shard_size
  /// differs from the run's (a different dataset, or a layout a resume
  /// would mix).
  std::size_t next = 0;
  /// The manifest.jsonl lines of the designs below next, verbatim.
  std::string manifest;
  /// manifest.jsonl exists and differs from `manifest`: it must be
  /// rewritten before the run appends.
  bool prune = false;
  /// Why next differs from the checkpoint's; empty when it does not.
  std::string note;
};

/// Cross-checks DIR's checkpoint against its manifest and design files.
/// Read-only. Every checkpoint value must be a plain base-10 number
/// (util::parse_flag_u64 rules); seed and next are required, and a missing
/// shard_size is a pre-sharding (flat) checkpoint. Anything else throws
/// DatasetFormatError. A manifest's records must run contiguously from
/// its first index (a fleet part dir starts at its range's first index,
/// not 0).
[[nodiscard]] ResumeState read_resume_state(const std::filesystem::path& dir,
                                            std::uint64_t seed,
                                            std::size_t shard_size);

}  // namespace syn::service
