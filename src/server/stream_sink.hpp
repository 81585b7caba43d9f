// StreamingManifestSink: the sink half of the daemon's STREAM command. A
// decorator over the job's ShardedDiskSink: every call goes to the disk
// sink first, then becomes one protocol event line handed to an emit
// callback — in the daemon that callback appends to the job's event log,
// from which any number of STREAM subscribers replay + follow.
//
// A "record" event is {"event":"record","id":…} followed by the fields
// of the manifest.jsonl record the disk sink just appended, dumped in the
// manifest's number form (service::dump_manifest_json). Each design is
// therefore synthesized once, and a STREAM record equals its manifest
// line by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "service/dataset_sink.hpp"

namespace syn::server {

/// The protocol "summary" event that closes a job's record stream.
[[nodiscard]] std::string summary_event(const std::string& job_id,
                                        const service::DatasetSummary& summary);

class StreamingManifestSink final : public service::DatasetSink {
 public:
  /// Receives one complete protocol line (no trailing '\n') per event.
  /// Called from the service's sink-consumer thread.
  using Emit = std::function<void(std::string line)>;

  /// `disk` is borrowed and must outlive this sink; `job_id` is stamped
  /// on every event line.
  StreamingManifestSink(service::ShardedDiskSink& disk, std::string job_id,
                        Emit emit);

  /// The disk sink's: it owns the durable checkpoint.
  [[nodiscard]] std::size_t resume_index() const override {
    return disk_.resume_index();
  }
  void write(const service::DesignRecord& record) override;
  void checkpoint(std::size_t next) override;
  void finalize(const service::DatasetSummary& summary) override;

  [[nodiscard]] std::size_t records_emitted() const { return records_; }

 private:
  service::ShardedDiskSink& disk_;
  std::string job_id_;
  Emit emit_;
  std::size_t records_ = 0;
};

}  // namespace syn::server
