#include "server/stream_sink.hpp"

#include <stdexcept>
#include <utility>

#include "service/dataset_format.hpp"
#include "util/json.hpp"

namespace syn::server {

using util::Json;

std::string summary_event(const std::string& job_id,
                          const service::DatasetSummary& summary) {
  Json event;
  event.set("event", "summary");
  event.set("id", job_id);
  event.set("generator", summary.generator);
  event.set("seed", summary.seed);
  event.set("count", summary.count);
  return event.dump();
}

StreamingManifestSink::StreamingManifestSink(service::ShardedDiskSink& disk,
                                             std::string job_id, Emit emit)
    : disk_(disk), job_id_(std::move(job_id)), emit_(std::move(emit)) {
  if (!emit_) {
    throw std::invalid_argument("StreamingManifestSink: emit is not set");
  }
}

void StreamingManifestSink::write(const service::DesignRecord& record) {
  disk_.write(record);
  Json event;
  event.set("event", "record");
  event.set("id", job_id_);
  for (const auto& [key, value] : disk_.last_record().object()) {
    event.set(key, value);
  }
  ++records_;
  emit_(service::dump_manifest_json(event));
}

void StreamingManifestSink::checkpoint(std::size_t next) {
  disk_.checkpoint(next);
  Json event;
  event.set("event", "checkpoint");
  event.set("id", job_id_);
  event.set("next", next);
  emit_(event.dump());
}

void StreamingManifestSink::finalize(const service::DatasetSummary& summary) {
  disk_.finalize(summary);
  emit_(summary_event(job_id_, summary));
}

}  // namespace syn::server
