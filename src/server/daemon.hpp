// The dataset-generation daemon: the JobServer (server/job_server.hpp)
// with an executor that generates locally.
//
//   JobServer (listener, protocol, scheduler, event logs, GC, METRICS)
//        │ job body, on a pool thread
//        ▼
//   GenerationService ──► StreamingManifestSink ──► ShardedDiskSink
//                           (decorator)               (durable dataset;
//                               │                      one synthesis
//                               │ each manifest        per design)
//                               ▼ record appended
//                           job event log ── replay+follow ──► STREAM
//                                                              subscribers
//
// The daemon's own share of the protocol is small: HELLO answers role
// "worker", HEARTBEAT adds stall_ms and designs_committed, METRICS adds
// the synth_cache and inference sections (plus the sink_stall_ms gauge
// and group_commit_ms / generate_<backend>_ms tracks), and WORKERS is the
// not_coordinator error. Every other verb, METRICS section and limit —
// quotas, max_designs_per_job, max_out_bytes, terminal-job GC — is the
// JobServer's, shared with the fleet coordinator.
//
// Jobs run through the same ShardedDiskSink as a local generate_dataset
// invocation — same lockfile, same checkpoint, same manifests — so a
// daemon job is byte-identical to the equivalent CLI run, a killed daemon
// resumes from the checkpoint on restart, and a daemon job can even pick
// up where an interrupted CLI run left off.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "core/generator.hpp"
#include "core/registry.hpp"
#include "server/job_server.hpp"
#include "util/rng.hpp"

namespace syn::server {

/// A generator ready to serve jobs: the fitted model plus the attribute
/// sampler that conditions each design. Built once per backend name and
/// cached for the daemon's lifetime (models are read-only after fit, so
/// concurrent jobs share one instance).
struct FittedBackend {
  std::shared_ptr<core::GeneratorModel> model;
  /// Draws design i's conditioning attributes; must depend only on
  /// (i, rng) so daemon jobs reproduce local runs exactly.
  std::function<graph::NodeAttrs(std::size_t index, util::Rng& rng)> attrs;
};

/// Builds + fits a backend by registry name; throws for unknown names.
using BackendFactory = std::function<FittedBackend(const std::string& name)>;

/// The dataset-production model tuning shared by the daemon's default
/// factory and the generate_dataset local path. Single-sourced on
/// purpose: byte-identical daemon-vs-CLI output depends on both sides
/// constructing the model identically.
[[nodiscard]] core::BackendConfig default_backend_config();

/// Node count of design i under the default attrs formula (mixed 60/80/
/// 100-node designs), shared for the same byte-identity reason.
[[nodiscard]] constexpr std::size_t default_attr_nodes(std::size_t i) {
  return 60 + 20 * (i % 3);
}

/// The production factory: core::make_generator(default_backend_config),
/// fitted on the 22-design RTL corpus, attrs drawn from an AttrSampler
/// over that corpus at default_attr_nodes(i) — field-for-field what
/// generate_dataset does locally.
FittedBackend make_default_backend(const std::string& name,
                                   std::ostream* log = nullptr);

struct DaemonConfig : JobServerConfig {
  /// Backend construction hook; null = make_default_backend. Tests
  /// inject cheap stub models here.
  BackendFactory factory;
};

/// The JobServer with the local-generation executor: each job runs
/// GenerationService → StreamingManifestSink → ShardedDiskSink,
/// over a fitted backend built once per backend name and cached for the
/// daemon's lifetime.
class Daemon : public JobServer {
 public:
  explicit Daemon(DaemonConfig config);
};

}  // namespace syn::server
