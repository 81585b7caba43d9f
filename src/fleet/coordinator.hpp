// Coordinator: the fleet-level daemon — the JobServer
// (server/job_server.hpp) with an executor that shards each job across
// worker daemons.
//
//   synctl / any protocol client
//        │ the SAME NDJSON grammar a single syn_daemon speaks
//        ▼
//   JobServer (listener, protocol, scheduler, event logs, GC, METRICS)
//        │ job body = FleetDispatcher::run
//        ├── WorkerRegistry ◄── heartbeat thread (HELLO/HEARTBEAT probes)
//        ▼
//   syn_daemon workers (each runs its sub-range through the normal
//   GenerationService / ShardedDiskSink path)
//
// A client cannot tell a coordinator from a worker except by asking:
// PING/HELLO answer "syn_coordinator" with role "coordinator", HEARTBEAT
// adds workers_live, METRICS adds the per-worker "fleet" section (plus
// the workers_* gauges and hb_rtt_ms / fleet_subjob_ms tracks), WORKERS
// answers the membership table instead of not_coordinator, and a SUBMIT
// with no live worker is refused with "no_workers". Everything else —
// SUBMIT/STATUS/LIST/CANCEL/STREAM, quotas, the per-job limits and
// terminal-job GC with "expired" answers — is the same JobServer code
// the worker daemon runs. Stream events carry the coordinator's job id,
// and the final dataset is byte-identical to the single-daemon run.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "fleet/registry.hpp"
#include "server/job_server.hpp"

namespace syn::fleet {

struct CoordinatorConfig : server::JobServerConfig {
  CoordinatorConfig() { max_concurrent = 2; }  // fleet jobs mostly wait

  /// Worker endpoints ("host:port" or socket paths) registered at
  /// construction; the heartbeat loop brings them live.
  std::vector<std::string> workers;
  /// Probe interval and consecutive misses before eviction.
  std::chrono::milliseconds hb_interval{1000};
  std::size_t hb_miss_limit = 3;
  /// Bound on worker connects (probes, dispatch, remote cancel), ms.
  int connect_timeout_ms = 2000;
  /// Dispatch attempts per sub-range before a fleet job fails.
  std::size_t max_attempts = 6;
};

class Coordinator : public server::JobServer {
 public:
  /// Throws std::invalid_argument without workers or on a bad endpoint.
  explicit Coordinator(CoordinatorConfig config);

  /// One synchronous probe sweep over every registered worker — the
  /// heartbeat loop calls this each interval; tests call it directly to
  /// step liveness deterministically.
  void probe_workers();
  [[nodiscard]] WorkerRegistry& registry();

 private:
  class Executor;
  Executor& fleet();
};

}  // namespace syn::fleet
