// JobServer: the one job server behind syn_daemon and syn_coordinator.
//
//   listener (unix socket, optional loopback TCP)
//        │ one thread per connection, newline-delimited JSON requests
//        ▼
//   JobServer ── request dispatch: PING HELLO HEARTBEAT SUBMIT STATUS LIST
//        │                         CANCEL STREAM METRICS SHUTDOWN (WORKERS
//        │                         is answered by the executor)
//        ├── SUBMIT admission (max_designs_per_job, max_out_bytes, the
//        │   executor's refusal, scheduler quotas)
//        ├── JobScheduler (fair-share across clients, N concurrent)
//        ├── per-job spec + EventLog ──► STREAM replay and filter
//        ├── terminal-job GC (per-client retention, TTL, "expired" ring)
//        └── MetricsRegistry (+ the common METRICS sections jobs, clients)
//        │ job body, on a pool thread
//        ▼
//   JobExecutor::run ── emits the job's event lines
//
// The two front ends differ only in their executor: Daemon
// (server/daemon.hpp) generates locally through GenerationService, and
// Coordinator (fleet/coordinator.hpp) shards the job across worker
// daemons. Everything a client sees besides the role's own fields —
// verbs, error codes, job JSON, stream filtering, expiry — comes from
// here, so the two cannot drift apart.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/event_log.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"
#include "util/json.hpp"

namespace syn::server {

class JobServer;

/// Settings every job server shares. DaemonConfig and CoordinatorConfig
/// extend it with their executor's own.
struct JobServerConfig {
  /// Unix-domain socket to listen on (required; created at start(),
  /// unlinked at teardown).
  std::filesystem::path socket_path;
  /// Also listen on 127.0.0.1:tcp_port (0 = unix socket only).
  int tcp_port = 0;
  /// Identity reported to HELLO/HEARTBEAT (fleet membership is keyed on
  /// it); empty = "<role>-<pid>".
  std::string node_id;
  /// Jobs running concurrently.
  std::size_t max_concurrent = 1;
  /// Log stream (connections, job lifecycle); null = quiet.
  std::ostream* log = nullptr;

  // ---- Admission control (all 0 = unlimited) -------------------------
  /// Per-client / global queue quotas, enforced inside the scheduler.
  JobScheduler::Quotas quotas;
  /// Max designs one SUBMIT may request.
  std::size_t max_designs_per_job = 0;
  /// Disk budget per output dir: a SUBMIT whose spec.out already holds
  /// at least this many bytes is rejected (coarse, checked once at
  /// admission — a resident server's main disk hazard is a client
  /// resubmitting into a dir that keeps growing).
  std::uintmax_t max_out_bytes = 0;

  // ---- Terminal-job GC ----------------------------------------------
  /// Terminal jobs retained per client; beyond this the oldest are
  /// evicted (scheduler entry, spec, and event log together) and STATUS
  /// answers "expired". 0 = evict immediately at terminal.
  std::size_t gc_retain = 64;
  /// Terminal jobs older than this are evicted even within the
  /// per-client retention window (0 = no TTL). Swept on every terminal
  /// event and every METRICS request.
  std::chrono::milliseconds gc_ttl{0};
};

/// How a front end names itself: PING/HELLO "server" and the log-line
/// prefix, HELLO "role" (also the default node-id prefix), and the
/// counter bumped per streamed "record" event.
struct ServerIdentity {
  const char* server;
  const char* role;
  const char* record_counter;
};

/// What a front end plugs into the JobServer: it runs jobs (concurrently,
/// up to max_concurrent), may refuse a SUBMIT, and adds its role's fields
/// to the replies.
class JobExecutor {
 public:
  /// Appends one event line to the running job's STREAM log.
  using EmitFn = std::function<void(std::string line)>;

  JobExecutor() = default;
  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;
  virtual ~JobExecutor() = default;

  /// Called once by the JobServer constructor, before any job or request
  /// can arrive: declare tracks, register gauges, keep the server for
  /// metrics() and log_line().
  virtual void bind(JobServer& server) = 0;
  /// After the listeners are up, at the end of JobServer::start().
  virtual void start() {}
  /// First step of teardown, before the scheduler settles its jobs.
  virtual void stop() {}

  /// SUBMIT admission after the server's own limits: an error response
  /// refuses the job before it is queued.
  [[nodiscard]] virtual std::optional<util::Json> refuse(const JobSpec&) {
    return std::nullopt;
  }
  /// The job body, on a scheduler pool thread (JobScheduler::JobFn
  /// outcome rules: throw service::CancelledError to report cancelled).
  virtual void run(const JobSpec& spec, const JobScheduler::Handle& handle,
                   const EmitFn& emit) = 0;

  /// Role fields appended to a HEARTBEAT reply after ok/node/running/
  /// queued.
  virtual void add_heartbeat_fields(util::Json&) {}
  /// Role sections appended to the METRICS payload after jobs/clients.
  virtual void add_metrics(util::Json&) {}
  /// The WORKERS reply; by default the not_coordinator error.
  [[nodiscard]] virtual util::Json workers();
};

class JobServer {
 public:
  JobServer(JobServerConfig config, ServerIdentity identity,
            std::unique_ptr<JobExecutor> executor);
  virtual ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Binds the listeners and starts accepting, then starts the executor.
  /// Throws on bind failure (socket path in use by a live server, TCP
  /// port taken, ...).
  void start();

  /// Blocks until a protocol shutdown request (or request_stop) arrives,
  /// then tears down: stops the executor, drains or cancels the
  /// scheduler, closes every connection, joins every thread. start() +
  /// serve() is the server main loop.
  void serve();

  /// Asynchronous stop trigger (signal handlers, tests). drain=true
  /// finishes queued + running jobs first; the first request's mode wins.
  void request_stop(bool drain);

  [[nodiscard]] const JobServerConfig& config() const { return config_; }
  [[nodiscard]] JobScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] MetricsRegistry& metrics() { return registry_; }
  void log_line(const std::string& line);

 protected:
  [[nodiscard]] JobExecutor& executor() { return *executor_; }

 private:
  void accept_loop(int listen_fd);
  void handle_connection(int fd, std::size_t connection_id);
  /// One request -> one response (STREAM additionally writes event lines
  /// before returning). Returns false when the connection should close.
  bool handle_request(const Request& request, const std::string& conn_client,
                      int fd);
  [[nodiscard]] util::Json submit(const Request& request,
                                  const std::string& conn_client);
  /// Replays the job's retained events, then follows the live tail until
  /// the terminal "end" event; false on a failed write.
  bool stream(const Request& request, int fd);
  [[nodiscard]] util::Json job_json(const JobScheduler::Info& info) const;
  /// Registry snapshot + the common jobs/clients sections + the
  /// executor's own.
  [[nodiscard]] util::Json metrics_json();

  /// Get-or-create, unless the job has been GC-evicted (then nullptr —
  /// creating a fresh, never-closed log for an expired job would leave
  /// its subscriber blocked forever).
  std::shared_ptr<EventLog> event_log(const std::string& id);
  /// "expired" vs "unknown job" error for an id the scheduler no longer
  /// knows.
  [[nodiscard]] util::Json job_gone_response(const std::string& id);
  /// Terminal "end" event + close, then GC: runs once per job, after its
  /// terminal state is visible to STATUS.
  void on_terminal(const JobScheduler::Info& info);
  /// Applies the per-client retention count + TTL, evicting scheduler
  /// entry, spec and event log together. Evicted ids land in the
  /// expired ring so STATUS/STREAM/CANCEL answer "expired".
  void gc_terminal_jobs();
  /// One-shot teardown executed by serve() (or the destructor if serve
  /// never ran). Joins every thread; idempotent.
  void teardown(bool drain);

  JobServerConfig config_;
  ServerIdentity identity_;

  /// Declared before the executor and the scheduler: job bodies and the
  /// executor's own threads observe into it until both are gone.
  MetricsRegistry registry_;
  /// Declared before scheduler_: job bodies call into it until the
  /// scheduler has joined them.
  std::unique_ptr<JobExecutor> executor_;

  std::vector<int> listen_fds_;
  std::vector<std::thread> accept_threads_;

  mutable std::mutex mutex_;  // connections, logs, specs, GC state
  std::vector<std::pair<std::size_t, int>> connections_;
  std::vector<std::thread> connection_threads_;
  std::size_t next_connection_ = 0;
  std::map<std::string, std::shared_ptr<EventLog>> logs_;
  std::map<std::string, JobSpec> specs_;

  struct TerminalRecord {
    std::string id;
    std::chrono::steady_clock::time_point at;
  };
  /// Terminal jobs per client, oldest first; trimmed by gc_retain/gc_ttl.
  std::map<std::string, std::deque<TerminalRecord>> terminal_history_;
  /// Ids evicted by GC, so STATUS/STREAM/CANCEL answer "expired" instead
  /// of "unknown job". Itself a bounded ring (kExpiredRetention) — after
  /// enough churn the very oldest evictions degrade to "unknown job",
  /// which is still a correct (if less precise) answer.
  static constexpr std::size_t kExpiredRetention = 4096;
  std::set<std::string> expired_;
  std::deque<std::string> expired_order_;

  std::mutex log_mutex_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stop_drain_ = true;
  std::mutex teardown_mutex_;
  bool torn_down_ = false;
  std::atomic<bool> started_{false};

  /// Declared LAST on purpose: its destructor joins the job pool, and a
  /// job's terminal callback may touch any member above — destroying the
  /// scheduler first makes that safe.
  std::unique_ptr<JobScheduler> scheduler_;
};

/// main() of a server executable: blocks SIGINT/SIGTERM (before `make`
/// spawns any thread, so every server thread inherits the mask), builds
/// and starts the server, and serves until a SHUTDOWN request or a stop
/// signal — consumed on a dedicated sigwait thread, since an async
/// handler could not safely touch the server's locks — which drains.
/// Returns the exit code: 0, or 1 after printing "<name>: <error>".
int serve_main(const char* name,
               const std::function<std::unique_ptr<JobServer>()>& make);

}  // namespace syn::server
