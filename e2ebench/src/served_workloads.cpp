// daemon-syncircuit and fleet-syncircuit: warm syn_daemon /
// syn_coordinator processes driven by closed-loop clients, one connection
// per job.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "pipeline.hpp"
#include "process.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using syn::server::ClientConnection;
using syn::util::Json;

constexpr const char* kBackend = "syncircuit";
/// Jobs re-generated in process for the byte-identity check (and, traced,
/// for the layer split).
constexpr std::size_t kReferenceJobs = 24;

/// A served workload's traffic: closed-loop clients each keeping one job
/// of `spec` in flight (seed and out are set per job), and whether a
/// poller reads METRICS and LIST beside them.
struct Shape {
  bool fleet = false;
  std::size_t clients = 1;
  syn::server::JobSpec spec;
  bool poll = false;
};

/// Client-side timings of one job, in ms from the moment SUBMIT was sent
/// (connect_ms is the connect before it).
struct JobSample {
  double connect_ms = 0.0;
  double submit_ack_ms = 0.0;
  double first_record_ms = 0.0;
  double stream_tail_ms = 0.0;  ///< last record to the end event
  double job_ms = 0.0;          ///< SUBMIT to the terminal event
  bool ok = false;
  std::string error;
  fs::path out;
  std::uint64_t seed = 0;
};

syn::server::JobSpec job_spec(const syn::server::JobSpec& base,
                              std::uint64_t seed, const fs::path& out) {
  syn::server::JobSpec spec = base;
  spec.seed = seed;
  spec.out = out;
  spec.fresh = true;
  return spec;
}

/// Submits one job on a fresh connection and follows it to its end event.
JobSample run_job(const fs::path& socket, const std::string& client,
                  const syn::server::JobSpec& base, std::uint64_t seed,
                  const fs::path& out) {
  JobSample s;
  s.out = out;
  s.seed = seed;
  try {
    const auto t0 = Clock::now();
    ClientConnection conn = ClientConnection::connect_unix(socket, 10'000);
    const auto submitted = Clock::now();
    s.connect_ms = ms_between(t0, submitted);
    const std::string id = conn.submit(job_spec(base, seed, out), client);
    s.submit_ack_ms = ms_between(submitted, Clock::now());
    Clock::time_point first{};
    Clock::time_point last{};
    const std::string state = conn.stream(id, [&](const Json& event) {
      const Json* kind = event.find("event");
      if (kind != nullptr && kind->is_string() && kind->str() == "record") {
        last = Clock::now();
        if (first == Clock::time_point{}) first = last;
      }
    });
    const auto end = Clock::now();
    s.job_ms = ms_between(submitted, end);
    s.first_record_ms = ms_between(submitted, first);
    s.stream_tail_ms = ms_between(last, end);
    s.ok = state == "done";
    if (!s.ok) s.error = "job " + id + " ended " + state;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  return s;
}

/// Closed-loop load: `clients` threads each keep one job in flight until
/// `seconds` have passed and kMinJobs jobs are done. An optional poller
/// issues METRICS and LIST every 50 ms on one persistent connection.
struct Load {
  std::vector<JobSample> jobs;
  std::vector<double> poll_ms;
  std::string poll_error;  ///< why the poller stopped early, if it did
  double wall_s = 0.0;
};

Load run_load(const fs::path& socket, const Shape& shape,
              const RunOptions& options, const fs::path& out_root) {
  Load load;
  std::mutex mutex;
  std::atomic<std::size_t> done{0};
  std::atomic<bool> stop{false};
  const auto start = Clock::now();
  const auto finished = [&] {
    return ms_between(start, Clock::now()) >= options.seconds * 1000.0 &&
           done.load() >= kMinJobs;
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::uint64_t n = 0; !finished(); ++n) {
        const std::uint64_t stream = (c + 1) * 1'000'000 + n;
        JobSample s = run_job(
            socket, "client-" + std::to_string(c), shape.spec,
            derive_seed(options.seed, stream),
            out_root / ("c" + std::to_string(c) + "-" + std::to_string(n)));
        ++done;
        const std::lock_guard<std::mutex> lock(mutex);
        load.jobs.push_back(std::move(s));
      }
    });
  }
  std::thread poller;
  if (shape.poll) {
    poller = std::thread([&] {
      try {
        ClientConnection conn = ClientConnection::connect_unix(socket, 10'000);
        while (!stop.load()) {
          const auto t0 = Clock::now();
          (void)conn.metrics();
          (void)conn.list();
          load.poll_ms.push_back(ms_between(t0, Clock::now()));
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      } catch (const std::exception& e) {
        load.poll_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  load.wall_s = ms_between(start, Clock::now()) / 1000.0;
  stop = true;
  if (poller.joinable()) poller.join();
  return load;
}

Json metrics_of(const fs::path& socket) {
  return ClientConnection::connect_unix(socket, 10'000).metrics();
}

/// (count, sum) of a METRICS latency track; sum = mean * count. Only
/// counts and sums are read: the tracks' fixed-bin quantiles are wrong.
struct Track {
  double count = 0.0;
  double sum = 0.0;
};

Track track(const Json& snapshot, const char* name) {
  const Json* t = snapshot.find("latency");
  t = t != nullptr ? t->find(name) : nullptr;
  if (t == nullptr) return {};
  const double count = t->at("count").number();
  return {count, count * t->at("mean").number()};
}

double track_mean_between(const Json& before, const Json& after,
                          const char* name) {
  const Track a = track(before, name);
  const Track b = track(after, name);
  return b.count > a.count ? (b.sum - a.sum) / (b.count - a.count) : 0.0;
}

double counter(const Json& snapshot, const char* group, const char* name) {
  const Json* g = snapshot.find(group);
  const Json* v = g != nullptr ? g->find(name) : nullptr;
  return v != nullptr ? v->number() : 0.0;
}

/// A fresh set of processes, timed from spawn until the warm-up job
/// reaches a terminal state (that includes the lazy backend fit).
struct Deployment {
  std::vector<std::unique_ptr<Child>> processes;
  fs::path socket;

  [[nodiscard]] double peak_rss_mb() const {
    double total = 0.0;
    for (const auto& p : processes) total += p->peak_rss_mb();
    return total;
  }
  void stop() {
    // Front end first, so it never sees its workers vanish mid-job.
    for (auto it = processes.rbegin(); it != processes.rend(); ++it) {
      (*it)->stop();
    }
    processes.clear();
  }
};

fs::path spawn_and_wait(Deployment& d, const RunOptions& options,
                        const char* exe, const std::string& socket,
                        std::vector<std::string> args) {
  args.insert(args.begin(), "--socket=" + socket);
  args.push_back("--quiet");
  d.processes.push_back(std::make_unique<Child>(
      options.bin_dir / exe, args, options.work_dir / "processes.log"));
  if (!wait_for_socket(socket, std::chrono::seconds(60))) {
    throw std::runtime_error(std::string(exe) + " did not come up on " +
                             socket);
  }
  return socket;
}

/// Polls WORKERS until `n` workers are live: the coordinator refuses
/// jobs before its first heartbeat round marks them so.
void wait_for_live_workers(const fs::path& socket, std::size_t n) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  ClientConnection conn = ClientConnection::connect_unix(socket, 10'000);
  while (Clock::now() < deadline) {
    std::size_t live = 0;
    const Json workers = conn.workers();
    for (const Json& w : workers.array()) {
      const Json* state = w.find("state");
      live += state != nullptr && state->is_string() && state->str() == "live";
    }
    if (live >= n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("fleet workers did not become live");
}

Deployment deploy(const RunOptions& options, const Shape& shape, int index,
                  double& setup_s) {
  Deployment d;
  const std::string tag = std::to_string(index);
  const auto start = Clock::now();
  if (shape.fleet) {
    const fs::path w1 =
        spawn_and_wait(d, options, "syn_daemon", "w1-" + tag + ".sock", {});
    const fs::path w2 =
        spawn_and_wait(d, options, "syn_daemon", "w2-" + tag + ".sock", {});
    d.socket = spawn_and_wait(
        d, options, "syn_coordinator", "c-" + tag + ".sock",
        {"--worker=" + w1.string(), "--worker=" + w2.string()});
    wait_for_live_workers(d.socket, 2);
  } else {
    d.socket =
        spawn_and_wait(d, options, "syn_daemon", "d-" + tag + ".sock", {});
  }
  const JobSample warm =
      run_job(d.socket, "warmup", shape.spec,
              derive_seed(options.seed, 100 + index),
              options.work_dir / ("warmup-" + tag));
  setup_s = ms_between(start, Clock::now()) / 1000.0;
  if (!warm.ok) throw std::runtime_error("warm-up job failed: " + warm.error);
  return d;
}

/// In-process GenerationService runs (same backend, spec and seed) of
/// an evenly spaced sample of the jobs, compared byte for byte with the
/// served datasets. Traced, the sample alternates untraced and traced
/// jobs, so the layer split and trace.overhead_share come from the same
/// designs the server made.
void check_against_reference(const std::vector<JobSample>& jobs,
                             const syn::server::JobSpec& spec,
                             const RunOptions& options, RunResult& result) {
  syn::server::FittedBackend backend =
      syn::server::make_default_backend(spec.backend);
  const syn::core::GenerateBatchOptions batch{.batch = spec.batch,
                                              .threads = spec.threads};
  Recorder plain;
  Recorder traced;
  Tracer tracer;
  const JobProbe plain_probe{&backend, &plain, nullptr, batch};
  const JobProbe traced_probe{&backend, &traced, &tracer, batch};
  const std::size_t step = std::max<std::size_t>(
      1, (jobs.size() + kReferenceJobs - 1) / kReferenceJobs);
  for (std::size_t i = 0, k = 0; i < jobs.size(); i += step, ++k) {
    if (!jobs[i].ok) continue;
    const fs::path ref = options.work_dir / "reference" / std::to_string(i);
    run_probed_job(options.trace && k % 2 == 1 ? traced_probe : plain_probe,
                   ref, spec.count, jobs[i].seed);
    const std::string diff = compare_datasets(jobs[i].out, ref);
    fs::remove_all(ref);
    if (!diff.empty()) {
      result.fail("served dataset differs from in-process: " + diff);
    }
  }
  if (!options.trace) return;
  report_layers(traced, tracer, batch.threads, result);
  check_trace_identity(traced, traced_probe, result);
  result.set("trace.overhead_share",
             1.0 - designs_per_s(traced) / designs_per_s(plain), "ratio");
}

RunResult run_served(const RunOptions& options, const Shape& shape) {
  const std::size_t count = shape.spec.count;
  RunResult result;
  if (options.trace) traced_setup(kBackend, result);

  std::vector<double> setup_s(kSetups);
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d.stop();
    d = deploy(options, shape, i, setup_s[i]);
  }
  result.notes.push_back(setup_note(setup_s));
  // METRICS of every process, before and after the timed load.
  const auto snapshot_all = [&] {
    std::vector<Json> out;
    out.push_back(metrics_of(d.socket));
    if (shape.fleet) {
      out.push_back(metrics_of("w1-" + std::to_string(kSetups - 1) + ".sock"));
      out.push_back(metrics_of("w2-" + std::to_string(kSetups - 1) + ".sock"));
    }
    return out;
  };
  ::sync();  // the set-ups' file churn, before the clock starts
  const std::vector<Json> before = snapshot_all();
  const Load load =
      run_load(d.socket, shape, options, options.work_dir / "jobs");
  const std::vector<Json> after = snapshot_all();
  const double peak_rss = d.peak_rss_mb();
  d.stop();
  if (!load.poll_error.empty()) result.fail("poller: " + load.poll_error);

  // Output checks: every job done, its dataset whole and valid, and
  // byte-identical to an in-process run.
  std::vector<double> job_ms;
  std::vector<fs::path> dirs;
  for (const JobSample& j : load.jobs) {
    ++result.attempted;
    if (!j.ok) {
      ++result.failed;
      result.fail(j.error);
      continue;
    }
    job_ms.push_back(j.job_ms);
    dirs.push_back(j.out);
  }
  const DatasetCheck checks = check_datasets(dirs, count, options.threads);
  if (!checks.ok) result.fail(checks.error);
  check_against_reference(load.jobs, shape.spec, options, result);

  const auto sample_median = [&](double JobSample::*field) {
    std::vector<double> v;
    for (const JobSample& j : load.jobs) {
      if (j.ok) v.push_back(j.*field);
    }
    return median(v);
  };
  const double n = static_cast<double>(checks.designs);
  if (!options.trace) {
    result.set("designs_per_s",
               static_cast<double>(dirs.size() * count) / load.wall_s, "1/s");
    result.set("setup_s", median(setup_s), "s");
    result.set("job_ms_p50", tail_quantile(job_ms, 0.5).value_or(0.0), "ms");
    result.set("job_ms_p90", tail_quantile(job_ms, 0.9).value_or(0.0), "ms");
    result.set("pcs_mean", n > 0 ? checks.pcs_sum / n : 0.0, "um2/node");
    result.set("scpr_mean", n > 0 ? checks.scpr_sum / n : 0.0, "ratio");
    result.notes.push_back(
        "operation = job of " + std::to_string(count) + " designs; " +
        std::to_string(job_ms.size()) + " jobs from " +
        std::to_string(shape.clients) + " closed-loop clients");
    return result;
  }

  result.set("system.peak_rss_mb", peak_rss, "MiB");
  result.set("server.connect_ms_p50", sample_median(&JobSample::connect_ms),
             "ms");
  result.set("server.submit_ack_ms_p50",
             sample_median(&JobSample::submit_ack_ms), "ms");
  result.set("server.first_record_ms_p50",
             sample_median(&JobSample::first_record_ms), "ms");
  result.set("server.stream_tail_ms_p50",
             sample_median(&JobSample::stream_tail_ms), "ms");
  result.set("server.poll_ms_p50", median(load.poll_ms), "ms");
  // The serving daemons: the daemon itself, or the two fleet workers.
  const std::size_t first_daemon = shape.fleet ? 1 : 0;
  double wait_sum = 0.0, run_sum = 0.0, jobs_run = 0.0;
  double hits = 0.0, misses = 0.0;
  std::vector<double> worker_run_ms;
  for (std::size_t k = first_daemon; k < after.size(); ++k) {
    const Track w0 = track(before[k], "dispatch_ms");
    const Track w1 = track(after[k], "dispatch_ms");
    const Track r0 = track(before[k], "job_ms");
    const Track r1 = track(after[k], "job_ms");
    wait_sum += w1.sum - w0.sum;
    run_sum += r1.sum - r0.sum;
    jobs_run += r1.count - r0.count;
    worker_run_ms.push_back(r1.count > r0.count
                                ? (r1.sum - r0.sum) / (r1.count - r0.count)
                                : 0.0);
    hits += counter(after[k], "synth_cache", "hits") -
            counter(before[k], "synth_cache", "hits");
    misses += counter(after[k], "synth_cache", "misses") -
              counter(before[k], "synth_cache", "misses");
  }
  result.set("server.queue_wait_ms_mean", jobs_run > 0 ? wait_sum / jobs_run : 0.0,
             "ms");
  result.set("server.run_ms_mean", jobs_run > 0 ? run_sum / jobs_run : 0.0,
             "ms");
  result.set("synth.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  if (shape.fleet) {
    const double subjob =
        track_mean_between(before[0], after[0], "fleet_subjob_ms");
    result.set("fleet.subjob_ms_mean", subjob, "ms");
    // Per-part times are not exposed to clients, so the overhead is taken
    // against the mean part: an upper bound on latency above the slowest.
    result.set("fleet.overhead_ms", mean(job_ms) - subjob, "ms");
    result.set("fleet.part_skew",
               *std::max_element(worker_run_ms.begin(), worker_run_ms.end()) /
                   std::max(mean(worker_run_ms), 1e-9),
               "ratio");
    result.set("fleet.redispatches",
               counter(after[0], "counters", "fleet_redispatches") -
                   counter(before[0], "counters", "fleet_redispatches"),
               "count");
    result.set("fleet.hb_rtt_ms",
               track_mean_between(before[0], after[0], "hb_rtt_ms"), "ms");
  }
  return result;
}

/// SynCircuit jobs of 8 designs at batch 2, so a job's four chunks spread
/// over `threads` pool threads. With nproc threads for the daemon (one
/// job at a time, its default --jobs) and nproc / 2 for each fleet worker
/// (one 4-design part at a time), both shapes keep every CPU busy.
syn::server::JobSpec syncircuit_jobs(int threads) {
  syn::server::JobSpec spec;
  spec.count = 8;
  spec.backend = kBackend;
  spec.batch = 2;
  spec.threads = threads;
  return spec;
}

}  // namespace

RunResult run_daemon(const RunOptions& options) {
  return run_served(options, {.fleet = false,
                              .clients = 3,
                              .spec = syncircuit_jobs(options.threads),
                              .poll = true});
}

RunResult run_fleet(const RunOptions& options) {
  return run_served(options,
                    {.fleet = true,
                     .clients = 2,
                     .spec = syncircuit_jobs(std::max(options.threads / 2, 1)),
                     .poll = false});
}

}  // namespace e2e
