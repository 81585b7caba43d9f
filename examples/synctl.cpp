// synctl: command-line client for syn_daemon.
//
//   synctl --socket=PATH submit [count] [--backend=NAME] [--out=DIR]
//          [--seed=S] [--batch=K] [--threads=T] [--shard-size=N]
//          [--queue=N] [--fresh] [--no-synth-stats] [--client=NAME]
//          [--tail]
//   synctl --socket=PATH status JOB
//   synctl --socket=PATH list
//   synctl --socket=PATH cancel JOB
//   synctl --socket=PATH tail JOB [--filter=all|records|checkpoints]
//   synctl --socket=PATH metrics [--json] [--watch=MS [--limit=K]]
//   synctl --fleet=ADDR workers
//   synctl --socket=PATH bench [--clients=K] [--jobs=N] [--count=C]
//          [--backend=NAME] [--out=DIR] [--seed=S] [--batch=K]
//          [--threads=T] [--quiet]
//   synctl --socket=PATH ping
//   synctl --socket=PATH shutdown [--now]
//
// (--tcp=HOST:PORT connects over loopback TCP instead of the socket.
// --fleet=ADDR addresses a syn_coordinator — host:port, or a socket path
// when ADDR contains '/' or no ':' — and is interchangeable with the
// other two for every command; `workers` prints the coordinator's fleet
// membership table, one worker per line.)
//
// `metrics` prints the daemon's METRICS snapshot as scrape-friendly
// "syn_<section>_<name> <value>" lines (--json for the raw object).
// `metrics --watch=MS` rescrapes every MS milliseconds and prints only
// the metrics that CHANGED, with their per-second rates, largest change
// first (--limit=K rows per tick) — a live top-N of what the daemon is
// doing. Runs until interrupted.
// `bench` load-tests the daemon: K client threads submit N jobs total
// and stream them to completion, then a latency/throughput report
// prints; exit code 1 if any job failed.
//
// Responses and streamed events print as the raw protocol JSON, one
// object per line — greppable and pipeable to jq. Exit code: 0 on
// success; 1 on connection/daemon errors; for `tail` (and `submit
// --tail`) also 1 when the job ends failed or cancelled.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "server/bench.hpp"
#include "server/client.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

using syn::server::ClientConnection;
using syn::server::JobSpec;
using syn::server::StreamFilter;
using syn::util::Json;
using syn::util::parse_flag;
using syn::util::read_flag;

int usage() {
  std::cerr
      << "usage: synctl (--socket=PATH | --tcp=HOST:PORT | --fleet=ADDR)"
         " <command>\n"
         "  submit [count] [--backend=NAME] [--out=DIR] [--seed=S]\n"
         "         [--batch=K] [--threads=T] [--shard-size=N] [--queue=N]\n"
         "         [--fresh] [--no-synth-stats] [--client=NAME] [--tail]\n"
         "  status JOB | list | cancel JOB | ping | workers\n"
         "  tail JOB [--filter=all|records|checkpoints]\n"
         "  metrics [--json] [--watch=MS [--limit=K]]\n"
         "  bench [--clients=K] [--jobs=N] [--count=C] [--backend=NAME]\n"
         "        [--out=DIR] [--seed=S] [--batch=K] [--threads=T]"
         " [--quiet]\n"
         "  shutdown [--now]\n";
  return 1;
}

/// Streams a job's events to stdout; returns 0 iff it ended "done".
int tail_job(ClientConnection& conn, const std::string& id,
             StreamFilter filter = StreamFilter::kAll) {
  const std::string state = conn.stream(
      id, [](const Json& event) { std::cout << event.dump() << "\n"; },
      filter);
  return state == "done" ? 0 : 1;
}

int run(int argc, char** argv) {
  std::string socket;
  std::string tcp;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket = arg.substr(9);
    } else if (arg.rfind("--tcp=", 0) == 0) {
      tcp = arg.substr(6);
    } else if (arg.rfind("--fleet=", 0) == 0) {
      // Coordinator address: host:port, or a unix socket path when the
      // value contains '/' or no ':' (same rule syn_coordinator applies
      // to --worker). The protocol is identical either way.
      const std::string addr = arg.substr(8);
      if (addr.find('/') != std::string::npos ||
          addr.find(':') == std::string::npos) {
        socket = addr;
      } else {
        tcp = addr;
      }
    } else {
      args.push_back(arg);
    }
  }
  if ((socket.empty() && tcp.empty()) || args.empty()) return usage();

  std::string tcp_host;
  int tcp_port = 0;
  if (!tcp.empty()) {
    const auto colon = tcp.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("--tcp needs HOST:PORT");
    }
    tcp_host = tcp.substr(0, colon);
    tcp_port = parse_flag<int>("--tcp", tcp.substr(colon + 1), 1, 65535);
  }
  ClientConnection conn =
      tcp.empty() ? ClientConnection::connect_unix(socket)
                  : ClientConnection::connect_tcp(tcp_host, tcp_port);

  const std::string command = args[0];
  if (command == "submit") {
    JobSpec spec;
    spec.count = 5;
    std::string client;
    bool tail = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--backend=", 0) == 0) {
        spec.backend = arg.substr(10);
      } else if (arg.rfind("--out=", 0) == 0) {
        spec.out = arg.substr(6);
      } else if (arg == "--fresh") {
        spec.fresh = true;
      } else if (arg == "--no-synth-stats") {
        spec.synth_stats = false;
      } else if (arg.rfind("--client=", 0) == 0) {
        client = arg.substr(9);
      } else if (arg == "--tail") {
        tail = true;
      } else if (arg.rfind("--", 0) != 0) {
        spec.count = parse_flag<std::size_t>("count", arg);
      } else if (!read_flag(arg, "--seed", spec.seed) &&
                 !read_flag(arg, "--batch", spec.batch) &&
                 !read_flag(arg, "--threads", spec.threads) &&
                 !read_flag(arg, "--shard-size", spec.shard_size) &&
                 !read_flag(arg, "--queue", spec.queue)) {
        return usage();
      }
    }
    // The daemon resolves relative paths against ITS working directory;
    // make the submitted dir unambiguous.
    spec.out = std::filesystem::absolute(spec.out);
    const std::string id = conn.submit(spec, client);
    std::cout << id << "\n";
    return tail ? tail_job(conn, id) : 0;
  }

  if (command == "status" || command == "cancel" || command == "tail") {
    if (args.size() < 2) return usage();
    const std::string& id = args[1];
    if (command == "status") {
      if (args.size() != 2) return usage();
      std::cout << conn.status(id).dump() << "\n";
      return 0;
    }
    if (command == "cancel") {
      if (args.size() != 2) return usage();
      std::cout << conn.cancel(id).dump() << "\n";
      return 0;
    }
    StreamFilter filter = StreamFilter::kAll;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i].rfind("--filter=", 0) == 0) {
        filter = syn::server::stream_filter_from_string(args[i].substr(9));
      } else {
        return usage();
      }
    }
    return tail_job(conn, id, filter);
  }

  if (command == "metrics") {
    bool json = false;
    long watch_ms = 0;
    std::size_t limit = 0;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--json") {
        json = true;
      } else if (!read_flag(args[i], "--watch", watch_ms) &&
                 !read_flag(args[i], "--limit", limit)) {
        return usage();
      }
    }
    if (watch_ms <= 0) {
      const Json snapshot = conn.metrics();
      if (json) {
        std::cout << snapshot.dump() << "\n";
      } else {
        std::cout << syn::server::render_metrics_text(snapshot);
      }
      return 0;
    }
    // Delta mode: rescrape every watch_ms and print only what moved,
    // biggest mover first. The first scrape is the silent baseline.
    std::map<std::string, double> prev;
    for (const auto& [name, value] :
         syn::server::flatten_metrics(conn.metrics())) {
      prev[name] = value;
    }
    std::cout << "watching " << prev.size() << " metrics every " << watch_ms
              << " ms (changed values only; ctrl-c to stop)\n";
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(watch_ms));
      const auto flat = syn::server::flatten_metrics(conn.metrics());
      struct Change {
        std::string name;
        double value;
        double delta;
      };
      std::vector<Change> changes;
      for (const auto& [name, value] : flat) {
        const auto it = prev.find(name);
        const double delta = it == prev.end() ? value : value - it->second;
        if (delta != 0.0) changes.push_back({name, value, delta});
        prev[name] = value;
      }
      std::sort(changes.begin(), changes.end(),
                [](const Change& a, const Change& b) {
                  return std::abs(a.delta) > std::abs(b.delta);
                });
      if (limit > 0 && changes.size() > limit) changes.resize(limit);
      std::cout << "--- " << changes.size() << " changed\n";
      const double seconds = static_cast<double>(watch_ms) / 1000.0;
      for (const Change& c : changes) {
        std::cout << "syn_" << c.name << " " << c.value << " "
                  << (c.delta > 0 ? "+" : "") << c.delta << " ("
                  << c.delta / seconds << "/s)\n";
      }
      std::cout.flush();
    }
  }

  if (command == "workers") {
    const Json workers = conn.workers();  // named: the loop borrows it
    for (const Json& worker : workers.array()) {
      std::cout << worker.dump() << "\n";
    }
    return 0;
  }

  if (command == "bench") {
    syn::server::BenchOptions options;
    options.socket_path = socket;
    options.tcp_host = tcp_host;
    options.tcp_port = tcp_port;
    // Small, fast jobs by default — the point is daemon overhead, not
    // model throughput.
    options.spec.count = 4;
    options.spec.batch = 2;
    options.log = &std::cerr;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--backend=", 0) == 0) {
        options.spec.backend = arg.substr(10);
      } else if (arg.rfind("--out=", 0) == 0) {
        options.out_root = arg.substr(6);
      } else if (arg == "--quiet") {
        options.log = nullptr;
      } else if (!read_flag(arg, "--clients", options.clients) &&
                 !read_flag(arg, "--jobs", options.total_jobs) &&
                 !read_flag(arg, "--count", options.spec.count) &&
                 !read_flag(arg, "--seed", options.spec.seed) &&
                 !read_flag(arg, "--batch", options.spec.batch) &&
                 !read_flag(arg, "--threads", options.spec.threads)) {
        return usage();
      }
    }
    if (options.clients == 0 || options.total_jobs == 0) return usage();
    // Like submit: pin the output root to this process's cwd, not the
    // daemon's.
    options.out_root = std::filesystem::absolute(options.out_root);
    const syn::server::BenchReport report = syn::server::run_bench(options);
    std::cout << report.render() << "\n";
    return report.ok() ? 0 : 1;
  }

  if (command == "list") {
    const Json jobs = conn.list();  // named: the loop borrows its array
    for (const Json& job : jobs.array()) {
      std::cout << job.dump() << "\n";
    }
    return 0;
  }

  if (command == "ping") {
    syn::server::Request req;
    req.cmd = syn::server::Request::Cmd::kPing;
    std::cout << conn.request(req).dump() << "\n";
    return 0;
  }

  if (command == "shutdown") {
    const bool now = args.size() > 1 && args[1] == "--now";
    conn.shutdown(/*drain=*/!now);
    std::cout << "{\"ok\":true,\"shutdown\":\""
              << (now ? "cancelling" : "draining") << "\"}\n";
    return 0;
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "synctl: " << e.what() << "\n";
    return 1;
  }
}
