// syn_coordinator: the fleet-level dataset-generation daemon.
//
//   syn_coordinator --socket=PATH --worker=ADDR [--worker=ADDR ...]
//                   [--tcp=PORT] [--node=NAME] [--jobs=N]
//                   [--hb-ms=T] [--hb-miss=K] [--connect-timeout-ms=T]
//                   [--max-attempts=N] [--max-queued=N] [--max-active=N]
//                   [--max-total-queued=N] [--quiet]
//
// Speaks the exact NDJSON grammar syn_daemon speaks (SUBMIT / STATUS /
// LIST / CANCEL / STREAM / METRICS / PING / SHUTDOWN, plus WORKERS for
// the fleet membership table), but instead of generating locally it
// shards each job's seed range across the registered syn_daemon workers
// and merges their outputs into a dataset byte-identical to a
// single-daemon run. Workers are addressed as host:port or unix socket
// paths; a heartbeat loop (--hb-ms interval, --hb-miss consecutive
// misses to evict) keeps the membership live, and a sub-range whose
// worker dies is re-dispatched to a surviving worker, resuming from the
// part checkpoint. Drive it with synctl --fleet. Runs until SHUTDOWN or
// SIGINT/SIGTERM. Jobs are bounded like a worker daemon's: beyond 64
// retained terminal jobs per client the oldest answer
// {"ok":false,"code":"expired"}. A malformed numeric value exits 1 with an
// error naming the flag.
#include <iostream>
#include <memory>
#include <string>

#include "fleet/coordinator.hpp"
#include "util/flags.hpp"

namespace {

int usage() {
  std::cerr << "usage: syn_coordinator --socket=PATH --worker=ADDR"
               " [--worker=ADDR ...]\n"
               "       [--tcp=PORT] [--node=NAME] [--jobs=N] [--hb-ms=T]"
               " [--hb-miss=K]\n"
               "       [--connect-timeout-ms=T] [--max-attempts=N]"
               " [--max-queued=N]\n"
               "       [--max-active=N] [--max-total-queued=N] [--quiet]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using syn::util::read_flag;
  syn::fleet::CoordinatorConfig config;
  config.log = &std::cout;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--socket=", 0) == 0) {
        config.socket_path = arg.substr(9);
      } else if (arg.rfind("--worker=", 0) == 0) {
        config.workers.push_back(arg.substr(9));
      } else if (arg.rfind("--node=", 0) == 0) {
        config.node_id = arg.substr(7);
      } else if (arg == "--quiet") {
        config.log = nullptr;
      } else if (!read_flag(arg, "--tcp", config.tcp_port, 0, 65535) &&
                 !read_flag(arg, "--jobs", config.max_concurrent, 1) &&
                 // 0 ms would re-probe every worker in a tight loop.
                 !read_flag(arg, "--hb-ms", config.hb_interval, 1) &&
                 !read_flag(arg, "--hb-miss", config.hb_miss_limit) &&
                 !read_flag(arg, "--connect-timeout-ms",
                            config.connect_timeout_ms) &&
                 !read_flag(arg, "--max-attempts", config.max_attempts) &&
                 !read_flag(arg, "--max-queued",
                            config.quotas.max_queued_per_client) &&
                 !read_flag(arg, "--max-active",
                            config.quotas.max_active_per_client) &&
                 !read_flag(arg, "--max-total-queued",
                            config.quotas.max_total_queued)) {
        return usage();
      }
    }
  } catch (const syn::util::FlagError& e) {
    std::cerr << "syn_coordinator: " << e.what() << "\n";
    return 1;
  }
  if (config.socket_path.empty() || config.workers.empty()) return usage();
  return syn::server::serve_main("syn_coordinator", [&] {
    return std::make_unique<syn::fleet::Coordinator>(config);
  });
}
