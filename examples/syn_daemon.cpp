// syn_daemon: the resident dataset-generation server.
//
//   syn_daemon --socket=PATH [--tcp=PORT] [--node=NAME] [--jobs=N] [--quiet]
//              [--max-queued=N] [--max-active=N] [--max-total-queued=N]
//              [--max-designs=N] [--max-out-bytes=B]
//              [--gc-retain=K] [--gc-ttl-ms=T]
//
// The --max-* flags are admission quotas (all default unlimited):
// per-client queue depth, per-client queued+running, global queue depth,
// designs per job, and bytes already in a job's output dir. Over-quota
// SUBMITs get {"ok":false,"code":"quota_exceeded"}. --gc-retain /
// --gc-ttl-ms bound terminal-job metadata: beyond K retained terminal
// jobs per client (or T ms of age) a job's record is evicted and STATUS
// answers {"ok":false,"code":"expired"}.
//
// Listens on a Unix-domain socket (plus optional loopback TCP) for
// newline-delimited JSON requests — SUBMIT / STATUS / LIST / CANCEL /
// STREAM / METRICS / PING / SHUTDOWN — and runs submitted dataset jobs
// through the
// same GenerationService + ShardedDiskSink pipeline as a local
// generate_dataset run: same sharded layout, same manifests, same
// checkpointed resume, byte-identical output. Drive it with synctl (or
// generate_dataset --daemon=PATH). Runs until a SHUTDOWN request or
// SIGINT/SIGTERM; both drain by default (SHUTDOWN can cancel instead).
// A malformed numeric value (non-numeric, signed, trailing text, overflow)
// exits 1 with an error naming the flag.
#include <iostream>
#include <memory>
#include <string>

#include "server/daemon.hpp"
#include "util/flags.hpp"

namespace {

int usage() {
  std::cerr << "usage: syn_daemon --socket=PATH [--tcp=PORT] [--jobs=N]"
               " [--quiet]\n"
               "       [--max-queued=N] [--max-active=N]"
               " [--max-total-queued=N]\n"
               "       [--max-designs=N] [--max-out-bytes=B]"
               " [--gc-retain=K] [--gc-ttl-ms=T]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using syn::util::read_flag;
  syn::server::DaemonConfig config;
  config.log = &std::cout;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--socket=", 0) == 0) {
        config.socket_path = arg.substr(9);
      } else if (arg.rfind("--node=", 0) == 0) {
        config.node_id = arg.substr(7);
      } else if (arg == "--quiet") {
        config.log = nullptr;
      } else if (!read_flag(arg, "--tcp", config.tcp_port, 0, 65535) &&
                 !read_flag(arg, "--jobs", config.max_concurrent, 1) &&
                 !read_flag(arg, "--max-queued",
                            config.quotas.max_queued_per_client) &&
                 !read_flag(arg, "--max-active",
                            config.quotas.max_active_per_client) &&
                 !read_flag(arg, "--max-total-queued",
                            config.quotas.max_total_queued) &&
                 !read_flag(arg, "--max-designs", config.max_designs_per_job) &&
                 !read_flag(arg, "--max-out-bytes", config.max_out_bytes) &&
                 !read_flag(arg, "--gc-retain", config.gc_retain) &&
                 !read_flag(arg, "--gc-ttl-ms", config.gc_ttl)) {
        return usage();
      }
    }
  } catch (const syn::util::FlagError& e) {
    std::cerr << "syn_daemon: " << e.what() << "\n";
    return 1;
  }
  if (config.socket_path.empty()) return usage();
  return syn::server::serve_main("syn_daemon", [&] {
    return std::make_unique<syn::server::Daemon>(config);
  });
}
