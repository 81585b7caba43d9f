// e2ebench: one run of one workload of the end-to-end dataset-production
// benchmark. Normally started by run.py, which builds it and filters the
// result down to the metrics BENCHMARK.json lists:
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --bin-dir DIR --work-dir DIR [--commit ID]
//
// Prints a context line, note lines ("# ..."), and as the last line one
// JSON object: correct, attempted, failed, error, metrics. Exit code 0
// when the run completed and every output check passed, 1 otherwise,
// 2 on bad arguments, 3 when the build may not record (non-Release or
// sanitizer).
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "nn/simd.hpp"
#include "util/json.hpp"

namespace {

using e2e::RunOptions;
using e2e::RunResult;

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

std::string quoted(const std::string& s) { return syn::util::Json(s).dump(); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string context_line(const std::string& commit, int threads) {
  const char* override_level = std::getenv("SYN_SIMD_LEVEL");
  return std::string("{\"context\":{\"cpu\":") + quoted(cpu_model()) +
         ",\"nproc\":" + std::to_string(threads) +
         ",\"simd_level\":" + quoted(syn::nn::active_simd_level_name()) +
         ",\"simd_override\":" +
         quoted(override_level != nullptr ? override_level : "") +
         ",\"commit\":" + quoted(commit) +
         ",\"build_type\":" + quoted(E2E_BUILD_TYPE) +
         ",\"sanitize\":" + quoted(E2E_SANITIZE) +
         ",\"compiler\":" + quoted(E2E_COMPILER) + "}}";
}

std::string result_line(const RunResult& r) {
  std::string out = std::string("{\"correct\":") +
                    (r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"error\":" + quoted(r.error) + ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const e2e::Metric& m = r.metrics[i];
    out += (i == 0 ? "" : ",") + quoted(m.name) + ":{\"value\":" +
           number(m.value) + ",\"unit\":" + quoted(m.unit) + "}";
  }
  return out + "}}";
}

int usage() {
  std::cerr << "usage: e2ebench --workload NAME --seed N --seconds S"
               " --trace 0|1 --bin-dir DIR --work-dir DIR [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = std::filesystem::absolute(value);
    } else if (flag == "--work-dir") {
      options.work_dir = std::filesystem::absolute(value);
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0.0) {
    return usage();
  }
  const std::string build_type = E2E_BUILD_TYPE;
  const std::string sanitize = E2E_SANITIZE;
  if (build_type != "Release" || (sanitize != "OFF" && !sanitize.empty())) {
    std::cerr << "e2ebench: refusing to record from a " << build_type
              << " build (sanitize=" << sanitize << "); use Release\n";
    return 3;
  }
  options.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::signal(SIGPIPE, SIG_IGN);
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::current_path(options.work_dir);

  std::cout << context_line(commit, options.threads) << "\n";
  RunResult result;
  try {
    if (options.workload == "cli-syncircuit") {
      result = e2e::run_cli(options, "syncircuit");
    } else if (options.workload == "cli-graphrnn") {
      result = e2e::run_cli(options, "graphrnn");
    } else if (options.workload == "daemon-syncircuit") {
      result = e2e::run_daemon(options);
    } else if (options.workload == "fleet-syncircuit") {
      result = e2e::run_fleet(options);
    } else {
      std::cerr << "unknown workload " << options.workload << "\n";
      return usage();
    }
  } catch (const std::exception& e) {
    result.fail(e.what());
  }
  for (e2e::Metric& m : result.metrics) {
    if (std::isfinite(m.value)) continue;
    result.fail("metric " + m.name + " is not finite");
    m.value = 0.0;
  }
  if (result.attempted == 0) result.fail("no operation attempted");
  for (const std::string& note : result.notes) std::cout << "# " << note << "\n";
  std::cout << result_line(result) << std::endl;
  return result.correct ? 0 : 1;
}
