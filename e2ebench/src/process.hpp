// Child processes of the daemon and fleet workloads, and resident-set
// readings for peak_rss_mb.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

namespace e2e {

/// A spawned executable. Its stdout and stderr go to `log`. The
/// destructor stops it if it still runs, so no child outlives the harness.
class Child {
 public:
  Child(const std::filesystem::path& exe, const std::vector<std::string>& args,
        const std::filesystem::path& log);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Peak resident set (VmHWM) in MiB; 0 once the process has exited.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM (both daemons drain on it), wait up to `grace`, then
  /// SIGKILL; always reaps.
  void stop(std::chrono::milliseconds grace = std::chrono::seconds(10));

 private:
  pid_t pid_ = -1;
};

/// Peak resident set of the calling process in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Polls until a unix socket at `path` accepts connections; false after
/// `timeout`.
bool wait_for_socket(const std::filesystem::path& path,
                     std::chrono::milliseconds timeout);

}  // namespace e2e
