#include "process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <thread>

#include "server/client.hpp"

extern char** environ;

namespace e2e {

Child::Child(const std::filesystem::path& exe,
             const std::vector<std::string>& args,
             const std::filesystem::path& log) {
  std::vector<std::string> argv_store{exe.string()};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + exe.string());
  }
}

Child::~Child() { stop(std::chrono::seconds(5)); }

double Child::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void Child::stop(std::chrono::milliseconds grace) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + grace;
  bool exited = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  pid_ = -1;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool wait_for_socket(const std::filesystem::path& path,
                     std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      auto conn = syn::server::ClientConnection::connect_unix(path, 200);
      return true;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return false;
}

}  // namespace e2e
