#include "service/dataset_sink.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "rtl/verilog.hpp"
#include "service/dataset_format.hpp"

namespace syn::service {

namespace {

/// Takes the advisory lock at `path`: our pid is written to a private
/// temp file which is then link(2)ed into place — atomic, so the lock is
/// never observable without its pid (a created-then-written lock would
/// open a window where a racer reads an empty file and "breaks" a live
/// lock). When the link fails with EEXIST, the pid inside the existing
/// lock decides: a live process means the dir is genuinely in use (throw
/// — the fail-fast that stops two jobs interleaving one dir); a dead or
/// unparsable pid is a stale lock from a crashed run and is broken. One
/// retry after breaking a stale lock; losing that race throws.
void acquire_lockfile(const std::filesystem::path& path);

}  // namespace

DirLock::DirLock(std::filesystem::path dir) : dir_(std::move(dir)) {
  acquire_lockfile(dir_ / ".lock");
  held_ = true;
}

DirLock::~DirLock() { release(); }

DirLock::DirLock(DirLock&& other) noexcept
    : dir_(std::move(other.dir_)), held_(other.held_) {
  other.held_ = false;
}

DirLock& DirLock::operator=(DirLock&& other) noexcept {
  if (this != &other) {
    release();
    dir_ = std::move(other.dir_);
    held_ = other.held_;
    other.held_ = false;
  }
  return *this;
}

void DirLock::release() {
  if (!held_) return;
  held_ = false;
  std::error_code ignored;
  std::filesystem::remove(dir_ / ".lock", ignored);
}

namespace {

void acquire_lockfile(const std::filesystem::path& path) {
  // Unique per acquisition, not just per process: two daemon jobs in one
  // process racing the same dir must not share (and mutually delete) a
  // temp file.
  static std::atomic<unsigned> acquisition{0};
  const std::filesystem::path tmp =
      path.parent_path() /
      (".lock.tmp." + std::to_string(::getpid()) + "." +
       std::to_string(acquisition.fetch_add(1)));
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << ::getpid() << "\n";
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error("DirLock: failed to write lockfile " +
                               tmp.generic_string());
    }
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (::link(tmp.c_str(), path.c_str()) == 0) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      return;
    }
    if (errno != EEXIST) {
      const std::string reason = std::strerror(errno);
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error("DirLock: cannot create lockfile " +
                               path.generic_string() + ": " + reason);
    }
    long long owner = 0;
    {
      std::ifstream in(path);
      in >> owner;
    }
    // kill(pid, 0) probes liveness; EPERM still means "alive". Our own
    // pid is always alive — a second sink in this process must fail too.
    const bool alive =
        owner > 0 && (::kill(static_cast<pid_t>(owner), 0) == 0 ||
                      errno == EPERM);
    if (alive) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error(
          "DirLock: output dir " +
          path.parent_path().generic_string() +
          " is locked by running process " + std::to_string(owner) +
          " (" + path.filename().generic_string() +
          "); another job is writing this dataset — pick a different dir "
          "or wait for it to finish");
    }
    std::error_code ignored;
    std::filesystem::remove(path, ignored);  // stale: owner is gone
  }
  std::error_code ignored;
  std::filesystem::remove(tmp, ignored);
  throw std::runtime_error("DirLock: lost lockfile race for " +
                           path.generic_string());
}

}  // namespace

ShardedDiskSink::ShardedDiskSink(Options options)
    : options_(std::move(options)) {
  std::filesystem::create_directories(options_.dir);
  lock_ = DirLock(options_.dir);
  if (options_.fresh) {
    // Discard BOTH files up front: a stale checkpoint surviving a crashed
    // fresh run would make the next invocation believe the (discarded)
    // dataset is complete.
    remove_progress_files(options_.dir);
    return;
  }
  ResumeState state =
      read_resume_state(options_.dir, options_.seed, options_.shard_size);
  resume_ = state.next;
  resume_note_ = std::move(state.note);
  if (options_.log && !resume_note_.empty()) {
    *options_.log << resume_note_ << "\n";
  }
  // Prune manifest records the coming run will regenerate: replays of the
  // partially-committed last group on resume, or — when the checkpoint
  // was ignored (resume_ == 0) — the whole stale manifest.
  if (state.prune) {
    write_manifest_file(options_.dir, state.manifest);
  }
}

ShardedDiskSink::~ShardedDiskSink() = default;

std::filesystem::path ShardedDiskSink::shard_dir(std::size_t index) const {
  return shard_path(index, options_.shard_size);
}

void ShardedDiskSink::write(const DesignRecord& record) {
  const ManifestRecord entry = make_manifest_record(
      record, options_.shard_size, options_.with_synth_stats);
  const std::filesystem::path path = options_.dir / entry.file;
  std::filesystem::create_directories(path.parent_path());
  {
    std::ofstream design(path);
    design << rtl::to_verilog(record.graph);
    design.flush();
    if (!design) {
      throw std::runtime_error("ShardedDiskSink: failed to write " +
                               path.generic_string());
    }
  }
  last_record_ = encode_manifest_record(entry);
  append_manifest_line(options_.dir, dump_manifest_json(last_record_));
  if (options_.log == nullptr) return;
  *options_.log << path.generic_string() << ": " << entry.nodes << " nodes, ";
  if (entry.synth) {
    *options_.log << entry.synth->gates << " gates, SCPR "
                  << static_cast<int>(entry.synth->scpr * 100) << "%\n";
  } else {
    *options_.log << entry.edges << " edges\n";
  }
}

void ShardedDiskSink::checkpoint(std::size_t next) {
  // A checkpoint that fails to land must abort the run (it throws):
  // advancing past unwritten state would make a later resume silently
  // skip designs.
  write_checkpoint_file(options_.dir,
                        {options_.seed, options_.shard_size, next});
}

void ShardedDiskSink::finalize(const DatasetSummary& summary) {
  write_summary_file(options_.dir, summary, options_.shard_size);
}

void MemorySink::write(const DesignRecord& record) {
  records_.push_back(record);
}

}  // namespace syn::service
