#include "service/dataset_merge.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "service/dataset_format.hpp"

namespace syn::service {

namespace {

[[noreturn]] void merge_fail(const std::filesystem::path& dir,
                             const std::string& what) {
  throw std::runtime_error("merge_dataset_parts(" + dir.generic_string() +
                           "): " + what);
}

/// rename(2) with a copy+remove fallback for cross-device moves (parts
/// normally live under the final dir, but the layout is not enforced).
void move_file(const std::filesystem::path& from,
               const std::filesystem::path& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (!ec) return;
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing);
  std::filesystem::remove(from);
}

}  // namespace

std::size_t merge_dataset_parts(const std::filesystem::path& dir,
                                std::vector<DatasetPart> parts,
                                std::uint64_t seed, std::size_t shard_size,
                                const DatasetSummary& summary) {
  std::sort(parts.begin(), parts.end(),
            [](const DatasetPart& a, const DatasetPart& b) {
              return a.lo < b.lo;
            });
  for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
    if (parts[p].hi != parts[p + 1].lo) {
      merge_fail(dir, "parts do not tile a contiguous range (" +
                          std::to_string(parts[p].hi) + " vs " +
                          std::to_string(parts[p + 1].lo) + ")");
    }
  }

  std::filesystem::create_directories(dir);
  const DirLock lock(dir);

  // Validate every part before touching the final dir: a short or
  // out-of-order part manifest aborts the merge with everything intact.
  std::string manifest;
  std::vector<std::pair<std::filesystem::path, std::string>> moves;
  std::size_t records = 0;
  for (const DatasetPart& part : parts) {
    const auto lines = read_manifest_lines(part.dir);
    if (!lines) {
      merge_fail(dir, "part " + part.dir.generic_string() +
                          " has no manifest");
    }
    std::size_t expect = part.lo;
    std::size_t line_no = 0;
    for (const std::string& line : *lines) {
      ++line_no;
      if (line.empty()) continue;
      ManifestRecord record;
      try {
        record = decode_manifest_record(line);
      } catch (const DatasetFormatError& e) {
        merge_fail(dir, "part " + part.dir.generic_string() +
                            " manifest line " + std::to_string(line_no) +
                            ": " + e.what());
      }
      if (record.index != expect) {
        merge_fail(dir, "part " + part.dir.generic_string() +
                            " record index " + std::to_string(record.index) +
                            " (expected " + std::to_string(expect) + ")");
      }
      if (!std::filesystem::exists(part.dir / record.file)) {
        merge_fail(dir, "part " + part.dir.generic_string() + " is missing " +
                            record.file);
      }
      manifest += line + "\n";
      moves.emplace_back(part.dir, std::move(record.file));
      ++expect;
      ++records;
    }
    if (expect != part.hi) {
      merge_fail(dir, "part " + part.dir.generic_string() + " ends at " +
                          std::to_string(expect) + " (expected " +
                          std::to_string(part.hi) + ")");
    }
  }

  for (const auto& [part_dir, file] : moves) {
    const std::filesystem::path to = dir / file;
    std::filesystem::create_directories(to.parent_path());
    move_file(part_dir / file, to);
  }

  // The final checkpoint covers the full merged range, so a later
  // resubmit (or count extension) resumes exactly as after a
  // single-daemon run.
  write_manifest_file(dir, manifest);
  write_checkpoint_file(
      dir, {seed, shard_size, parts.empty() ? 0 : parts.back().hi});
  write_summary_file(dir, summary, shard_size);

  for (const DatasetPart& part : parts) {
    std::error_code ignored;
    std::filesystem::remove_all(part.dir, ignored);
  }
  return records;
}

}  // namespace syn::service
