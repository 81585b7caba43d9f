#include "checks.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/validity.hpp"
#include "rtl/verilog.hpp"
#include "util/json.hpp"

namespace e2e {
namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

DatasetCheck fail(const fs::path& where, const std::string& what) {
  DatasetCheck c;
  c.ok = false;
  c.error = where.string() + ": " + what;
  return c;
}

/// Relative path -> contents of every regular file under `root`.
std::map<std::string, std::string> snapshot(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().filename() == ".lock") {
      continue;
    }
    files[fs::relative(entry.path(), root).generic_string()] =
        read_file(entry.path());
  }
  return files;
}

}  // namespace

void DatasetCheck::merge(const DatasetCheck& other) {
  if (ok && !other.ok) {
    ok = false;
    error = other.error;
  }
  designs += other.designs;
  pcs_sum += other.pcs_sum;
  scpr_sum += other.scpr_sum;
}

DatasetCheck check_dataset(const fs::path& dir, std::size_t expected) {
  std::ifstream manifest(dir / "manifest.jsonl");
  if (!manifest) return fail(dir, "no manifest.jsonl");
  DatasetCheck c;
  std::vector<bool> seen(expected, false);
  std::string line;
  while (std::getline(manifest, line)) {
    try {
      const syn::util::Json record = syn::util::Json::parse(line);
      const std::uint64_t index = record.at("index").u64();
      if (index >= expected || seen[index]) {
        return fail(dir, "unexpected or repeated index " +
                             std::to_string(index));
      }
      seen[index] = true;
      const fs::path file = dir / record.at("file").str();
      if (!fs::is_regular_file(file)) return fail(file, "missing");
      const syn::graph::Graph g = syn::rtl::from_verilog(read_file(file));
      if (!syn::graph::is_valid(g)) return fail(file, "not a valid circuit");
      c.pcs_sum += record.at("pcs").number();
      c.scpr_sum += record.at("scpr").number();
      ++c.designs;
    } catch (const std::exception& e) {
      return fail(dir, std::string("bad record: ") + e.what());
    }
  }
  if (c.designs != expected) {
    return fail(dir, "manifest holds " + std::to_string(c.designs) +
                         " designs, " + std::to_string(expected) +
                         " requested");
  }
  return c;
}

DatasetCheck check_datasets(const std::vector<fs::path>& dirs,
                            std::size_t expected, int threads) {
  std::vector<DatasetCheck> results(dirs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < dirs.size(); i = next++) {
      results[i] = check_dataset(dirs[i], expected);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(threads, 1); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  DatasetCheck total;
  for (const DatasetCheck& r : results) total.merge(r);
  return total;
}

std::string compare_datasets(const fs::path& a, const fs::path& b) {
  const auto fa = snapshot(a);
  const auto fb = snapshot(b);
  for (const auto& [name, bytes] : fa) {
    const auto it = fb.find(name);
    if (it == fb.end()) return name + " missing from " + b.string();
    if (it->second != bytes) return name + " differs from " + b.string();
  }
  for (const auto& [name, bytes] : fb) {
    if (!fa.contains(name)) return name + " missing from " + a.string();
  }
  return {};
}

}  // namespace e2e
