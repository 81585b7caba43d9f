// Output checks run after every timed repetition. A run that fails one
// reports the failure instead of numbers.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace e2e {

struct DatasetCheck {
  bool ok = true;
  std::string error;  ///< first failure, with the directory and file
  std::size_t designs = 0;
  double pcs_sum = 0.0;
  double scpr_sum = 0.0;

  void merge(const DatasetCheck& other);
};

/// Checks one dataset directory: manifest.jsonl holds exactly `expected`
/// records with indices 0..expected-1, each record's .v file exists, and
/// every file parses back through rtl::from_verilog into a graph that
/// passes graph::is_valid. Sums the manifest's pcs and scpr.
[[nodiscard]] DatasetCheck check_dataset(const std::filesystem::path& dir,
                                         std::size_t expected);

/// check_dataset over many directories on `threads` threads.
[[nodiscard]] DatasetCheck check_datasets(
    const std::vector<std::filesystem::path>& dirs, std::size_t expected,
    int threads);

/// Compares two dataset directories byte for byte: the same regular files
/// under the same relative paths, ignoring the `.lock` file. Empty when
/// identical, else the first difference.
[[nodiscard]] std::string compare_datasets(const std::filesystem::path& a,
                                           const std::filesystem::path& b);

}  // namespace e2e
