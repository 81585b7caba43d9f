#include "service/dataset_format.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>
#include <utility>
#include <vector>

#include "synth/synthesizer.hpp"
#include "util/flags.hpp"

namespace syn::service {

using util::Json;

namespace {

constexpr const char* kManifest = "manifest.jsonl";
constexpr const char* kCheckpoint = "checkpoint.txt";
constexpr const char* kSummary = "manifest.json";

/// Significant digits of every double in a manifest: what the manifests
/// were first written with (ostream's default precision).
constexpr int kManifestDigits = 6;

[[noreturn]] void format_fail(const std::filesystem::path& path,
                              const std::string& what) {
  throw DatasetFormatError(path.generic_string() + ": " + what);
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path.generic_string());
  }
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Newline-terminated lines of `text`, newlines stripped. An unterminated
/// tail is a torn append (a crash mid-write) and is left out.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t end; (end = text.find('\n', start)) != std::string::npos;
       start = end + 1) {
    lines.push_back(text.substr(start, end - start));
  }
  return lines;
}

/// A design path must stay inside the dataset dir: relative, no "..".
bool inside_dataset(const std::filesystem::path& file) {
  if (file.empty() || file.is_absolute()) return false;
  for (const auto& part : file) {
    if (part == "..") return false;
  }
  return true;
}

/// Replaces `path` with `contents` through a sibling temp file and
/// rename(2): readers and crashes see the old file or the new one.
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view contents) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw std::runtime_error("failed to write " + tmp.generic_string());
    }
  }
  std::filesystem::rename(tmp, path);
}

/// DIR/checkpoint.txt; nullopt when it does not exist.
std::optional<DatasetCheckpoint> read_checkpoint_file(
    const std::filesystem::path& dir) {
  const auto path = dir / kCheckpoint;
  if (!std::filesystem::exists(path)) return std::nullopt;
  std::istringstream in(read_text(path));
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> shard_size;
  std::optional<std::uint64_t> next;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      format_fail(path, "line \"" + line + "\" is not key=value");
    }
    const std::string key = line.substr(0, eq);
    std::optional<std::uint64_t>* slot = key == "seed"         ? &seed
                                         : key == "shard_size" ? &shard_size
                                         : key == "next"       ? &next
                                                               : nullptr;
    if (slot == nullptr) format_fail(path, "unknown key \"" + key + "\"");
    if (slot->has_value()) format_fail(path, "duplicate key \"" + key + "\"");
    try {
      *slot = util::parse_flag_u64(key, line.substr(eq + 1), 0,
                                   std::numeric_limits<std::size_t>::max());
    } catch (const util::FlagError& e) {
      format_fail(path, e.what());
    }
  }
  if (!seed || !next) format_fail(path, "needs both seed= and next=");
  // Checkpoints from before sharding carry no shard_size line and
  // describe the flat layout they produced.
  return DatasetCheckpoint{*seed,
                           static_cast<std::size_t>(shard_size.value_or(0)),
                           static_cast<std::size_t>(*next)};
}

}  // namespace

std::filesystem::path shard_path(std::size_t index, std::size_t shard_size) {
  if (shard_size == 0) return {};
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%04zu", index / shard_size);
  return name;
}

ManifestRecord make_manifest_record(const DesignRecord& design,
                                    std::size_t shard_size,
                                    bool with_synth_stats) {
  const graph::Graph& g = design.graph;
  ManifestRecord record;
  record.index = design.index;
  record.file =
      (shard_path(design.index, shard_size) / (g.name() + ".v"))
          .generic_string();
  record.chain_seed = design.chain_seed;
  record.nodes = g.num_nodes();
  record.edges = g.num_edges();
  if (with_synth_stats) {
    const auto stats = synth::synthesize_stats(g);
    record.synth = ManifestRecord::Synth{stats.gates_final, stats.scpr(),
                                         stats.pcs()};
  }
  return record;
}

Json encode_manifest_record(const ManifestRecord& record) {
  Json json;
  json.set("index", record.index);
  json.set("file", record.file);
  json.set("chain_seed", record.chain_seed);
  json.set("nodes", record.nodes);
  json.set("edges", record.edges);
  if (record.synth) {
    json.set("gates", record.synth->gates);
    json.set("scpr", record.synth->scpr);
    json.set("pcs", record.synth->pcs);
  }
  return json;
}

std::string dump_manifest_json(const Json& value) {
  return value.dump(kManifestDigits);
}

ManifestRecord decode_manifest_record(std::string_view line) {
  try {
    const Json json = Json::parse(line);
    if (!json.is_object()) throw DatasetFormatError("record is not an object");
    ManifestRecord record;
    record.index = json.at("index").u64();
    record.file = json.at("file").str();
    if (!inside_dataset(record.file)) {
      throw DatasetFormatError("file \"" + record.file +
                               "\" is not a path inside the dataset");
    }
    record.chain_seed = json.at("chain_seed").u64();
    record.nodes = json.at("nodes").u64();
    record.edges = json.at("edges").u64();
    if (json.find("gates") != nullptr) {
      record.synth = ManifestRecord::Synth{json.at("gates").u64(),
                                           json.at("scpr").number(),
                                           json.at("pcs").number()};
    }
    return record;
  } catch (const util::JsonError& e) {
    throw DatasetFormatError(e.what());
  }
}

void append_manifest_line(const std::filesystem::path& dir,
                          const std::string& line) {
  std::ofstream manifest(dir / kManifest, std::ios::app);
  manifest << line << '\n';
  manifest.flush();
  if (!manifest) {
    throw std::runtime_error("failed to append a record to " +
                             (dir / kManifest).generic_string());
  }
}

std::optional<std::vector<std::string>> read_manifest_lines(
    const std::filesystem::path& dir) {
  const auto path = dir / kManifest;
  if (!std::filesystem::exists(path)) return std::nullopt;
  return split_lines(read_text(path));
}

void write_manifest_file(const std::filesystem::path& dir,
                         std::string_view lines) {
  write_file_atomic(dir / kManifest, lines);
}

void write_checkpoint_file(const std::filesystem::path& dir,
                           const DatasetCheckpoint& checkpoint) {
  write_file_atomic(dir / kCheckpoint,
                    "seed=" + std::to_string(checkpoint.seed) +
                        "\nshard_size=" +
                        std::to_string(checkpoint.shard_size) + "\nnext=" +
                        std::to_string(checkpoint.next) + "\n");
}

void write_summary_file(const std::filesystem::path& dir,
                        const DatasetSummary& summary,
                        std::size_t shard_size) {
  Json json;
  json.set("generator", summary.generator);
  json.set("seed", summary.seed);
  json.set("count", summary.count);
  json.set("batch", summary.batch);
  json.set("threads", summary.threads);
  json.set("shard_size", shard_size);
  json.set("designs", kManifest);
  write_file_atomic(dir / kSummary, dump_manifest_json(json) + "\n");
}

std::optional<DatasetSummary> read_summary_file(
    const std::filesystem::path& dir) {
  const auto path = dir / kSummary;
  if (!std::filesystem::exists(path)) return std::nullopt;
  try {
    const Json json = Json::parse(read_text(path));
    DatasetSummary summary;
    summary.generator = json.at("generator").str();
    summary.seed = json.at("seed").u64();
    summary.count = json.at("count").u64();
    summary.batch = json.at("batch").u64();
    summary.threads = static_cast<int>(json.at("threads").i64());
    return summary;
  } catch (const util::JsonError& e) {
    format_fail(path, e.what());
  }
}

void remove_progress_files(const std::filesystem::path& dir) {
  std::filesystem::remove(dir / kManifest);
  std::filesystem::remove(dir / kCheckpoint);
}

ResumeState read_resume_state(const std::filesystem::path& dir,
                              std::uint64_t seed, std::size_t shard_size) {
  ResumeState state;
  if (const auto checkpoint = read_checkpoint_file(dir)) {
    if (checkpoint->seed != seed) {
      state.note = "checkpoint seed " + std::to_string(checkpoint->seed) +
                   " != seed " + std::to_string(seed) +
                   "; ignoring checkpoint";
    } else if (checkpoint->shard_size != shard_size) {
      state.note = "checkpoint shard_size " +
                   std::to_string(checkpoint->shard_size) +
                   " != shard_size " + std::to_string(shard_size) +
                   "; ignoring checkpoint";
    } else {
      state.next = checkpoint->next;
    }
  }

  const auto manifest_path = dir / kManifest;
  if (!std::filesystem::exists(manifest_path)) {
    if (state.next > 0) {
      state.note = "checkpoint next=" + std::to_string(state.next) +
                   " but " + kManifest + " is missing; resuming at 0";
      state.next = 0;
    }
    return state;
  }
  // Keep the longest verified prefix below next: records contiguous from
  // the first one, each with its design file present.
  const std::string text = read_text(manifest_path);
  const std::vector<std::string> lines = split_lines(text);
  std::optional<std::size_t> expect;
  std::string gap;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    const std::string where =
        std::string(kManifest) + " line " + std::to_string(i + 1);
    ManifestRecord record;
    try {
      record = decode_manifest_record(line);
    } catch (const DatasetFormatError& e) {
      gap = where + " is unreadable (" + e.what() + ")";
      break;
    }
    if (expect && record.index != *expect) {
      gap = where + " holds index " + std::to_string(record.index) +
            ", expected " + std::to_string(*expect);
      break;
    }
    if (record.index >= state.next) break;  // replayed by the coming run
    if (!std::filesystem::exists(dir / record.file)) {
      gap = "design file " + record.file + " is missing";
      expect = record.index;
      break;
    }
    state.manifest += line;
    state.manifest += '\n';
    expect = record.index + 1;
  }
  state.prune = state.manifest != text;
  const std::size_t verified = expect.value_or(0);
  if (verified < state.next) {
    if (gap.empty()) {
      gap = expect ? std::string(kManifest) + " stops at index " +
                         std::to_string(verified)
                   : std::string(kManifest) + " holds no records";
    }
    state.note = "checkpoint next=" + std::to_string(state.next) + " but " +
                 gap + "; resuming at " + std::to_string(verified);
    state.next = verified;
  }
  return state;
}

}  // namespace syn::service
