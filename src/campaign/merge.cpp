#include "campaign/merge.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "util/json.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

util::JsonValue parse_json_file(const fs::path& path) {
  try {
    return util::parse_json(read_text(path));
  } catch (const util::JsonError& e) {
    throw util::JsonError(path.string() + ": " + e.what());
  }
}

/// One manifest.shard-i-of-N.json found under a shard directory.
struct ShardManifest {
  fs::path dir;
  fs::path path;
  ShardSpec shard;
  util::JsonValue doc;
};

/// Loads and validates the shard manifests of one directory (a directory
/// may hold several shards of the same spec).
std::vector<ShardManifest> load_shard_manifests(const fs::path& dir,
                                                const std::string& spec_hash) {
  std::vector<ShardManifest> found;
  for (const fs::path& path : find_shard_manifests(dir)) {
    ShardManifest m;
    m.dir = dir;
    m.path = path;
    m.doc = parse_json_file(path);
    try {
      const std::string format = m.doc.at("format").as_string();
      if (format != kShardManifestFormat) {
        throw SpecError(m.path.string() + ": not a shard manifest (format '" +
                        format + "', expected " + kShardManifestFormat + ")");
      }
      const std::string hash = m.doc.at("spec_hash").as_string();
      if (hash != spec_hash) {
        throw SpecError(m.path.string() + ": spec hash mismatch (" + hash +
                        " != " + spec_hash + " from the first shard's "
                        "spec.ini); shards must run the identical spec text");
      }
      m.shard.index = static_cast<std::size_t>(
          m.doc.at("shard_index").as_u64());
      m.shard.count = static_cast<std::size_t>(
          m.doc.at("shard_count").as_u64());
    } catch (const util::JsonError& e) {
      throw util::JsonError(m.path.string() + ": " + e.what());
    }
    if (m.shard.count < 2 || m.shard.index >= m.shard.count) {
      throw SpecError(m.path.string() + ": invalid shard " +
                      std::to_string(m.shard.index) + "/" +
                      std::to_string(m.shard.count));
    }
    found.push_back(std::move(m));
  }
  if (found.empty()) {
    throw SpecError(dir.string() +
                    ": no shard manifest (manifest.shard-i-of-N.json) — "
                    "shard still incomplete, or an unsharded run?");
  }
  return found;
}

/// Folds per-scenario wall-clock data from the shard timings files into
/// the outcomes; returns false (leaving outcomes untouched) when any shard
/// timings file is absent — timings sit outside the byte-identity
/// guarantee, so a missing one degrades, never fails, the merge.
bool fold_timings(const std::vector<ShardManifest>& shards,
                  std::vector<ScenarioOutcome>& outcomes) {
  std::map<std::string, const util::JsonValue*> by_id;
  std::vector<util::JsonValue> docs;
  docs.reserve(shards.size());
  for (const ShardManifest& m : shards) {
    const fs::path path = m.dir / timings_name(m.shard);
    if (!fs::exists(path)) return false;
    docs.push_back(parse_json_file(path));
  }
  for (const util::JsonValue& doc : docs) {
    for (const util::JsonValue& entry : doc.at("scenarios").array) {
      by_id.emplace(entry.at("id").as_string(), &entry);
    }
  }
  for (ScenarioOutcome& o : outcomes) {
    const auto it = by_id.find(o.scenario.id);
    if (it == by_id.end()) return false;
    const util::JsonValue& entry = *it->second;
    o.resumed = entry.at("resumed").as_bool();
    o.result.wall_seconds = entry.at("wall_seconds").as_double();
    o.result.threads_used = entry.at("threads").as_u64();
  }
  return true;
}

}  // namespace

MergeReport merge_shards(const MergeOptions& options) {
  if (options.shard_dirs.empty()) {
    throw SpecError("merge needs at least one shard directory");
  }
  if (options.out_dir.empty()) {
    throw SpecError("merge needs an output directory");
  }

  // The first directory's spec is the reference; every other directory
  // must carry byte-identical spec text (hash compare).
  const fs::path first_dir(options.shard_dirs.front());
  if (!fs::exists(first_dir / "spec.ini")) {
    throw SpecError(first_dir.string() +
                    ": no spec.ini (not a campaign output directory)");
  }
  const CampaignSpec spec =
      CampaignSpec::load_file((first_dir / "spec.ini").string());

  std::vector<ShardManifest> shards;
  for (const std::string& dir_name : options.shard_dirs) {
    const fs::path dir(dir_name);
    if (!fs::exists(dir / "spec.ini")) {
      throw SpecError(dir.string() +
                      ": no spec.ini (not a campaign output directory)");
    }
    const std::string hash = fnv1a_hex(read_text(dir / "spec.ini"));
    if (hash != spec.hash) {
      throw SpecError("spec hash mismatch: " + dir.string() + " has " +
                      hash + ", expected " + spec.hash + " (from " +
                      first_dir.string() + "); shards must run the "
                      "identical spec text");
    }
    for (ShardManifest& m : load_shard_manifests(dir, spec.hash)) {
      shards.push_back(std::move(m));
    }
  }

  // Disjoint and complete shard set under one N.
  const std::size_t count = shards.front().shard.count;
  std::vector<const ShardManifest*> by_index(count, nullptr);
  for (const ShardManifest& m : shards) {
    if (m.shard.count != count) {
      throw SpecError("shard count mismatch: " + m.path.string() +
                      " says N=" + std::to_string(m.shard.count) +
                      ", expected N=" + std::to_string(count) + " (from " +
                      shards.front().path.string() + ")");
    }
    if (by_index[m.shard.index] != nullptr) {
      throw SpecError("duplicate shard " + std::to_string(m.shard.index) +
                      "/" + std::to_string(count) + ": " +
                      by_index[m.shard.index]->path.string() + " and " +
                      m.path.string());
    }
    by_index[m.shard.index] = &m;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (by_index[i] == nullptr) {
      throw SpecError("incomplete shard set: missing shard " +
                      std::to_string(i) + " of " + std::to_string(count));
    }
  }

  // Reassemble the whole matrix in canonical expansion order.  Scenario
  // parameters come from the re-expanded spec — the shard manifests only
  // contribute results, so a merged manifest is a pure function of (spec
  // text, per-scenario results), exactly like a single-machine run.
  const std::vector<Scenario> matrix = spec.expand();
  std::map<std::string, std::size_t> index_by_id;
  for (const Scenario& s : matrix) index_by_id.emplace(s.id, s.index);

  std::vector<ScenarioOutcome> outcomes(matrix.size());
  std::vector<bool> filled(matrix.size(), false);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    outcomes[i].scenario = matrix[i];
  }

  for (const ShardManifest& m : shards) {
    try {
      for (const util::JsonValue& entry : m.doc.at("scenarios").array) {
        const std::string& id = entry.at("id").as_string();
        const auto it = index_by_id.find(id);
        if (it == index_by_id.end()) {
          throw SpecError(m.path.string() + ": unknown scenario '" + id +
                          "' (not in this spec's matrix)");
        }
        const std::size_t index = it->second;
        if (!m.shard.owns(index)) {
          throw SpecError(m.path.string() + ": scenario '" + id +
                          "' belongs to shard " +
                          std::to_string(index % count) + ", not shard " +
                          std::to_string(m.shard.index));
        }
        if (filled[index]) {
          throw SpecError(m.path.string() + ": duplicate scenario '" + id +
                          "'");
        }
        outcomes[index].result =
            scenario_result_from_json(entry.at("result"));
        filled[index] = true;
      }
    } catch (const util::JsonError& e) {
      throw util::JsonError(m.path.string() + ": " + e.what());
    }
  }
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    if (!filled[i]) {
      throw SpecError("shard " + std::to_string(i % count) + " (" +
                      by_index[i % count]->path.string() +
                      ") is missing scenario '" + matrix[i].id + "'");
    }
  }

  const fs::path out(options.out_dir);
  claim_output_dir(options.out_dir, spec);

  MergeReport report;
  report.shard_count = count;
  report.scenarios = matrix.size();
  report.timings_merged = fold_timings(shards, outcomes);
  write_manifest((out / manifest_name()).string(), spec, outcomes,
                 git_describe());
  write_summary_csv((out / "summary.csv").string(), outcomes);
  if (report.timings_merged) {
    write_timings((out / timings_name()).string(), outcomes);
  } else if (!options.quiet) {
    std::printf("merge: shard timings incomplete; skipping timings.json "
                "(outside the byte-identity guarantee)\n");
  }
  if (!options.quiet) {
    std::printf("merged %zu shards (%zu scenarios) -> %s/manifest.json\n",
                count, matrix.size(), options.out_dir.c_str());
  }
  return report;
}

}  // namespace emask::campaign
