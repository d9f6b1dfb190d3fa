#include "report/model.hpp"

#include <algorithm>
#include <filesystem>

#include "util/argparse.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace emask::report {
namespace {

namespace fs = std::filesystem;

std::uint64_t hex_field(const util::JsonValue& doc, const char* key) {
  try {
    return util::ArgParser::parse_hex(doc.at(key).as_string(), key);
  } catch (const util::ArgError& e) {
    throw ReportError(e.what());
  }
}

/// Locates the manifest inside a campaign output directory: manifest.json
/// when present, else the directory's single per-shard manifest.
fs::path find_manifest(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    throw ReportError(dir.string() + ": not a directory");
  }
  const fs::path merged = dir / campaign::manifest_name();
  if (fs::exists(merged)) return merged;
  const std::vector<fs::path> shards = campaign::find_shard_manifests(dir);
  if (shards.empty()) {
    throw ReportError(dir.string() +
                      ": no manifest.json (campaign incomplete, or not a "
                      "campaign output directory?)");
  }
  if (shards.size() > 1) {
    throw ReportError(dir.string() + ": no manifest.json and " +
                      std::to_string(shards.size()) +
                      " shard manifests — run `emask-campaign merge` first");
  }
  return shards.front();
}

/// The roll-up's policy order (by_policy order when the manifest has a
/// rollup block, else order of first appearance) and the paper references
/// read back from its by_policy entries.
struct RollupInputs {
  std::vector<hiding::Countermeasure> policies;
  std::vector<std::pair<std::string, double>> references;
};

RollupInputs rollup_inputs(const util::JsonValue& doc,
                           const std::vector<ScenarioEntry>& scenarios) {
  RollupInputs in;
  const util::JsonValue* rollup = doc.find("rollup");
  const util::JsonValue* by_policy =
      rollup != nullptr ? rollup->find("by_policy") : nullptr;
  if (by_policy != nullptr) {
    for (const util::JsonValue& row : by_policy->array) {
      const std::string& name = row.at("policy").as_string();
      in.policies.push_back(campaign::policy_from_name(name));
      if (const util::JsonValue* ref = row.find("paper_uj")) {
        in.references.emplace_back(name, ref->as_double());
      }
    }
    return in;
  }
  for (const ScenarioEntry& e : scenarios) {
    if (std::find(in.policies.begin(), in.policies.end(),
                  e.scenario.policy) == in.policies.end()) {
      in.policies.push_back(e.scenario.policy);
    }
  }
  return in;
}

}  // namespace

Model Model::from_manifest(const std::string& manifest_text,
                           const std::string& manifest_name,
                           const std::string& dir) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(manifest_text);
  } catch (const util::JsonError& e) {
    throw util::JsonError(manifest_name + ": " + e.what());
  }

  Model model;
  model.manifest_name = manifest_name;
  const std::string format = doc.at("format").as_string();
  if (format == campaign::kShardManifestFormat) {
    model.sharded = true;
    model.shard_index = static_cast<std::size_t>(
        doc.at("shard_index").as_u64());
    model.shard_count = static_cast<std::size_t>(
        doc.at("shard_count").as_u64());
  } else if (format != campaign::kManifestFormat) {
    throw ReportError(manifest_name + ": unknown manifest format '" + format +
                      "' (expected " + campaign::kManifestFormat + " or " +
                      campaign::kShardManifestFormat + ")");
  }
  model.campaign = doc.at("campaign").as_string();
  model.spec_hash = doc.at("spec_hash").as_string();
  model.generator = doc.at("generator").as_string();

  const std::uint64_t key = hex_field(doc, "key");
  const std::uint64_t fixed_input = hex_field(doc, "fixed_input");
  const auto window_begin =
      static_cast<std::size_t>(doc.at("window_begin").as_u64());
  const auto window_end =
      static_cast<std::size_t>(doc.at("window_end").as_u64());

  const util::JsonValue& scenarios = doc.at("scenarios");
  for (std::size_t i = 0; i < scenarios.array.size(); ++i) {
    const util::JsonValue& row = scenarios.array[i];
    ScenarioEntry entry;
    campaign::Scenario& s = entry.scenario;
    s.index = i;
    s.id = row.at("id").as_string();
    s.cipher = campaign::cipher_from_name(row.at("cipher").as_string());
    s.policy = campaign::policy_from_name(row.at("policy").as_string());
    s.analysis = campaign::analysis_from_name(row.at("analysis").as_string());
    s.noise_sigma_pj = row.at("noise_sigma_pj").as_double();
    s.traces = static_cast<std::size_t>(row.at("traces").as_u64());
    // Optional (session scenarios only); absent in legacy manifests.
    if (const util::JsonValue* length = row.find("session_length")) {
      s.session_length = static_cast<std::size_t>(length->as_u64());
    }
    s.coupling_ff = row.at("coupling_ff").as_double();
    s.seed = hex_field(row, "seed");
    s.key = key;
    s.fixed_input = fixed_input;
    s.window_begin = window_begin;
    s.window_end = window_end;
    entry.result = campaign::scenario_result_from_json(row.at("result"));
    if (!entry.result.success) ++model.failed;

    entry.artifact_path =
        campaign::scenario_artifact_path(s.id, s.analysis);
    const fs::path artifact = fs::path(dir) / entry.artifact_path;
    if (fs::exists(artifact)) {
      entry.artifact = util::load_csv_file(artifact.string());
      entry.artifact_present = true;
    } else {
      ++model.missing_artifacts;
    }
    if (campaign::analysis_has_disclosure(s.analysis)) {
      const fs::path disclosure =
          fs::path(dir) / campaign::scenario_disclosure_path(s.id);
      if (fs::exists(disclosure)) {
        entry.disclosure = util::load_csv_file(disclosure.string());
        entry.disclosure_present = true;
      }
    }
    if (campaign::is_session_cipher(s.cipher)) {
      const fs::path blocks =
          fs::path(dir) / campaign::scenario_blocks_path(s.id);
      if (fs::exists(blocks)) {
        entry.blocks = util::load_csv_file(blocks.string());
        entry.blocks_present = true;
      }
      const fs::path session =
          fs::path(dir) / campaign::scenario_session_path(s.id);
      if (fs::exists(session)) {
        entry.session = util::load_csv_file(session.string());
        entry.session_present = true;
      }
    }
    model.scenarios.push_back(std::move(entry));
  }

  if (const util::JsonValue* count = doc.find("scenario_count")) {
    if (count->as_u64() != model.scenarios.size()) {
      throw ReportError(manifest_name + ": scenario_count says " +
                        std::to_string(count->as_u64()) + " but " +
                        std::to_string(model.scenarios.size()) +
                        " scenarios are listed");
    }
  }

  // Recompute the roll-up from the scenario results through the same
  // helper the manifest writer uses.
  const RollupInputs inputs = rollup_inputs(doc, model.scenarios);
  std::vector<campaign::ScenarioOutcome> outcomes;
  outcomes.reserve(model.scenarios.size());
  for (const ScenarioEntry& e : model.scenarios) {
    outcomes.push_back({e.scenario, e.result});
  }
  model.rollup =
      campaign::rollup_by_policy(inputs.policies, inputs.references, outcomes);
  return model;
}

Model Model::load(const std::string& dir) {
  const fs::path manifest = find_manifest(dir);
  return from_manifest(util::read_text_file(manifest.string()),
                       manifest.filename().string(), dir);
}

}  // namespace emask::report
