#include "campaign/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;
using util::JsonWriter;

std::string hex_u64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::vector<PolicyRollup> rollup_by_policy(
    const std::vector<hiding::Countermeasure>& policies,
    const std::vector<std::pair<std::string, double>>& references,
    const std::vector<ScenarioOutcome>& outcomes) {
  const bool any_energy =
      std::any_of(outcomes.begin(), outcomes.end(), [](const auto& o) {
        return o.scenario.analysis == Analysis::kEnergy;
      });
  std::vector<PolicyRollup> rollups;
  for (const hiding::Countermeasure& policy : policies) {
    PolicyRollup r;
    r.policy = policy;
    double sum = 0.0;
    for (const ScenarioOutcome& o : outcomes) {
      if (o.scenario.policy != policy) continue;
      if (any_energy && o.scenario.analysis != Analysis::kEnergy) continue;
      sum += o.result.mean_uj();
      ++r.scenarios;
    }
    if (r.scenarios > 0) sum /= static_cast<double>(r.scenarios);
    r.mean_uj = sum;
    const auto ref = std::find_if(
        references.begin(), references.end(),
        [&](const auto& entry) { return entry.first == policy.name(); });
    r.has_reference = ref != references.end();
    if (r.has_reference) r.paper_uj = ref->second;
    rollups.push_back(r);
  }
  if (rollups.empty()) return rollups;
  const PolicyRollup base = rollups.front();
  const bool on_paper_scale = base.has_reference && base.paper_uj > 0.0;
  for (PolicyRollup& r : rollups) {
    // A zero baseline (no energy data for the first policy, or a NaN mean
    // poisoning it) leaves the ratio undefined.
    if (base.mean_uj > 0.0) r.ratio = r.mean_uj / base.mean_uj;
    r.on_paper_scale = on_paper_scale;
    if (!on_paper_scale) continue;
    if (r.has_reference) r.paper_ratio = r.paper_uj / base.paper_uj;
    r.normalized_uj = r.ratio * base.paper_uj;
  }
  return rollups;
}

std::string_view analysis_artifact(Analysis a) {
  switch (a) {
    case Analysis::kEnergy: return "breakdown.csv";
    case Analysis::kDpa:
    case Analysis::kCpa:
    case Analysis::kSecondOrder: return "guesses.csv";
    case Analysis::kTvla: return "t_per_cycle.csv";
    case Analysis::kMlpa:
    case Analysis::kCollision: return "disclosure.csv";
  }
  return "?";
}

bool analysis_has_disclosure(Analysis a) {
  switch (a) {
    case Analysis::kDpa:
    case Analysis::kCpa:
    case Analysis::kMlpa:
    case Analysis::kCollision: return true;
    default: return false;
  }
}

std::string scenario_disclosure_path(const std::string& id) {
  return "scenarios/" + id + "/disclosure.csv";
}

std::string scenario_artifact_path(const std::string& id, Analysis a) {
  return "scenarios/" + id + "/" + std::string(analysis_artifact(a));
}

std::string scenario_blocks_path(const std::string& id) {
  return "scenarios/" + id + "/blocks.csv";
}

std::string scenario_session_path(const std::string& id) {
  return "scenarios/" + id + "/session.csv";
}

void save_checkpoint(const std::string& path, const Scenario& scenario,
                     const ScenarioResult& result,
                     const std::string& guard_hash) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out = util::open_for_write(tmp);
    JsonWriter j(out);
    j.begin_object();
    j.key("id");
    j.value(scenario.id);
    j.key("guard_hash");
    j.value(guard_hash);
    j.key("result");
    write_result(j, result);
    j.key("wall_seconds");
    j.value(result.wall_seconds);
    j.key("threads_used");
    j.value(result.threads_used);
    j.end_object();
    j.finish();
    util::close_or_throw(out, tmp);
  }
  fs::rename(tmp, path);
}

bool load_checkpoint(const std::string& path, const Scenario& scenario,
                     const std::string& guard_hash, ScenarioResult* out) {
  if (!fs::exists(path)) return false;
  try {
    const util::JsonValue doc = util::parse_json(util::read_text_file(path));
    if (doc.at("id").as_string() != scenario.id ||
        doc.at("guard_hash").as_string() != guard_hash) {
      return false;  // stale: different spec, partition or matrix
    }
    ScenarioResult r = scenario_result_from_json(doc.at("result"));
    r.wall_seconds = doc.at("wall_seconds").as_double();
    r.threads_used = doc.at("threads_used").as_u64();
    *out = r;
    return true;
  } catch (const util::JsonError& e) {
    throw util::JsonError(path + ": " + e.what());
  }
}

std::string git_describe() {
#if defined(_WIN32)
  return "unknown";
#else
  FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {};
  std::string out;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return (status == 0 && !out.empty()) ? out : "unknown";
#endif
}

void write_manifest(const std::string& path, const CampaignSpec& spec,
                    const std::vector<ScenarioOutcome>& outcomes,
                    const std::string& git_version, const ShardSpec& shard) {
  const bool sharded = shard.sharded();
  std::ofstream file = util::open_for_write(path);
  JsonWriter j(file);
  j.begin_object();
  j.key("format");
  j.value(sharded ? kShardManifestFormat : kManifestFormat);
  j.key("campaign");
  j.value(spec.name);
  j.key("spec_hash");
  j.value(spec.hash);
  if (sharded) {
    j.key("shard_index");
    j.value(static_cast<std::uint64_t>(shard.index));
    j.key("shard_count");
    j.value(static_cast<std::uint64_t>(shard.count));
  }
  j.key("generator");
  j.value(git_version);
  j.key("seed");
  j.value(hex_u64(spec.seed));
  j.key("key");
  j.value(hex_u64(spec.key));
  // 3DES session keys appear only when the campaign has a tdes_cbc axis
  // value, so legacy manifests stay byte-identical.
  bool any_tdes = false;
  for (const Cipher c : spec.ciphers) {
    if (c == Cipher::kTdesCbc) any_tdes = true;
  }
  if (any_tdes) {
    j.key("key2");
    j.value(hex_u64(spec.key2));
    j.key("key3");
    j.value(hex_u64(spec.key3));
  }
  j.key("fixed_input");
  j.value(hex_u64(spec.fixed_input));
  j.key("window_begin");
  j.value(static_cast<std::uint64_t>(spec.window_begin));
  j.key("window_end");
  j.value(static_cast<std::uint64_t>(spec.window_end));
  j.key("timings");  // wall-clock lives there, outside byte-identity
  j.value(timings_name(shard));
  j.key("scenario_count");
  j.value(static_cast<std::uint64_t>(outcomes.size()));

  j.key("scenarios");
  j.begin_array();
  for (const ScenarioOutcome& o : outcomes) {
    const Scenario& s = o.scenario;
    j.begin_object();
    j.key("id");
    j.value(s.id);
    j.key("cipher");
    j.value(std::string(cipher_name(s.cipher)));
    j.key("policy");
    j.value(s.policy.name());
    j.key("analysis");
    j.value(std::string(analysis_name(s.analysis)));
    j.key("noise_sigma_pj");
    j.value(s.noise_sigma_pj);
    j.key("traces");
    j.value(static_cast<std::uint64_t>(s.traces));
    if (is_session_cipher(s.cipher)) {
      j.key("session_length");
      j.value(static_cast<std::uint64_t>(s.session_length));
    }
    j.key("coupling_ff");
    j.value(s.coupling_ff);
    j.key("seed");
    j.value(hex_u64(s.seed));
    j.key("result");
    write_result(j, o.result);
    j.end_object();
  }
  j.end_array();

  std::uint64_t total_encryptions = 0;
  std::uint64_t total_cycles = 0;
  double total_energy_uj = 0.0;
  for (const ScenarioOutcome& o : outcomes) {
    total_encryptions += o.result.encryptions;
    total_cycles += o.result.total_cycles;
    total_energy_uj += o.result.total_energy_uj;
  }
  j.key("rollup");
  j.begin_object();
  j.key("total_encryptions");
  j.value(total_encryptions);
  j.key("total_cycles");
  j.value(total_cycles);
  j.key("total_energy_uj");
  j.value(total_energy_uj);
  j.key("by_policy");
  j.begin_array();
  for (const PolicyRollup& r :
       rollup_by_policy(spec.policies, spec.reference_uj, outcomes)) {
    j.begin_object();
    j.key("policy");
    j.value(r.policy.name());
    j.key("scenarios");
    j.value(static_cast<std::uint64_t>(r.scenarios));
    j.key("mean_uj");
    j.value(r.mean_uj);
    j.key("ratio");
    j.value(r.ratio);
    if (r.has_reference) {
      j.key("paper_uj");
      j.value(r.paper_uj);
      if (r.on_paper_scale) {
        j.key("paper_ratio");
        j.value(r.paper_ratio);
        j.key("normalized_uj");
        j.value(r.normalized_uj);
      }
    } else if (r.on_paper_scale && std::isfinite(r.ratio)) {
      // No paper number for this policy (the paper predates the hiding
      // countermeasures), but its measured ratio still projects onto the
      // paper's absolute scale for side-by-side comparison.
      j.key("normalized_uj");
      j.value(r.normalized_uj);
    }
    j.end_object();
  }
  j.end_array();
  j.end_object();

  j.end_object();
  j.finish();
  util::close_or_throw(file, path);
}

void write_result(JsonWriter& j, const ScenarioResult& r) {
  j.begin_object();
  j.key("encryptions");
  j.value(r.encryptions);
  j.key("total_cycles");
  j.value(r.total_cycles);
  j.key("total_instructions");
  j.value(r.total_instructions);
  j.key("total_energy_uj");
  j.value(r.total_energy_uj);
  j.key("mean_uj");
  j.value(r.mean_uj());
  j.key("secured_count");
  j.value(r.secured_count);
  j.key("program_instructions");
  j.value(r.program_instructions);
  j.key("metric");
  j.value(r.metric);
  j.key("best_guess");
  j.value(r.best_guess);
  j.key("true_value");
  j.value(r.true_value);
  j.key("success");
  j.value(r.success);
  j.key("margin");
  j.value(r.margin);
  j.key("cycles_over_threshold");
  j.value(r.cycles_over_threshold);
  j.end_object();
}

ScenarioResult scenario_result_from_json(const util::JsonValue& result) {
  const auto as_double_or = [](const util::JsonValue& v, double if_null) {
    return v.is_null() ? if_null : v.as_double();
  };
  const double nan = std::nan("");
  ScenarioResult r;
  r.encryptions = result.at("encryptions").as_u64();
  r.total_cycles = result.at("total_cycles").as_u64();
  r.total_instructions = result.at("total_instructions").as_u64();
  r.total_energy_uj = as_double_or(result.at("total_energy_uj"), nan);
  r.secured_count = result.at("secured_count").as_u64();
  r.program_instructions = result.at("program_instructions").as_u64();
  r.metric = as_double_or(result.at("metric"), nan);
  r.best_guess = static_cast<int>(result.at("best_guess").as_int());
  r.true_value = static_cast<int>(result.at("true_value").as_int());
  r.success = result.at("success").as_bool();
  // A margin is finite or +inf (no positive runner-up), never NaN.
  r.margin = as_double_or(result.at("margin"),
                          std::numeric_limits<double>::infinity());
  r.cycles_over_threshold = result.at("cycles_over_threshold").as_u64();
  return r;
}

void write_summary_csv(const std::string& path,
                       const std::vector<ScenarioOutcome>& outcomes) {
  const auto fmt = [](double v) { return JsonWriter::format_double(v); };
  util::CsvWriter summary(path);
  summary.write_header({"id", "cipher", "policy", "analysis",
                        "noise_sigma_pj", "traces", "coupling_ff", "mean_uj",
                        "metric", "success", "margin"});
  for (const ScenarioOutcome& o : outcomes) {
    const Scenario& s = o.scenario;
    summary.write_row({s.id, std::string(cipher_name(s.cipher)),
                       s.policy.name(),
                       std::string(analysis_name(s.analysis)),
                       fmt(s.noise_sigma_pj), std::to_string(s.traces),
                       fmt(s.coupling_ff), fmt(o.result.mean_uj()),
                       fmt(o.result.metric), o.result.success ? "1" : "0",
                       fmt(o.result.margin)});
  }
  summary.flush();
}

void write_timings(const std::string& path,
                   const std::vector<ScenarioOutcome>& outcomes) {
  std::ofstream file = util::open_for_write(path);
  JsonWriter j(file);
  j.begin_object();
  j.key("format");
  j.value("emask-campaign-timings-v1");
  double wall = 0.0;
  for (const ScenarioOutcome& o : outcomes) wall += o.result.wall_seconds;
  j.key("total_wall_seconds");
  j.value(wall);
  j.key("scenarios");
  j.begin_array();
  for (const ScenarioOutcome& o : outcomes) {
    j.begin_object();
    j.key("id");
    j.value(o.scenario.id);
    j.key("resumed");
    j.value(o.resumed);
    j.key("wall_seconds");
    j.value(o.result.wall_seconds);
    j.key("threads");
    j.value(o.result.threads_used);
    const double throughput =
        o.result.wall_seconds > 0.0
            ? static_cast<double>(o.result.encryptions) /
                  o.result.wall_seconds
            : 0.0;
    j.key("encryptions_per_sec");
    j.value(throughput);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.finish();
  util::close_or_throw(file, path);
}

void claim_output_dir(const std::string& dir, const CampaignSpec& spec) {
  const std::string spec_copy = (fs::path(dir) / "spec.ini").string();
  if (!fs::exists(spec_copy)) {
    std::ofstream out = util::open_for_write(spec_copy);
    out << spec.text;
    util::close_or_throw(out, spec_copy);
    return;
  }
  const std::string existing = fnv1a_hex(util::read_text_file(spec_copy));
  if (existing != spec.hash) {
    throw SpecError(dir + " already holds a different campaign (spec hash " +
                    existing + " != " + spec.hash +
                    "); use a fresh --out directory");
  }
}

std::string run_file_name(std::string_view stem, std::string_view ext,
                          const ShardSpec& shard) {
  std::string name(stem);
  if (shard.sharded()) name += "." + shard.label();
  return name.append(ext);
}

std::vector<fs::path> find_shard_manifests(const fs::path& dir) {
  std::vector<fs::path> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("manifest.shard-") && name.ends_with(".json")) {
      found.push_back(entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace emask::campaign
