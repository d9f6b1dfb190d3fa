// Campaign provenance: checkpoints, the results manifest, and timings.
//
// Each artifact has one writer and one reader here; the runner, the shard
// merge, the report layer and the CLI locate and parse them through these
// helpers only.
//
// Determinism contract
// --------------------
// `manifest.json` is **byte-identical** between a campaign run start-to-
// finish and the same campaign interrupted after any scenario and resumed
// with --resume (given the same build of the simulator).  Everything in it
// is therefore a pure function of (spec text, code): spec hash, seeds,
// scenario parameters, energy/cycle aggregates, analysis verdicts.
// Wall-clock measurements cannot satisfy that, so per-scenario wall-time
// and throughput live in `timings.json`, which the manifest references and
// which is explicitly outside the byte-identity guarantee.
//
// Checkpoints are one JSON file per completed scenario,
// `checkpoints/<id>.json`: the scenario id, the (shard-folded) guard hash,
// the same `result` object the manifest carries, and the scenario's
// wall-clock fields.  On --resume a checkpoint whose id or guard hash does
// not match is stale and the scenario re-runs; so does a scenario whose
// only checkpoint is a legacy `checkpoints/<id>.ini`, which is never read.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"

namespace emask::util {
class JsonWriter;
struct JsonValue;
}

namespace emask::campaign {

/// The `format` markers of a whole-matrix and a per-shard manifest.
inline constexpr const char* kManifestFormat = "emask-campaign-manifest-v1";
inline constexpr const char* kShardManifestFormat =
    "emask-campaign-shard-manifest-v1";

/// Deterministic outcome of one scenario (plus the wall-clock fields that
/// only ever reach timings.json).
struct ScenarioResult {
  std::uint64_t encryptions = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t total_instructions = 0;
  double total_energy_uj = 0.0;
  std::uint64_t secured_count = 0;
  std::uint64_t program_instructions = 0;

  /// Headline number of the analysis: mean uJ/encryption (energy), |DoM|
  /// peak (dpa/second_order), |rho| peak (cpa), max |t| (tvla).
  double metric = 0.0;
  int best_guess = -1;  // recovered key chunk/byte; -1 for non-attacks
  int true_value = -1;
  /// dpa/cpa/second_order: key recovered.  tvla: no leak.  energy: true.
  bool success = false;
  double margin = 0.0;
  std::uint64_t cycles_over_threshold = 0;  // tvla

  // -- non-deterministic; excluded from manifest.json --
  double wall_seconds = 0.0;
  std::uint64_t threads_used = 0;

  [[nodiscard]] double mean_uj() const {
    return encryptions ? total_energy_uj / static_cast<double>(encryptions)
                       : 0.0;
  }
};

struct ScenarioOutcome {
  Scenario scenario;
  ScenarioResult result;
  bool resumed = false;  // satisfied from a checkpoint, not re-simulated
};

/// Emits the deterministic fields of `r` as one JSON object — the
/// manifest's per-scenario `result` block and the checkpoint's.
void write_result(util::JsonWriter& j, const ScenarioResult& r);

/// Reads one `result` object back into a ScenarioResult (the inverse of
/// write_result).  Numbers round-trip bit-exactly ("%.17g" doubles, raw
/// integer tokens).  Non-finite doubles were written as `null`: a null
/// margin loads as +inf (margin_over_runner_up's only non-finite value), a
/// null metric or total_energy_uj as NaN.  Throws util::JsonError on
/// missing keys or type mismatches.
[[nodiscard]] ScenarioResult scenario_result_from_json(
    const util::JsonValue& result);

/// Writes the checkpoint of a completed scenario (temp file + rename).
void save_checkpoint(const std::string& path, const Scenario& scenario,
                     const ScenarioResult& result,
                     const std::string& guard_hash);

/// Loads a checkpoint if present and current (id + guard hash match).
/// Returns false when missing or stale; throws on a malformed file.
[[nodiscard]] bool load_checkpoint(const std::string& path,
                                   const Scenario& scenario,
                                   const std::string& guard_hash,
                                   ScenarioResult* out);

/// Writes the deterministic results manifest.  With a sharded `shard`,
/// writes the per-shard variant instead: format kShardManifestFormat with
/// `shard_index`/`shard_count` fields, covering only the shard's outcomes.
/// The document layout is otherwise identical, so the merged whole-matrix
/// manifest is produced by the same code path (unsharded `shard`).
void write_manifest(const std::string& path, const CampaignSpec& spec,
                    const std::vector<ScenarioOutcome>& outcomes,
                    const std::string& git_version,
                    const ShardSpec& shard = {});

/// Writes the deterministic per-scenario summary table (one row per
/// outcome, in matrix order).  Shared by the runner and the shard merge so
/// both emit byte-identical summaries.
void write_summary_csv(const std::string& path,
                       const std::vector<ScenarioOutcome>& outcomes);

/// Writes wall-time / throughput observability (non-deterministic).
void write_timings(const std::string& path,
                   const std::vector<ScenarioOutcome>& outcomes);

/// `git describe --always --dirty` of the working tree, or "unknown" when
/// git (or the repo) is unavailable.
[[nodiscard]] std::string git_describe();

/// Claims `dir` for `spec`: creates it and writes the verbatim spec.ini on
/// first use; throws SpecError when the directory already holds a spec.ini
/// with a different hash.  An output directory belongs to exactly one spec.
void claim_output_dir(const std::string& dir, const CampaignSpec& spec);

/// Name of a per-run output file: "<stem><ext>" for an unsharded run,
/// "<stem>.shard-i-of-N<ext>" for a shard (summary.csv, report.html and
/// the two below).
[[nodiscard]] std::string run_file_name(std::string_view stem,
                                        std::string_view ext,
                                        const ShardSpec& shard);
/// manifest.json, or manifest.shard-i-of-N.json for a shard.
[[nodiscard]] inline std::string manifest_name(const ShardSpec& shard = {}) {
  return run_file_name("manifest", ".json", shard);
}
/// timings.json, or timings.shard-i-of-N.json for a shard.
[[nodiscard]] inline std::string timings_name(const ShardSpec& shard = {}) {
  return run_file_name("timings", ".json", shard);
}

/// The per-shard manifests (manifest.shard-i-of-N.json) directly under
/// `dir`, sorted by name.
[[nodiscard]] std::vector<std::filesystem::path> find_shard_manifests(
    const std::filesystem::path& dir);

/// One row of the per-policy roll-up.  `mean_uj` averages the policy's
/// scenarios (energy-analysis scenarios only when the campaign has any —
/// they run the whole program, not an attack window).  Derived values are
/// NaN when undefined, never a fake 0 that reads like a measurement.
struct PolicyRollup {
  hiding::Countermeasure policy;
  std::size_t scenarios = 0;
  double mean_uj = 0.0;
  /// mean_uj over the first policy's; NaN without a positive baseline.
  double ratio = std::numeric_limits<double>::quiet_NaN();
  bool has_reference = false;  // the campaign carries a paper number
  double paper_uj = 0.0;
  /// The first policy has a positive paper reference, which defines
  /// paper_ratio and normalized_uj.
  bool on_paper_scale = false;
  double paper_ratio = std::numeric_limits<double>::quiet_NaN();
  /// Measured ratio projected onto the paper's absolute scale (our
  /// compiler emits denser code, so absolute uJ differ by a constant
  /// factor while the policy ratios match).  Defined for every policy on
  /// the paper scale, also those the paper never measured.
  double normalized_uj = std::numeric_limits<double>::quiet_NaN();
};

/// Rolls `outcomes` up per policy, in `policies` order; the first policy is
/// the baseline.  `references` holds paper uJ values keyed by canonical
/// countermeasure name (a spec's [reference] section).
[[nodiscard]] std::vector<PolicyRollup> rollup_by_policy(
    const std::vector<hiding::Countermeasure>& policies,
    const std::vector<std::pair<std::string, double>>& references,
    const std::vector<ScenarioOutcome>& outcomes);

/// Filename of the analysis-specific artifact CSV the runner writes beside
/// result.csv: breakdown.csv (energy), guesses.csv (dpa/cpa/second_order),
/// t_per_cycle.csv (tvla), disclosure.csv (mlpa/collision).
[[nodiscard]] std::string_view analysis_artifact(Analysis a);

/// True for the key-ranking attacks whose scenarios additionally write a
/// traces-to-disclosure curve (disclosure.csv) beside the main artifact.
[[nodiscard]] bool analysis_has_disclosure(Analysis a);

/// Artifact paths relative to a campaign output directory — the layout
/// contract consumers (the report layer) join against.
[[nodiscard]] std::string scenario_artifact_path(const std::string& id,
                                                 Analysis a);
[[nodiscard]] std::string scenario_disclosure_path(const std::string& id);
/// Session-cipher extras beside result.csv: per-block attribution and the
/// key-schedule amortization accounting.
[[nodiscard]] std::string scenario_blocks_path(const std::string& id);
[[nodiscard]] std::string scenario_session_path(const std::string& id);

}  // namespace emask::campaign
