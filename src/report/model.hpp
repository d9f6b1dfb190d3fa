// report::Model — the joined, chart-ready view of one campaign output
// directory.
//
// Input is the deterministic half of the campaign layout only:
//
//   <dir>/manifest.json                  (or manifest.shard-i-of-N.json)
//   <dir>/scenarios/<id>/<artifact>.csv  breakdown / guesses / t_per_cycle
//
// The manifest is the source of truth: scenario parameters and results are
// read back through util::parse_json + campaign::scenario_result_from_json
// (bit-exact number round-trip), and the per-policy roll-up is
// *recomputed* from those results with campaign::rollup_by_policy — never
// copied from the manifest's own rollup block, which only contributes the
// policy order and the paper references.  Artifact CSVs are joined by the
// campaign layout contract (campaign::scenario_artifact_path); a missing
// artifact degrades that scenario's drill-down, it never fails the load.
//
// Everything in the Model is a pure function of the bytes under <dir>, so
// a report rendered from it inherits the manifest's byte-identity
// guarantee.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/spec.hpp"
#include "util/csv.hpp"

namespace emask::report {

/// Load/consistency error (bad directory, malformed or unknown-format
/// manifest).  Malformed JSON inside surfaces as util::JsonError with the
/// file prefixed, as elsewhere in the codebase.
class ReportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One scenario row joined with its analysis artifact.
struct ScenarioEntry {
  campaign::Scenario scenario;      // parameters, parsed back from JSON
  campaign::ScenarioResult result;  // deterministic result fields
  /// The analysis-specific CSV (breakdown/guesses/t_per_cycle), parsed.
  util::CsvTable artifact;
  bool artifact_present = false;
  /// Relative path the artifact was looked up at (for callouts).
  std::string artifact_path;
  /// Traces-to-disclosure curve (disclosure.csv) for key-ranking attack
  /// scenarios.  Optional: campaigns written before the curve existed
  /// simply have no disclosure sections, never a load failure, so its
  /// absence does not count toward missing_artifacts.
  util::CsvTable disclosure;
  bool disclosure_present = false;
  /// Session-cipher extras (blocks.csv / session.csv), joined for
  /// des_cbc / tdes_cbc scenarios only.  Optional in the same sense as
  /// the disclosure curve.
  util::CsvTable blocks;
  bool blocks_present = false;
  util::CsvTable session;
  bool session_present = false;
};

struct Model {
  // -- provenance header ------------------------------------------------
  std::string campaign;   // spec name
  std::string spec_hash;  // FNV-1a of the spec text
  std::string generator;  // git describe of the producing build
  std::string manifest_name;  // relative filename the model was loaded from
  bool sharded = false;       // loaded from a per-shard manifest
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  std::vector<ScenarioEntry> scenarios;  // manifest order
  /// Recomputed roll-up rows (NaN renders "n/a"), manifest by_policy
  /// order.
  std::vector<campaign::PolicyRollup> rollup;

  // -- status tallies ---------------------------------------------------
  std::size_t failed = 0;             // result.success == false
  std::size_t missing_artifacts = 0;  // artifact CSV absent on disk

  /// Loads `<dir>/manifest.json`, falling back to the directory's single
  /// `manifest.shard-i-of-N.json` for an unmerged shard.  Throws
  /// ReportError when neither exists (or several shard manifests make the
  /// choice ambiguous), util::JsonError / campaign::SpecError on malformed
  /// content.
  [[nodiscard]] static Model load(const std::string& dir);

  /// Parses an already-loaded manifest document (crafted fixtures, tests).
  /// `dir` is still used to join artifact CSVs; `manifest_name` is the
  /// name recorded in the provenance header.
  [[nodiscard]] static Model from_manifest(const std::string& manifest_text,
                                           const std::string& manifest_name,
                                           const std::string& dir);
};

}  // namespace emask::report
