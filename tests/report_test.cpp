// report::Model / report::render against crafted manifest fixtures: the
// degradation paths (missing artifact CSV, failed scenarios, non-finite
// numbers loaded back from JSON null) and the determinism contract.  The
// end-to-end golden check lives in ctest emask-report_golden; these tests
// pin the load/join/render semantics at the library level.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "report/html.hpp"
#include "report/model.hpp"
#include "report/svg.hpp"
#include "util/fsio.hpp"
#include "temp_path.hpp"

namespace emask::report {
namespace {

namespace fs = std::filesystem;

/// One crafted scenario row for the fixture manifest.
struct Row {
  std::string id;
  std::string policy;
  std::string analysis = "energy";
  double energy_uj = 100.0;  // total over `encryptions`
  std::uint64_t encryptions = 10;
  bool success = true;
  bool null_energy = false;  // emit total_energy_uj (and metric) as null
  bool with_artifact = true;
};

std::string scenario_json(const Row& r) {
  const std::string energy =
      r.null_energy ? "null" : std::to_string(r.energy_uj);
  const std::string mean =
      r.null_energy
          ? "null"
          : std::to_string(r.energy_uj / static_cast<double>(r.encryptions));
  return "{\"id\": \"" + r.id + "\", \"cipher\": \"des\", \"policy\": \"" +
         r.policy + "\", \"analysis\": \"" + r.analysis +
         "\", \"noise_sigma_pj\": 0, \"traces\": 10, \"coupling_ff\": 0, "
         "\"seed\": \"0x0000000000000001\", \"result\": {\"encryptions\": " +
         std::to_string(r.encryptions) +
         ", \"total_cycles\": 1000, \"total_instructions\": 800, "
         "\"total_energy_uj\": " +
         energy + ", \"mean_uj\": " + mean +
         ", \"secured_count\": 4, \"program_instructions\": 80, "
         "\"metric\": " +
         mean + ", \"best_guess\": -1, \"true_value\": -1, \"success\": " +
         (r.success ? "true" : "false") +
         ", \"margin\": 0, \"cycles_over_threshold\": 0}}";
}

std::string by_policy_json(const std::string& policy, double mean,
                           double paper, double paper_baseline) {
  std::string row = "{\"policy\": \"" + policy +
                    "\", \"scenarios\": 1, \"mean_uj\": " +
                    std::to_string(mean) + ", \"ratio\": 1";
  if (paper > 0.0) {
    row += ", \"paper_uj\": " + std::to_string(paper);
    if (paper_baseline > 0.0) {
      row += ", \"paper_ratio\": " + std::to_string(paper / paper_baseline);
    }
  }
  return row + "}";
}

/// Builds a manifest document around the rows (merged format by default).
std::string manifest_json(const std::vector<Row>& rows, bool sharded = false,
                          bool with_references = true) {
  std::string doc = "{\"format\": \"";
  doc += sharded ? "emask-campaign-shard-manifest-v1"
                 : "emask-campaign-manifest-v1";
  doc += "\", \"campaign\": \"fixture\", \"spec_hash\": "
         "\"0011223344556677\", ";
  if (sharded) doc += "\"shard_index\": 1, \"shard_count\": 3, ";
  doc += "\"generator\": \"fixture\", \"seed\": \"0x0000000000000001\", "
         "\"key\": \"0x133457799BBCDFF1\", \"fixed_input\": "
         "\"0x0123456789ABCDEF\", \"window_begin\": 0, \"window_end\": "
         "1000, \"timings\": \"timings.json\", \"scenario_count\": " +
         std::to_string(rows.size()) + ", \"scenarios\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) doc += ", ";
    doc += scenario_json(rows[i]);
  }
  doc += "], \"rollup\": {\"total_encryptions\": 0, \"total_cycles\": 0, "
         "\"total_energy_uj\": 0, \"by_policy\": [";
  // One by_policy row per distinct policy, first appearance order, with the
  // fig12 paper references when requested.
  const std::vector<std::pair<std::string, double>> refs = {
      {"original", 46.4},
      {"selective", 52.6},
      {"naive_loadstore", 63.6},
      {"all_secure", 83.5}};
  std::vector<std::string> policies;
  for (const Row& r : rows) {
    bool seen = false;
    for (const std::string& p : policies) seen |= p == r.policy;
    if (!seen) policies.push_back(r.policy);
  }
  for (std::size_t i = 0; i < policies.size(); ++i) {
    if (i) doc += ", ";
    double paper = 0.0;
    for (const auto& [name, uj] : refs) {
      if (with_references && name == policies[i]) paper = uj;
    }
    doc += by_policy_json(policies[i], 10.0, paper,
                          with_references ? 46.4 : 0.0);
  }
  doc += "]}}";
  return doc;
}

/// Writes the manifest + per-scenario artifact CSVs into a fresh temp dir.
fs::path write_fixture(const std::string& tag, const std::vector<Row>& rows,
                       bool sharded = false) {
  const fs::path dir = test::temp_path("report_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string name =
      sharded ? "manifest.shard-1-of-3.json" : "manifest.json";
  {
    std::ofstream out = util::open_for_write((dir / name).string());
    out << manifest_json(rows, sharded);
  }
  for (const Row& r : rows) {
    if (!r.with_artifact) continue;
    const fs::path sub = dir / "scenarios" / r.id;
    fs::create_directories(sub);
    if (r.analysis == "energy") {
      std::ofstream out(sub / "breakdown.csv");
      out << "component,energy_uj\nalu,4\nmemory,3\nregisters,2\n";
    } else if (r.analysis == "tvla") {
      std::ofstream out(sub / "t_per_cycle.csv");
      out << "cycle,t\n0,0.5\n1,5.2\n2,1.1\n";
    } else {
      std::ofstream out(sub / "guesses.csv");
      out << "guess,peak\n0,0.1\n1,0.9\n";
    }
  }
  return dir;
}

std::vector<Row> fig12_rows() {
  return {{"0000-des-original-energy", "original", "energy", 120.0},
          {"0001-des-selective-energy", "selective", "energy", 136.0},
          {"0002-des-naive_loadstore-energy", "naive_loadstore", "energy",
           164.0},
          {"0003-des-all_secure-energy", "all_secure", "energy", 216.0}};
}

TEST(ReportModel, LoadsManifestAndRecomputesRollup) {
  const fs::path dir = write_fixture("basic", fig12_rows());
  const Model m = Model::load(dir.string());
  EXPECT_EQ(m.campaign, "fixture");
  EXPECT_EQ(m.spec_hash, "0011223344556677");
  EXPECT_EQ(m.manifest_name, "manifest.json");
  EXPECT_FALSE(m.sharded);
  ASSERT_EQ(m.scenarios.size(), 4u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.missing_artifacts, 0u);

  // The roll-up is recomputed from scenario results (mean 12.0 uJ for the
  // baseline), not copied from the manifest's own block (which says 10.0).
  ASSERT_EQ(m.rollup.size(), 4u);
  EXPECT_EQ(m.rollup[0].policy, compiler::Policy::kOriginal);
  EXPECT_NEAR(m.rollup[0].mean_uj, 12.0, 1e-12);
  EXPECT_NEAR(m.rollup[1].mean_uj, 13.6, 1e-12);
  EXPECT_NEAR(m.rollup[1].ratio, 13.6 / 12.0, 1e-12);

  // Paper references ride in from by_policy; normalization uses the
  // measured ratio on the paper's baseline scale.
  EXPECT_TRUE(m.rollup[3].has_reference);
  EXPECT_NEAR(m.rollup[3].paper_uj, 83.5, 1e-12);
  EXPECT_NEAR(m.rollup[3].paper_ratio, 83.5 / 46.4, 1e-12);
  EXPECT_NEAR(m.rollup[3].normalized_uj, (21.6 / 12.0) * 46.4, 1e-9);
}

TEST(ReportModel, MissingArtifactDegradesNotFails) {
  std::vector<Row> rows = fig12_rows();
  rows[2].with_artifact = false;
  const fs::path dir = write_fixture("missing_artifact", rows);
  const Model m = Model::load(dir.string());
  EXPECT_EQ(m.missing_artifacts, 1u);
  EXPECT_FALSE(m.scenarios[2].artifact_present);
  EXPECT_TRUE(m.scenarios[1].artifact_present);
  EXPECT_EQ(m.scenarios[2].artifact_path,
            "scenarios/0002-des-naive_loadstore-energy/breakdown.csv");

  const std::string html = render(m);
  EXPECT_NE(html.find("1 with missing artifacts"), std::string::npos);
  EXPECT_NE(html.find("Missing artifacts"), std::string::npos);
  EXPECT_NE(html.find(m.scenarios[2].artifact_path), std::string::npos);
}

TEST(ReportModel, FailedScenarioCountedAndCalledOut) {
  std::vector<Row> rows = fig12_rows();
  rows.push_back({"0004-des-selective-tvla", "selective", "tvla", 0.0, 10,
                  /*success=*/false});
  const fs::path dir = write_fixture("failed", rows);
  const Model m = Model::load(dir.string());
  EXPECT_EQ(m.failed, 1u);

  const std::string html = render(m);
  EXPECT_NE(html.find("1 failed"), std::string::npos);
  EXPECT_NE(html.find("Failed scenarios"), std::string::npos);
  EXPECT_NE(html.find("0004-des-selective-tvla"), std::string::npos);
}

TEST(ReportModel, LoadsShardManifestWithProvenance) {
  const fs::path dir = write_fixture("shard", fig12_rows(), /*sharded=*/true);
  const Model m = Model::load(dir.string());
  EXPECT_TRUE(m.sharded);
  EXPECT_EQ(m.shard_index, 1u);
  EXPECT_EQ(m.shard_count, 3u);
  EXPECT_EQ(m.manifest_name, "manifest.shard-1-of-3.json");

  const std::string html = render(m);
  EXPECT_NE(html.find("1 of 3"), std::string::npos);
  EXPECT_NE(html.find("unmerged"), std::string::npos);
}

TEST(ReportModel, RejectsDirectoryWithoutManifest) {
  const fs::path dir = test::temp_path("report_no_manifest");
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_THROW((void)Model::load(dir.string()), ReportError);
}

TEST(ReportModel, RejectsAmbiguousShardManifests) {
  const fs::path dir = write_fixture("two_shards", fig12_rows(), true);
  {
    std::ofstream out(dir / "manifest.shard-2-of-3.json");
    out << manifest_json(fig12_rows(), true);
  }
  try {
    (void)Model::load(dir.string());
    FAIL() << "expected ReportError";
  } catch (const ReportError& e) {
    EXPECT_NE(std::string(e.what()).find("merge"), std::string::npos);
  }
}

TEST(ReportHtml, NonFiniteValuesRenderAsNa) {
  std::vector<Row> rows = fig12_rows();
  rows[1].null_energy = true;  // total_energy_uj + metric emitted as null
  const fs::path dir = write_fixture("nonfinite", rows);
  const Model m = Model::load(dir.string());
  ASSERT_TRUE(std::isnan(m.scenarios[1].result.total_energy_uj));

  const std::string html = render(m);
  EXPECT_NE(html.find("n/a"), std::string::npos);
  // The JSON null / C nan spellings must never leak into rendered values.
  EXPECT_EQ(html.find(">nan<"), std::string::npos);
  EXPECT_EQ(html.find(">null<"), std::string::npos);
  EXPECT_EQ(html.find(">inf<"), std::string::npos);
  EXPECT_EQ(html.find(">-nan<"), std::string::npos);
}

TEST(ReportHtml, RenderIsDeterministicAndSelfContained) {
  const fs::path dir = write_fixture("determinism", fig12_rows());
  const Model m1 = Model::load(dir.string());
  const Model m2 = Model::load(dir.string());
  const std::string a = render(m1);
  const std::string b = render(m2);
  EXPECT_EQ(a, b);

  // Self-containment: no external resources of any kind.  (The SVG xmlns
  // is a namespace identifier, not a fetched URL — strip it first.)
  std::string stripped = a;
  const std::string xmlns = "xmlns=\"http://www.w3.org/2000/svg\"";
  for (std::size_t pos = stripped.find(xmlns); pos != std::string::npos;
       pos = stripped.find(xmlns)) {
    stripped.erase(pos, xmlns.size());
  }
  EXPECT_EQ(stripped.find("<script"), std::string::npos);
  EXPECT_EQ(stripped.find("<link"), std::string::npos);
  EXPECT_EQ(stripped.find("http://"), std::string::npos);
  EXPECT_EQ(stripped.find("https://"), std::string::npos);
  EXPECT_EQ(stripped.find("src="), std::string::npos);
  EXPECT_EQ(stripped.find("@import"), std::string::npos);

  // The paper's Table 1 anchors render in the roll-up section.
  for (const char* ref : {"46.4", "52.6", "63.6", "83.5"}) {
    EXPECT_NE(a.find(ref), std::string::npos) << ref;
  }
}

TEST(ReportHtml, TitleOverrideAndEscaping) {
  const fs::path dir = write_fixture("title", fig12_rows());
  const Model m = Model::load(dir.string());
  RenderOptions opts;
  opts.title = "a <b> & \"c\"";
  const std::string html = render(m, opts);
  EXPECT_NE(html.find("a &lt;b&gt; &amp; &quot;c&quot;"), std::string::npos);
}

TEST(ReportHtml, WriteReportCreatesDirectoriesAndRoundTrips) {
  const fs::path dir = write_fixture("write", fig12_rows());
  const fs::path out = dir / "nested" / "deep" / "report.html";
  const std::size_t bytes = render_directory(dir.string(), out.string());
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(util::read_text_file(out.string()).size(), bytes);
}

TEST(ReportHtml, NumOrNa) {
  EXPECT_EQ(num_or_na(1.5), "1.5");
  EXPECT_EQ(num_or_na(46.4), "46.4");
  EXPECT_EQ(num_or_na(std::nan("")), "n/a");
  EXPECT_EQ(num_or_na(INFINITY), "n/a");
  EXPECT_EQ(num_or_na(-INFINITY), "n/a");
}

TEST(ReportSvg, BarChartRendersNaAtNanBars) {
  BarChartSpec spec;
  spec.width = 400;
  spec.height = 200;
  spec.groups = {"a", "b"};
  spec.series.push_back({"s", {1.0, std::nan("")}});
  const std::string svg = bar_chart(spec);
  EXPECT_NE(svg.find("n/a"), std::string::npos);
  EXPECT_EQ(svg.find("nan"), std::string::npos);
}

TEST(ReportSvg, LineChartBreaksPolylineAtNonFinitePoints) {
  LineChartSpec spec;
  spec.width = 400;
  spec.height = 200;
  LineSeries s;
  s.label = "t";
  s.xs = {0.0, 1.0, 2.0, 3.0};
  s.ys = {1.0, std::nan(""), 2.0, 3.0};
  spec.series.push_back(s);
  const std::string svg = line_chart(spec);
  // The NaN gap forces two separate polylines.
  std::size_t count = 0;
  for (std::size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1)) {
    ++count;
  }
  EXPECT_GE(count, 2u);
  EXPECT_EQ(svg.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace emask::report
