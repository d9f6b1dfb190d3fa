#include "report/html.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "report/svg.hpp"
#include "util/fsio.hpp"

namespace emask::report {
namespace {

constexpr const char* kStyle =
    "body{font-family:sans-serif;color:#222;margin:24px auto;max-width:960px;"
    "padding:0 16px;background:#fafafa}"
    "h1{font-size:22px;border-bottom:2px solid #4878a8;padding-bottom:6px}"
    "h2{font-size:17px;margin-top:28px}"
    "table{border-collapse:collapse;margin:8px 0;background:#fff}"
    "th,td{border:1px solid #ccc;padding:4px 10px;font-size:13px;"
    "text-align:right}"
    "th{background:#eef2f7;text-align:center}"
    "td.l,th.l{text-align:left}"
    "details{margin:6px 0;background:#fff;border:1px solid #ddd;"
    "border-radius:4px;padding:4px 10px}"
    "summary{cursor:pointer;font-size:14px;padding:4px 0}"
    ".ok{color:#3a7a34}.fail{color:#b03330;font-weight:bold}"
    ".miss{color:#777}"
    ".callout{border-left:4px solid #d1605e;background:#fff;"
    "padding:8px 12px;margin:8px 0;font-size:13px}"
    ".note{border-left:4px solid #b8b8b8;background:#fff;"
    "padding:8px 12px;margin:8px 0;font-size:13px}"
    ".prov{font-size:12px;color:#555}"
    "svg{background:#fff;border:1px solid #e5e5e5;border-radius:4px;"
    "margin:6px 0;max-width:100%}";

std::string esc(const std::string& s) { return xml_escape(s); }

double cell_to_double(const std::string& cell) {
  if (cell.empty()) return std::nan("");
  return std::strtod(cell.c_str(), nullptr);
}

std::string_view metric_label(campaign::Analysis a) {
  switch (a) {
    case campaign::Analysis::kEnergy: return "mean uJ/enc";
    case campaign::Analysis::kDpa:
    case campaign::Analysis::kSecondOrder: return "|DoM| peak (pJ)";
    case campaign::Analysis::kCpa: return "max |rho|";
    case campaign::Analysis::kTvla: return "max |t|";
    case campaign::Analysis::kMlpa: return "MLPA score";
    case campaign::Analysis::kCollision: return "collision score";
  }
  return "metric";
}

bool has_column(const util::CsvTable& t, const char* name) {
  return std::find(t.columns.begin(), t.columns.end(), name) !=
         t.columns.end();
}

bool disclosure_table_usable(const util::CsvTable& t) {
  return has_column(t, "traces") && has_column(t, "guess") &&
         has_column(t, "rank");
}

/// The true guess's (traces, rank) points from a disclosure.csv table
/// (checkpoint-major rows of traces,guess,rank,score).
struct DisclosurePoints {
  std::vector<double> traces;
  std::vector<double> ranks;
};

DisclosurePoints true_guess_ranks(const util::CsvTable& t, int true_guess) {
  DisclosurePoints p;
  if (!disclosure_table_usable(t) || true_guess < 0) return p;
  const std::size_t traces_col = t.column("traces");
  const std::size_t guess_col = t.column("guess");
  const std::size_t rank_col = t.column("rank");
  for (const auto& row : t.rows) {
    if (static_cast<int>(cell_to_double(row[guess_col])) != true_guess) {
      continue;
    }
    p.traces.push_back(cell_to_double(row[traces_col]));
    p.ranks.push_back(cell_to_double(row[rank_col]));
  }
  return p;
}

/// Earliest checkpoint trace count from which the rank stays 0 through the
/// last checkpoint; 0 = never disclosed (mirrors
/// analysis::DisclosureCurve::traces_to_disclosure on the CSV artifact).
double disclosure_traces(const DisclosurePoints& p) {
  double disclosed_at = 0.0;
  for (std::size_t i = 0; i < p.ranks.size(); ++i) {
    if (p.ranks[i] == 0.0) {
      if (disclosed_at == 0.0) disclosed_at = p.traces[i];
    } else {
      disclosed_at = 0.0;
    }
  }
  return disclosed_at;
}

/// Deterministic stride downsample so huge per-cycle series stay light.
void downsample(std::vector<double>& xs, std::vector<double>& ys,
                std::size_t max_points) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n <= max_points) return;
  const std::size_t stride = (n + max_points - 1) / max_points;
  std::vector<double> dx;
  std::vector<double> dy;
  for (std::size_t i = 0; i < n; i += stride) {
    dx.push_back(xs[i]);
    dy.push_back(ys[i]);
  }
  xs = std::move(dx);
  ys = std::move(dy);
}

void provenance_section(std::ostringstream& out, const Model& m) {
  out << "<table class=\"prov\">\n";
  const auto row = [&](const char* k, const std::string& v) {
    out << "<tr><th class=\"l\">" << k << "</th><td class=\"l\"><code>"
        << esc(v) << "</code></td></tr>\n";
  };
  row("campaign", m.campaign);
  row("spec hash", m.spec_hash);
  row("generator", m.generator);
  row("manifest", m.manifest_name);
  if (m.sharded) {
    row("shard", std::to_string(m.shard_index) + " of " +
                     std::to_string(m.shard_count) +
                     " (unmerged partition — run `emask-campaign merge` "
                     "for the whole matrix)");
  }
  out << "</table>\n";

  const std::size_t total = m.scenarios.size();
  const std::size_t ok = total - m.failed;
  out << "<p>" << total << " scenario" << (total == 1 ? "" : "s")
      << ": <span class=\"ok\">" << ok << " ok</span>";
  if (m.failed > 0) {
    out << ", <span class=\"fail\">" << m.failed << " failed</span>";
  }
  if (m.missing_artifacts > 0) {
    out << ", <span class=\"miss\">" << m.missing_artifacts
        << " with missing artifacts</span>";
  }
  out << ".</p>\n";
}

void rollup_section(std::ostringstream& out, const Model& m) {
  if (m.rollup.empty()) return;
  out << "<h2>Energy per policy</h2>\n";
  bool any_reference = false;
  for (const auto& r : m.rollup) any_reference |= r.has_reference;

  out << "<table>\n<tr><th class=\"l\">policy</th><th>scenarios</th>"
      << "<th>mean uJ/enc</th><th>ratio</th>";
  if (any_reference) {
    out << "<th>paper uJ</th><th>paper ratio</th><th>normalized uJ</th>";
  }
  out << "</tr>\n";
  for (const auto& r : m.rollup) {
    out << "<tr><td class=\"l\">" << esc(r.policy.name()) << "</td><td>"
        << r.scenarios << "</td><td>" << num_or_na(r.mean_uj) << "</td><td>"
        << num_or_na(r.ratio) << "</td>";
    if (any_reference) {
      if (r.has_reference) {
        out << "<td>" << num_or_na(r.paper_uj) << "</td><td>"
            << num_or_na(r.paper_ratio) << "</td><td>"
            << num_or_na(r.normalized_uj) << "</td>";
      } else {
        out << "<td>n/a</td><td>n/a</td><td>n/a</td>";
      }
    }
    out << "</tr>\n";
  }
  out << "</table>\n";

  BarChartSpec chart;
  chart.y_label = "uJ per encryption";
  for (const auto& r : m.rollup) {
    chart.groups.push_back(r.policy.name());
  }
  if (any_reference) {
    chart.title = "Energy per policy: measured (paper-normalized) vs. paper";
    BarSeries measured{"measured (normalized uJ)", {}};
    BarSeries paper{"paper uJ", {}};
    for (const auto& r : m.rollup) {
      measured.values.push_back(r.has_reference ? r.normalized_uj
                                                : std::nan(""));
      paper.values.push_back(r.has_reference ? r.paper_uj : std::nan(""));
    }
    chart.series.push_back(std::move(measured));
    chart.series.push_back(std::move(paper));
  } else {
    chart.title = "Measured energy per policy";
    BarSeries measured{"measured uJ/enc", {}};
    for (const auto& r : m.rollup) measured.values.push_back(r.mean_uj);
    chart.series.push_back(std::move(measured));
  }
  out << bar_chart(chart) << "\n";
}

void status_section(std::ostringstream& out, const Model& m) {
  if (m.scenarios.empty()) return;
  out << "<h2>Scenario status</h2>\n";
  std::vector<GridCell> cells;
  for (const ScenarioEntry& e : m.scenarios) {
    GridCell cell;
    cell.label = e.scenario.id;
    if (!e.result.success) {
      cell.state = CellState::kFailed;
      cell.label += " — FAILED";
    } else if (!e.artifact_present) {
      cell.state = CellState::kNoArtifact;
      cell.label += " — artifact missing";
    }
    cells.push_back(std::move(cell));
  }
  out << status_grid(cells) << "\n";
  out << "<p class=\"prov\"><span class=\"ok\">&#9632;</span> ok &nbsp; "
      << "<span class=\"fail\">&#9632;</span> failed &nbsp; "
      << "<span class=\"miss\">&#9632;</span> artifact missing</p>\n";

  // Failed / degraded scenarios called out explicitly, never buried.
  if (m.failed > 0) {
    out << "<div class=\"callout\"><b>Failed scenarios</b><ul>\n";
    for (const ScenarioEntry& e : m.scenarios) {
      if (e.result.success) continue;
      out << "<li><code>" << esc(e.scenario.id) << "</code> — "
          << esc(std::string(metric_label(e.scenario.analysis))) << " = "
          << num_or_na(e.result.metric) << "</li>\n";
    }
    out << "</ul></div>\n";
  }
  if (m.missing_artifacts > 0) {
    out << "<div class=\"note\"><b>Missing artifacts</b> (drill-down "
           "degraded to manifest data)<ul>\n";
    for (const ScenarioEntry& e : m.scenarios) {
      if (e.artifact_present) continue;
      out << "<li><code>" << esc(e.scenario.id) << "</code> — expected "
          << "<code>" << esc(e.artifact_path) << "</code></li>\n";
    }
    out << "</ul></div>\n";
  }
}

/// Metric-vs-axis line charts whenever the campaign swept noise or trace
/// budget (one series per policy, one chart per analysis kind).
void sweep_section(std::ostringstream& out, const Model& m) {
  std::ostringstream charts;
  std::vector<campaign::Analysis> kinds;
  for (const ScenarioEntry& e : m.scenarios) {
    if (std::find(kinds.begin(), kinds.end(), e.scenario.analysis) ==
        kinds.end()) {
      kinds.push_back(e.scenario.analysis);
    }
  }
  struct AxisDef {
    const char* label;
    double (*get)(const campaign::Scenario&);
  };
  static const AxisDef kAxes[] = {
      {"noise sigma (pJ)",
       [](const campaign::Scenario& s) { return s.noise_sigma_pj; }},
      {"traces",
       [](const campaign::Scenario& s) {
         return static_cast<double>(s.traces);
       }},
  };
  for (const campaign::Analysis kind : kinds) {
    for (const AxisDef& ax : kAxes) {
      std::set<double> distinct;
      for (const ScenarioEntry& e : m.scenarios) {
        if (e.scenario.analysis == kind) distinct.insert(ax.get(e.scenario));
      }
      if (distinct.size() < 2) continue;
      LineChartSpec spec;
      spec.title = std::string(campaign::analysis_name(kind)) + ": " +
                   std::string(metric_label(kind)) + " vs. " + ax.label;
      spec.x_label = ax.label;
      spec.y_label = std::string(metric_label(kind));
      if (kind == campaign::Analysis::kTvla) spec.hlines = {4.5};
      for (const auto& p : m.rollup) {
        LineSeries series;
        series.label = p.policy.name();
        std::vector<std::pair<double, double>> points;
        for (const ScenarioEntry& e : m.scenarios) {
          if (e.scenario.analysis != kind ||
              e.scenario.policy != p.policy) {
            continue;
          }
          points.emplace_back(ax.get(e.scenario), e.result.metric);
        }
        if (points.empty()) continue;
        std::stable_sort(points.begin(), points.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        for (const auto& [x, y] : points) {
          series.xs.push_back(x);
          series.ys.push_back(y);
        }
        spec.series.push_back(std::move(series));
      }
      if (!spec.series.empty()) charts << line_chart(spec) << "\n";
    }
  }
  const std::string body = charts.str();
  if (body.empty()) return;
  out << "<h2>Sweeps</h2>\n" << body;
}

/// Traces-to-disclosure section: rank-evolution charts (the true guess's
/// rank per trace-count checkpoint, one chart per attack kind with one
/// series per scenario) plus the per-policy summary table.  Emitted only
/// when attack scenarios carry a disclosure.csv artifact, so campaigns
/// without one render byte-identically to before the curve existed.
void disclosure_section(std::ostringstream& out, const Model& m) {
  struct Row {
    const ScenarioEntry* entry;
    DisclosurePoints points;
  };
  std::vector<Row> rows;
  for (const ScenarioEntry& e : m.scenarios) {
    if (!e.disclosure_present) continue;
    DisclosurePoints p = true_guess_ranks(e.disclosure, e.result.true_value);
    if (p.traces.empty()) continue;
    rows.push_back({&e, std::move(p)});
  }
  if (rows.empty()) return;

  out << "<h2>Traces to disclosure</h2>\n"
      << "<p>Rank of the true subkey chunk under each attack's statistic "
         "as traces accumulate (rank 0 = the attack's current best guess). "
         "The disclosure point is the earliest checkpoint from which the "
         "true chunk holds rank 0 through the end of the acquisition.</p>\n";

  std::vector<campaign::Analysis> kinds;
  for (const Row& r : rows) {
    if (std::find(kinds.begin(), kinds.end(), r.entry->scenario.analysis) ==
        kinds.end()) {
      kinds.push_back(r.entry->scenario.analysis);
    }
  }
  for (const campaign::Analysis kind : kinds) {
    LineChartSpec spec;
    spec.title = std::string(campaign::analysis_name(kind)) +
                 ": true-guess rank vs. traces";
    spec.x_label = "traces";
    spec.y_label = "rank of true guess";
    for (const Row& r : rows) {
      if (r.entry->scenario.analysis != kind) continue;
      // Label by policy when it identifies the scenario uniquely within
      // this chart, by full scenario id otherwise.
      std::size_t same_policy = 0;
      for (const Row& other : rows) {
        if (other.entry->scenario.analysis == kind &&
            other.entry->scenario.policy == r.entry->scenario.policy) {
          ++same_policy;
        }
      }
      LineSeries series;
      series.label = same_policy == 1 ? r.entry->scenario.policy.name()
                                      : r.entry->scenario.id;
      series.xs = r.points.traces;
      series.ys = r.points.ranks;
      spec.series.push_back(std::move(series));
    }
    if (!spec.series.empty()) out << line_chart(spec) << "\n";
  }

  out << "<table>\n<tr><th class=\"l\">scenario</th><th class=\"l\">policy"
         "</th><th class=\"l\">analysis</th><th>traces</th>"
         "<th>traces to disclosure</th><th>final rank</th></tr>\n";
  for (const Row& r : rows) {
    const campaign::Scenario& s = r.entry->scenario;
    const double disclosed = disclosure_traces(r.points);
    out << "<tr><td class=\"l\"><code>" << esc(s.id) << "</code></td>"
        << "<td class=\"l\">" << esc(s.policy.name()) << "</td>"
        << "<td class=\"l\">"
        << esc(std::string(campaign::analysis_name(s.analysis))) << "</td>"
        << "<td>" << s.traces << "</td><td>"
        << (disclosed > 0.0 ? num_or_na(disclosed)
                            : std::string("not disclosed"))
        << "</td><td>" << num_or_na(r.points.ranks.back()) << "</td></tr>\n";
  }
  out << "</table>\n";
}

/// Countermeasure Pareto frontier: per-policy mean energy against the
/// attacker's best traces-to-disclosure across that policy's key-ranking
/// attack scenarios.  A policy whose attacks all ran dry is censored at
/// its largest trace budget (hollow marker, "> N" label).  Emitted only
/// when at least one policy has both an energy figure and a disclosure
/// curve, so legacy campaigns render byte-identically.
void pareto_section(std::ostringstream& out, const Model& m) {
  struct Candidate {
    std::string name;
    double energy = std::nan("");
    double disclosed_at = 0.0;  // min over attacks; 0 = never disclosed
    double budget = 0.0;        // largest attack trace budget (censor point)
    bool has_attack = false;
  };
  std::vector<Candidate> cands;
  for (const auto& r : m.rollup) {
    Candidate c;
    c.name = r.policy.name();
    // Paper-normalized energy when the campaign carries a reference scale,
    // raw measured uJ otherwise — the same choice the roll-up chart makes.
    c.energy = std::isfinite(r.normalized_uj) ? r.normalized_uj : r.mean_uj;
    for (const ScenarioEntry& e : m.scenarios) {
      if (!(e.scenario.policy == r.policy) || !e.disclosure_present) continue;
      const DisclosurePoints p =
          true_guess_ranks(e.disclosure, e.result.true_value);
      if (p.traces.empty()) continue;
      c.has_attack = true;
      c.budget = std::max(c.budget, static_cast<double>(e.scenario.traces));
      const double d = disclosure_traces(p);
      if (d > 0.0 && (c.disclosed_at == 0.0 || d < c.disclosed_at)) {
        c.disclosed_at = d;
      }
    }
    if (c.has_attack && std::isfinite(c.energy) && c.energy > 0.0) {
      cands.push_back(std::move(c));
    }
  }
  if (cands.empty()) return;

  ScatterChartSpec spec;
  spec.title = "Countermeasure Pareto: energy vs. traces to disclosure";
  spec.x_label = "uJ per encryption";
  spec.y_label = "traces to disclosure";
  for (const Candidate& c : cands) {
    ScatterPoint p;
    p.x = c.energy;
    const bool censored = c.disclosed_at == 0.0;
    p.y = censored ? c.budget : c.disclosed_at;
    p.open = censored;
    p.label = censored ? c.name + " (> " + num_or_na(c.budget) + ")" : c.name;
    spec.points.push_back(std::move(p));
  }
  // Paper reference energies as dashed vertical lines, on the same scale
  // as the normalized measurements.
  for (const auto& r : m.rollup) {
    if (!r.has_reference) continue;
    spec.vlines.push_back(r.paper_uj);
    spec.vline_labels.push_back(r.policy.name() + " (paper)");
  }
  // Pareto set: cheapest-first sweep keeping points that strictly raise the
  // attacker's cost.  A censored point counts at its budget — it resisted
  // at least that long.
  std::vector<std::size_t> order(spec.points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (spec.points[a].x != spec.points[b].x) {
                       return spec.points[a].x < spec.points[b].x;
                     }
                     return spec.points[a].y > spec.points[b].y;
                   });
  double best_y = -1.0;
  for (const std::size_t idx : order) {
    if (spec.points[idx].y > best_y) {
      best_y = spec.points[idx].y;
      spec.frontier.push_back(idx);
    }
  }

  out << "<h2>Countermeasure Pareto frontier</h2>\n"
      << "<p>Each point is one countermeasure: x is its mean energy per "
         "encryption, y the fewest traces any key-ranking attack in this "
         "campaign needed to disclose the subkey.  Hollow markers never "
         "disclosed within their trace budget and are plotted at that "
         "budget as a lower bound.  The dashed line joins the Pareto set "
         "(no other policy is both cheaper and harder to break); vertical "
         "lines mark the paper's reference energies.</p>\n";
  out << scatter_chart(spec) << "\n";

  out << "<table>\n<tr><th class=\"l\">policy</th><th>uJ/enc</th>"
         "<th>traces to disclosure</th><th>frontier</th></tr>\n";
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Candidate& c = cands[i];
    const bool on_frontier =
        std::find(spec.frontier.begin(), spec.frontier.end(), i) !=
        spec.frontier.end();
    out << "<tr><td class=\"l\">" << esc(c.name) << "</td><td>"
        << num_or_na(c.energy) << "</td><td>"
        << (c.disclosed_at > 0.0
                ? num_or_na(c.disclosed_at)
                : "&gt; " + num_or_na(c.budget) + " (not disclosed)")
        << "</td><td>" << (on_frontier ? "yes" : "") << "</td></tr>\n";
  }
  out << "</table>\n";
}

std::string session_field(const util::CsvTable& t, const char* name) {
  if (!has_column(t, "field") || !has_column(t, "value")) return "";
  const std::size_t field_col = t.column("field");
  const std::size_t value_col = t.column("value");
  for (const auto& row : t.rows) {
    if (row[field_col] == name) return row[value_col];
  }
  return "";
}

/// Session workloads: key-schedule amortization table plus leakage-vs-
/// block-index charts, emitted only when the campaign has session-cipher
/// scenarios (des_cbc / tdes_cbc) carrying session.csv — legacy manifests
/// render byte-identically to before sessions existed.
void session_section(std::ostringstream& out, const Model& m) {
  std::vector<const ScenarioEntry*> rows;
  for (const ScenarioEntry& e : m.scenarios) {
    if (campaign::is_session_cipher(e.scenario.cipher) && e.session_present) {
      rows.push_back(&e);
    }
  }
  if (rows.empty()) return;

  out << "<h2>Session workloads</h2>\n"
      << "<p>Multi-block CBC sessions chained on the device, key schedule "
         "hoisted and computed once per session.  <i>cold cycles</i> is "
         "what the session would cost restarting every block from scratch; "
         "<i>session cycles</i> amortizes the key-schedule prefix across "
         "the blocks.</p>\n";

  out << "<table>\n<tr><th class=\"l\">scenario</th><th class=\"l\">cipher"
         "</th><th>blocks</th><th>stages</th><th>prefix cycles</th>"
         "<th>block cycles</th><th>session cycles</th><th>cold cycles</th>"
         "<th>speedup</th></tr>\n";
  for (const ScenarioEntry* e : rows) {
    const util::CsvTable& t = e->session;
    out << "<tr><td class=\"l\"><code>" << esc(e->scenario.id)
        << "</code></td><td class=\"l\">" << esc(session_field(t, "cipher"))
        << "</td><td>" << esc(session_field(t, "session_length"))
        << "</td><td>" << esc(session_field(t, "stages")) << "</td><td>"
        << esc(session_field(t, "prefix_cycles")) << "</td><td>"
        << esc(session_field(t, "block_cycles")) << "</td><td>"
        << esc(session_field(t, "session_cycles")) << "</td><td>"
        << esc(session_field(t, "cold_cycles")) << "</td><td>"
        << num_or_na(cell_to_double(session_field(t, "amortized_speedup")))
        << "</td></tr>\n";
  }
  out << "</table>\n";

  // Per-block energy: leakage vs. block index for the full-session
  // (energy-analysis) scenarios.  A flat line is the expected shape — a
  // trend with block index would mean the chaining value leaks into the
  // energy envelope.
  LineChartSpec spec;
  spec.title = "Energy per block vs. block index";
  spec.x_label = "block index";
  spec.y_label = "uJ per block";
  for (const ScenarioEntry* e : rows) {
    if (e->scenario.analysis != campaign::Analysis::kEnergy ||
        !e->blocks_present) {
      continue;
    }
    const util::CsvTable& t = e->blocks;
    if (!has_column(t, "block") || !has_column(t, "energy_uj")) continue;
    const std::size_t block_col = t.column("block");
    const std::size_t energy_col = t.column("energy_uj");
    LineSeries series;
    series.label = e->scenario.id;
    for (const auto& row : t.rows) {
      series.xs.push_back(cell_to_double(row[block_col]));
      series.ys.push_back(cell_to_double(row[energy_col]));
    }
    downsample(series.xs, series.ys, 1200);
    spec.series.push_back(std::move(series));
  }
  if (!spec.series.empty()) out << line_chart(spec) << "\n";
}

void artifact_chart(std::ostringstream& out, const ScenarioEntry& e) {
  if (!e.artifact_present) {
    out << "<p class=\"miss\">artifact <code>" << esc(e.artifact_path)
        << "</code> missing — no drill-down chart.</p>\n";
    return;
  }
  const util::CsvTable& t = e.artifact;
  switch (e.scenario.analysis) {
    case campaign::Analysis::kEnergy: {
      // breakdown.csv: component,energy_uj
      BarChartSpec spec;
      spec.title = "Energy breakdown by component";
      spec.y_label = "uJ";
      const std::size_t name_col = t.column("component");
      const std::size_t value_col = t.column("energy_uj");
      BarSeries series{"energy uJ", {}};
      for (const auto& row : t.rows) {
        spec.groups.push_back(row[name_col]);
        series.values.push_back(cell_to_double(row[value_col]));
      }
      spec.width = 840;
      spec.series.push_back(std::move(series));
      out << bar_chart(spec) << "\n";
      break;
    }
    case campaign::Analysis::kDpa:
    case campaign::Analysis::kCpa:
    case campaign::Analysis::kSecondOrder: {
      // guesses.csv: guess,<score>
      if (t.columns.size() < 2) break;
      const std::size_t guess_col = t.column("guess");
      const std::size_t score_col = guess_col == 0 ? 1 : 0;
      LineChartSpec spec;
      spec.title = "Attack score per key guess";
      spec.x_label = "guess";
      spec.y_label = t.columns[score_col];
      LineSeries series{t.columns[score_col], {}, {}};
      for (const auto& row : t.rows) {
        series.xs.push_back(cell_to_double(row[guess_col]));
        series.ys.push_back(cell_to_double(row[score_col]));
      }
      spec.series.push_back(std::move(series));
      out << line_chart(spec) << "\n";
      break;
    }
    case campaign::Analysis::kTvla: {
      // t_per_cycle.csv: cycle,t
      const std::size_t cycle_col = t.column("cycle");
      const std::size_t t_col = t.column("t");
      LineChartSpec spec;
      spec.title = "TVLA |t| per cycle (threshold 4.5)";
      spec.x_label = "cycle";
      spec.y_label = "t";
      spec.hlines = {4.5, -4.5};
      LineSeries series{"t", {}, {}};
      for (const auto& row : t.rows) {
        series.xs.push_back(cell_to_double(row[cycle_col]));
        series.ys.push_back(cell_to_double(row[t_col]));
      }
      downsample(series.xs, series.ys, 1200);
      spec.series.push_back(std::move(series));
      out << line_chart(spec) << "\n";
      break;
    }
    case campaign::Analysis::kMlpa:
    case campaign::Analysis::kCollision: {
      // disclosure.csv: traces,guess,rank,score
      DisclosurePoints p = true_guess_ranks(t, e.result.true_value);
      if (p.traces.empty()) break;
      LineChartSpec spec;
      spec.title = "True-guess rank vs. traces";
      spec.x_label = "traces";
      spec.y_label = "rank of true guess";
      LineSeries series{"rank", std::move(p.traces), std::move(p.ranks)};
      spec.series.push_back(std::move(series));
      out << line_chart(spec) << "\n";
      break;
    }
  }
}

void scenario_section(std::ostringstream& out, const ScenarioEntry& e) {
  const campaign::Scenario& s = e.scenario;
  const campaign::ScenarioResult& r = e.result;
  out << "<details><summary><code>" << esc(s.id) << "</code> — "
      << (r.success ? "<span class=\"ok\">ok</span>"
                    : "<span class=\"fail\">FAILED</span>")
      << ", " << esc(std::string(metric_label(s.analysis))) << " = "
      << num_or_na(r.metric) << "</summary>\n";

  out << "<table><tr><th class=\"l\">parameter</th><th>value</th></tr>\n";
  const auto prow = [&](const char* k, const std::string& v) {
    out << "<tr><td class=\"l\">" << k << "</td><td>" << esc(v)
        << "</td></tr>\n";
  };
  prow("cipher", std::string(campaign::cipher_name(s.cipher)));
  prow("policy", s.policy.name());
  prow("analysis", std::string(campaign::analysis_name(s.analysis)));
  prow("noise sigma (pJ)", num_or_na(s.noise_sigma_pj));
  prow("traces", std::to_string(s.traces));
  if (campaign::is_session_cipher(s.cipher)) {
    prow("session length (blocks)", std::to_string(s.session_length));
  }
  prow("coupling (fF)", num_or_na(s.coupling_ff));
  out << "</table>\n";

  out << "<table><tr><th class=\"l\">result</th><th>value</th></tr>\n";
  prow("encryptions", std::to_string(r.encryptions));
  prow("total cycles", std::to_string(r.total_cycles));
  prow("total instructions", std::to_string(r.total_instructions));
  prow("total energy (uJ)", num_or_na(r.total_energy_uj));
  prow("mean uJ/enc", num_or_na(r.mean_uj()));
  prow("secured instructions", std::to_string(r.secured_count));
  prow("program instructions", std::to_string(r.program_instructions));
  prow(std::string(metric_label(s.analysis)).c_str(), num_or_na(r.metric));
  if (r.best_guess >= 0 || r.true_value >= 0) {
    prow("best guess", std::to_string(r.best_guess));
    prow("true value", std::to_string(r.true_value));
    prow("margin", num_or_na(r.margin));
  }
  if (s.analysis == campaign::Analysis::kTvla) {
    prow("cycles over threshold", std::to_string(r.cycles_over_threshold));
  }
  prow("success", r.success ? "yes" : "no");
  out << "</table>\n";

  artifact_chart(out, e);
  out << "</details>\n";
}

}  // namespace

std::string num_or_na(double v) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string render(const Model& model, const RenderOptions& options) {
  const std::string title =
      options.title.empty() ? "campaign " + model.campaign : options.title;
  std::ostringstream out;
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
      << "<meta charset=\"utf-8\">\n"
      << "<meta name=\"viewport\" content=\"width=device-width, "
         "initial-scale=1\">\n"
      << "<title>" << esc(title) << "</title>\n"
      << "<style>" << kStyle << "</style>\n</head>\n<body>\n";
  out << "<h1>" << esc(title) << "</h1>\n";

  provenance_section(out, model);
  rollup_section(out, model);
  status_section(out, model);
  sweep_section(out, model);
  disclosure_section(out, model);
  pareto_section(out, model);
  session_section(out, model);

  if (!model.scenarios.empty()) {
    out << "<h2>Scenarios</h2>\n";
    for (const ScenarioEntry& e : model.scenarios) {
      scenario_section(out, e);
    }
  }

  out << "<hr><p class=\"prov\">emask-report-v1 &middot; deterministic: "
         "re-rendering the same manifest yields a byte-identical file "
         "&middot; spec hash <code>"
      << esc(model.spec_hash) << "</code></p>\n";
  out << "</body>\n</html>\n";
  return out.str();
}

void write_report(const std::string& path, const std::string& html) {
  std::ofstream out = util::open_for_write(path);
  out << html;
  util::close_or_throw(out, path);
}

std::size_t render_directory(const std::string& dir,
                             const std::string& out_path,
                             const RenderOptions& options) {
  const Model model = Model::load(dir);
  const std::string html = render(model, options);
  write_report(out_path, html);
  return html.size();
}

}  // namespace emask::report
