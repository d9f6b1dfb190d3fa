#include "campaign/attack.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "analysis/collision.hpp"
#include "analysis/cpa.hpp"
#include "analysis/dpa.hpp"
#include "analysis/mlpa.hpp"
#include "bitslice/providers.hpp"

namespace emask::campaign {
namespace {

/// One row per attack: configuration, bitsliced hypothesis provider,
/// per-guess score vector, headline metric and the guesses.csv column.
template <typename Attack>
struct AttackRow;

template <>
struct AttackRow<analysis::DpaAttack> {
  using Config = analysis::DpaConfig;
  static constexpr auto kScores = &analysis::DpaResult::peak_per_guess;
  static constexpr auto kMetric = &analysis::DpaResult::best_peak;
  static constexpr const char* kColumn = "dom_peak_pj";
  static auto provider(const Config& cfg, const analysis::DpaAttack&) {
    return std::make_shared<bitslice::DpaProvider>(cfg.sbox, cfg.bit);
  }
};

template <>
struct AttackRow<analysis::CpaAttack> {
  using Config = analysis::CpaConfig;
  static constexpr auto kScores = &analysis::CpaResult::corr_per_guess;
  static constexpr auto kMetric = &analysis::CpaResult::best_corr;
  static constexpr const char* kColumn = "abs_rho";
  static auto provider(const Config& cfg, const analysis::CpaAttack&) {
    return std::make_shared<bitslice::CpaProvider>(cfg.sbox);
  }
};

template <>
struct AttackRow<analysis::MlpaAttack> {
  using Config = analysis::MlpaConfig;
  static constexpr auto kScores = &analysis::MlpaResult::score_per_guess;
  static constexpr auto kMetric = &analysis::MlpaResult::best_score;
  static constexpr const char* kColumn = "mlpa_score";
  static auto provider(const Config& cfg, const analysis::MlpaAttack& mlpa) {
    std::vector<int> in_masks;
    for (const analysis::LinearApprox& ap : mlpa.approximations()) {
      in_masks.push_back(ap.in_mask);
    }
    return std::make_shared<bitslice::MlpaProvider>(cfg.sbox,
                                                    std::move(in_masks));
  }
};

template <>
struct AttackRow<analysis::CollisionAttack> {
  using Config = analysis::CollisionConfig;
  static constexpr auto kScores = &analysis::CollisionResult::score_per_guess;
  static constexpr auto kMetric = &analysis::CollisionResult::best_score;
  static constexpr const char* kColumn = "collision_score";
  static auto provider(const Config& cfg, const analysis::CollisionAttack&) {
    return std::make_shared<bitslice::CollisionProvider>(cfg.sbox);
  }
};

template <typename Scores>
std::vector<double> as_scores(const Scores& scores) {
  return std::vector<double>(scores.begin(), scores.end());
}

template <typename Attack>
AttackOutcome run_row(int sbox, int bit, core::SboxWindow window,
                      const TraceFeed& feed) {
  using Row = AttackRow<Attack>;
  typename Row::Config cfg;
  cfg.sbox = sbox;
  if constexpr (std::is_same_v<Attack, analysis::DpaAttack>) cfg.bit = bit;
  cfg.window_begin = window.begin;
  cfg.window_end = window.end;
  Attack attack(cfg);
  attack.set_provider(Row::provider(cfg, attack));
  // Mid-stream solves at the curve's deterministic checkpoints.  Traces
  // arrive in index order regardless of thread count, so the curve is
  // byte-identical across --jobs values.
  const std::vector<std::size_t> checkpoints =
      analysis::DisclosureCurve::schedule(feed.count);
  AttackOutcome out;
  std::size_t seen = 0;
  std::size_t next = 0;
  feed.stream([&](std::uint64_t input, const analysis::Trace& trace) {
    attack.add_trace(input, trace);
    ++seen;
    if (next < checkpoints.size() && seen == checkpoints[next]) {
      out.disclosure.add_checkpoint(seen,
                                    as_scores(attack.solve().*Row::kScores));
      ++next;
    }
  });
  const auto result = attack.solve();
  out.best_guess = result.best_guess;
  out.metric = result.*Row::kMetric;
  out.margin = result.margin();
  out.scores = as_scores(result.*Row::kScores);
  out.score_name = Row::kColumn;
  return out;
}

}  // namespace

bool reads_sbox_window(Analysis attack) {
  return attack == Analysis::kMlpa || attack == Analysis::kCollision;
}

AttackOutcome run_table_attack(Analysis attack, int sbox, int bit,
                               core::SboxWindow window,
                               const TraceFeed& feed) {
  switch (attack) {
    case Analysis::kDpa:
      return run_row<analysis::DpaAttack>(sbox, bit, window, feed);
    case Analysis::kCpa:
      return run_row<analysis::CpaAttack>(sbox, bit, window, feed);
    case Analysis::kMlpa:
      return run_row<analysis::MlpaAttack>(sbox, bit, window, feed);
    case Analysis::kCollision:
      return run_row<analysis::CollisionAttack>(sbox, bit, window, feed);
    default:
      throw std::invalid_argument("analysis '" +
                                  std::string(analysis_name(attack)) +
                                  "' is not a key-ranking table attack");
  }
}

}  // namespace emask::campaign
