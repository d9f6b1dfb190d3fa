// The key-ranking attacks on one round-1 DES S-box — DPA, CPA, MLPA and
// collision — as rows of one table behind one function.  The campaign
// runner and emask-attack both drive their attacks through it: configure,
// install the bitsliced hypothesis provider, feed the traces in index
// order, sample the traces-to-disclosure curve at its deterministic
// schedule, solve.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/disclosure.hpp"
#include "analysis/trace.hpp"
#include "campaign/spec.hpp"
#include "core/phase_profile.hpp"

namespace emask::campaign {

/// True for the attacks that read only their S-box's round-1 window (MLPA,
/// collision: adjacent S-boxes share expansion bits, so a round-wide window
/// plants ghost correlations); DPA and CPA read a round-wide window.
[[nodiscard]] bool reads_sbox_window(Analysis attack);

/// Receives one trace and the input the round-1 hypotheses take.
using TraceSink =
    std::function<void(std::uint64_t input, const analysis::Trace& trace)>;

/// An attack's traces: `stream` hands all `count` of them to the sink, in
/// index order.
struct TraceFeed {
  std::size_t count = 0;
  std::function<void(const TraceSink&)> stream;
};

struct AttackOutcome {
  int best_guess = -1;
  double metric = 0.0;         // headline score of the best guess
  double margin = 0.0;         // best over runner-up
  std::vector<double> scores;  // per guess
  const char* score_name = "";  // the score's guesses.csv column
  analysis::DisclosureCurve disclosure;
};

/// Runs `attack` (dpa, cpa, mlpa or collision) on S-box `sbox` (0..7) over
/// the cycle `window`; `bit` is DPA's target output bit.  Throws
/// std::invalid_argument for any other analysis.
[[nodiscard]] AttackOutcome run_table_attack(Analysis attack, int sbox,
                                             int bit, core::SboxWindow window,
                                             const TraceFeed& feed);

}  // namespace emask::campaign
