// Phase-level energy profiling: energy per labelled program region.
//
// Text labels partition the instruction index space; each cycle's energy
// is attributed to the phase of the instruction retiring that cycle.  For
// the DES program this reproduces, in numbers, what the paper's Fig. 6
// shows as a picture: how much each permutation/round phase consumes, and
// (diffing two policies) where the masking overhead concentrates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/masking_pipeline.hpp"

namespace emask::core {

struct PhaseEnergy {
  std::string label;          // the phase's leading text label
  std::uint32_t begin = 0;    // instruction index range [begin, end)
  std::uint32_t end = 0;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;

  [[nodiscard]] double pj_per_cycle() const {
    return cycles ? energy_uj * 1e6 / static_cast<double>(cycles) : 0.0;
  }
};

/// Profiles the cold run of `input` on `pipeline` — same pokes, same
/// energy model (hiding included) as MaskingPipeline::run, so the phase
/// energies sum to that run's total — and returns per-phase totals,
/// ordered by first instruction index.  Bubble and stall cycles attribute
/// to the phase of the most recent retirement.
[[nodiscard]] std::vector<PhaseEnergy> profile_phases(
    const MaskingPipeline& pipeline, const BatchInput& input = {});

/// One text label a dry run watches, and how many of its retirements to
/// record (0 = every one, which runs the program to halt).
struct LabelQuery {
  std::string label;
  std::size_t count = 0;
};

/// Retire cycles of the queried text labels (one list per query, in query
/// order) from a dry pipeline run of `program` — no energy model — with
/// `pokes` applied.  Wrong-path fetches after taken branches do not count.
/// The run stops as soon as every query has its count.  Throws
/// std::invalid_argument naming a label the program lacks.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> label_retire_cycles(
    const assembler::Program& program, const std::vector<LabelQuery>& queries,
    const std::vector<sim::SymbolPoke>& pokes = {});

/// Round-1 cycle window [begin, end) of one DES S-box (0..7), located via
/// the retire cycles of the assembly generator's `sbox_loop` /
/// `round_loop` labels.  The per-S-box attacks (MLPA, collision) window
/// this tightly because adjacent S-boxes share expansion bits, so their
/// cycles plant ghost correlations for wrong guesses.
///
/// The program decides how wide the window is: when it has a `nop_tab`
/// (shuffle_slots), `begin` comes from the zero-delay schedule (the
/// earliest the S-box can start) and `end` from the schedule with every
/// slot at hiding::kShuffleNopMaxDelay (the latest it can finish), so the
/// window covers every schedule a shuffle_nop device can draw.  Throws
/// std::invalid_argument for an S-box outside 0..7 or a program without
/// the generator's labels.
struct SboxWindow {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] bool valid() const { return end > begin; }
};

[[nodiscard]] SboxWindow des_round1_sbox_window(
    const assembler::Program& program, int sbox);

}  // namespace emask::core
