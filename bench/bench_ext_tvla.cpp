// Extension D: TVLA fixed-vs-random leakage assessment of the four
// protection policies — the certification-style methodology: any per-cycle
// Welch |t| above 4.5 is significant leakage.
//
// Two windows are assessed:
//   * round 1 (the DPA attack surface): masked policies must show |t| = 0;
//   * the whole prefix including the initial permutation: every policy
//     shows the plaintext-driven IP residual there (paper Fig. 11), which
//     carries no key information.
#include "analysis/tvla.hpp"
#include "bench_common.hpp"
#include "compiler/masking.hpp"
#include "core/batch_runner.hpp"

using namespace emask;

int main() {
  bench::print_banner("Extension D",
                      "TVLA fixed-vs-random assessment per policy "
                      "(threshold |t| > 4.5).");
  constexpr int kPairs = 30;
  const compiler::Policy policies[] = {
      compiler::Policy::kOriginal, compiler::Policy::kSelective,
      compiler::Policy::kNaiveLoadStore, compiler::Policy::kAllSecure};

  // Round-1 window (same instruction layout under every policy).
  const auto layout = core::MaskingPipeline::des(compiler::Policy::kOriginal);
  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(layout.program(), {{"round_loop", 2}})[0];
  const std::size_t stop = round1[1];

  bench::SeriesWriter csv("ext_tvla");
  csv.write_header({"policy", "round1_max_abs_t", "round1_cycles_over",
                    "prefix_max_abs_t", "prefix_cycles_over"});

  std::printf("window: round 1 = cycles [%zu, %zu)\n\n", round1[0],
              round1[1]);
  std::printf("%-16s | %10s %12s | %10s %12s\n", "policy", "r1 max|t|",
              "r1 cycles>4.5", "pre max|t|", "pre cycles>4.5");
  bool ok = true;
  for (int p = 0; p < 4; ++p) {
    const auto pipeline = core::MaskingPipeline::des(policies[p]);
    analysis::TvlaAssessment tvla_round(round1[0], round1[1]);
    analysis::TvlaAssessment tvla_prefix(0, round1[0]);
    // The fixed-class trace is one deterministic simulation — capture it
    // once instead of re-running it per pair; the random class is a
    // BatchRunner batch (random plaintext i = Rng::nth(0x71A, i), the same
    // stream the old per-pair serial loop drew).
    core::BatchConfig bc;
    bc.stop_after_cycles = stop;
    core::BatchRunner runner(pipeline, bc);
    const auto fixed = pipeline.run_des(bench::kKey, bench::kPlain, stop).trace;
    runner.capture_each(
        kPairs, core::random_plaintexts(bench::kKey, 0x71A),
        [&](std::size_t, const core::BatchInput&, core::EncryptionRun& run) {
          tvla_round.add_fixed(fixed);
          tvla_round.add_random(run.trace);
          tvla_prefix.add_fixed(fixed);
          tvla_prefix.add_random(run.trace);
        });
    const analysis::TvlaResult r = tvla_round.solve();
    const analysis::TvlaResult pre = tvla_prefix.solve();
    std::printf("%-16s | %10.2f %12zu | %10.2f %12zu\n",
                compiler::policy_name(policies[p]).data(), r.max_abs_t,
                r.cycles_over_threshold, pre.max_abs_t,
                pre.cycles_over_threshold);
    csv.write_row({static_cast<double>(p), r.max_abs_t,
                   static_cast<double>(r.cycles_over_threshold), pre.max_abs_t,
                   static_cast<double>(pre.cycles_over_threshold)});
    if (policies[p] == compiler::Policy::kOriginal) {
      ok &= r.leaks();  // the unprotected device must fail in round 1
    } else if (policies[p] == compiler::Policy::kSelective ||
               policies[p] == compiler::Policy::kAllSecure) {
      ok &= !r.leaks();
    }
    // kNaiveLoadStore is *expected* to leak in round 1: securing only the
    // loads and stores leaves the XOR/shift/add units and their pipeline
    // registers carrying key-derived values unmasked.  The paper uses the
    // naive policy purely as an energy-cost comparison point; this
    // assessment shows it is also weaker protection than the (cheaper)
    // compiler-directed scheme.
  }
  csv.flush();
  std::printf("\n(The prefix column is the unprotected initial permutation: "
              "plaintext-driven, key-free — the paper's Fig. 11 residual.\n"
              " Note naive_loadstore LEAKING in round 1: loads/stores alone "
              "miss the ALU traffic; the slice-directed scheme is both "
              "cheaper and tighter.)\n");
  return ok ? 0 : 1;
}
