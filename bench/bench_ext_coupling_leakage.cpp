// Extension F: the paper's own stated limitation, quantified.
//
//   "The use of complementary values and dual rail logic alone will not be
//    sufficient in the future.  This is because power consumption
//    differences will also arise due to signal transitions on adjacent
//    lines of on-chip buses [8].  Current dual-rail encoding schemes do not
//    mask the key leakage arising due to these differences."  (Sec. 5)
//
// With inter-wire coupling enabled in the bus model, the dual-rail secure
// transfers still switch a constant number of lines, but *which* lines fall
// depends on the data — and the coupling term leaks the adjacent-bit
// pattern.  This bench shows the selectively masked device going from
// perfectly flat (no coupling) to measurably leaky (with coupling).
#include "analysis/cpa.hpp"
#include "analysis/dpa.hpp"
#include "analysis/tvla.hpp"
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

using namespace emask;

namespace {

double masked_key_differential(const energy::TechParams& params,
                               const std::vector<std::uint64_t>& round1) {
  const auto masked =
      core::MaskingPipeline::des(compiler::Policy::kSelective, params);
  const auto d = masked.run_des(bench::kKey, bench::kPlain, round1[1])
                     .trace.difference(
                         masked.run_des(bench::kKeyBitFlipped, bench::kPlain,
                                        round1[1])
                             .trace);
  return d.slice(round1[0], round1[1]).max_abs();
}

}  // namespace

int main() {
  bench::print_banner("Extension F",
                      "Residual leakage of dual-rail masking under "
                      "adjacent-line bus coupling (the paper's conclusion).");
  const auto layout = core::MaskingPipeline::des(compiler::Policy::kOriginal);
  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(layout.program(), {{"round_loop", 2}})[0];

  util::CsvWriter csv(bench::out_dir() + "/ext_coupling_leakage.csv");
  csv.write_header({"coupling_ff", "masked_round1_key_diff_pj"});

  std::printf("%16s %32s\n", "coupling C (fF)", "masked round-1 key diff (pJ)");
  double without = -1.0, with_coupling = -1.0;
  for (const double c_ff : {0.0, 5.0, 10.0, 20.0}) {
    const auto params =
        c_ff == 0.0 ? energy::TechParams::smartcard_025um()
                    : energy::TechParams::smartcard_025um_with_coupling(
                          c_ff * 1e-15);
    const double diff = masked_key_differential(params, round1);
    std::printf("%16.1f %32.4f\n", c_ff, diff);
    csv.write_row({c_ff, diff});
    if (c_ff == 0.0) without = diff;
    if (c_ff == 20.0) with_coupling = diff;
  }

  // The channel is not just measurable — it is exploitable: run the CPA
  // key-recovery attack against the *masked* device with 20 fF coupling.
  std::printf("\n-- CPA against the MASKED device, 20 fF coupling --\n");
  const auto masked = core::MaskingPipeline::des(
      compiler::Policy::kSelective,
      energy::TechParams::smartcard_025um_with_coupling(20e-15));
  analysis::CpaConfig cfg;
  cfg.sbox = 0;
  cfg.window_begin = round1[0];
  cfg.window_end = round1[1];
  analysis::CpaAttack attack(cfg);
  util::Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t pt = rng.next_u64();
    attack.add_trace(pt,
                     masked.run_des(bench::kKey, pt, round1[1]).trace);
  }
  const analysis::CpaResult r = attack.solve();
  const int truth = analysis::DpaAttack::true_subkey_chunk(bench::kKey, 0);
  const bool broken = r.best_guess == truth;
  std::printf("400 traces: best guess %d (truth %d), |rho| = %.3f, margin "
              "%.2fx -> key chunk %s\n",
              r.best_guess, truth, r.best_corr, r.margin(),
              broken ? "RECOVERED" : "not recovered");

  std::printf("\nwithout coupling the masked device is exactly flat; with "
              "coupling the\nsecure buses leak the adjacent-bit pattern of "
              "key-derived values — and the\nleak is strong enough for "
              "full CPA key recovery.  This is precisely the\nresidual "
              "channel the paper's conclusion flags as future work.\n");
  return (without == 0.0 && with_coupling > 0.0 && broken) ? 0 : 1;
}
