// Figure 7: "Difference between energy consumption profiles generated using
// two different secret keys (vary in bit 1), 1st round" — before masking,
// flipping a single key bit produces a visible differential trace already
// in round 1.
#include "bench_common.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 7",
                      "Round-1 differential trace for two keys differing in "
                      "a single bit (unmasked).");
  const auto pipeline =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto r1 = pipeline.run_des(bench::kKey, bench::kPlain);
  const auto r2 = pipeline.run_des(bench::kKeyBitFlipped, bench::kPlain);
  const analysis::Trace diff = r1.trace.difference(r2.trace);

  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(pipeline.program(), {{"round_loop", 2}})[0];
  const analysis::Trace round1_diff = diff.slice(round1[0], round1[1]);

  bench::SeriesWriter csv("fig07_key_bit_diff_round1");
  csv.write_header({"cycle", "diff_pj"});
  for (std::size_t i = 0; i < round1_diff.size(); ++i) {
    csv.write_row({static_cast<double>(round1[0] + i), round1_diff[i]});
  }

  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < round1_diff.size(); ++i) {
    if (round1_diff[i] != 0.0) ++nonzero;
  }
  std::printf("round-1 window        : cycles [%zu, %zu)\n", round1[0],
              round1[1]);
  std::printf("max |diff|            : %.2f pJ  (paper: clearly nonzero)\n",
              round1_diff.max_abs());
  std::printf("nonzero cycles        : %zu of %zu\n", nonzero,
              round1_diff.size());
  std::printf("series -> %s/fig07_key_bit_diff_round1.csv\n",
              bench::out_dir().c_str());
  return round1_diff.max_abs() > 0.0 ? 0 : 1;
}
