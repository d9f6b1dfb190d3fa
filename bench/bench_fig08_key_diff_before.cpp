// Figure 8: "Difference between energy consumption profiles generated using
// two different keys before masking process" (first round shown for
// clarity, as in the paper).
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 8",
                      "Round-1 differential trace for two different keys, "
                      "before masking.");
  const auto pipeline =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  util::Rng rng(0xF18);
  const std::uint64_t key2 = rng.next_u64();
  const auto r1 = pipeline.run_des(bench::kKey, bench::kPlain);
  const auto r2 = pipeline.run_des(key2, bench::kPlain);
  const analysis::Trace diff = r1.trace.difference(r2.trace);

  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(pipeline.program(), {{"round_loop", 2}})[0];
  const analysis::Trace round1_diff = diff.slice(round1[0], round1[1]);

  bench::SeriesWriter csv("fig08_key_diff_before");
  csv.write_header({"cycle", "diff_pj"});
  for (std::size_t i = 0; i < round1_diff.size(); ++i) {
    csv.write_row({static_cast<double>(round1[0] + i), round1_diff[i]});
  }

  std::printf("round-1 window        : cycles [%zu, %zu)\n", round1[0],
              round1[1]);
  std::printf("max |diff|            : %.2f pJ  (paper: large, structured)\n",
              round1_diff.max_abs());
  std::printf("mean |diff|           : %.3f pJ/cycle\n", [&] {
    double s = 0;
    for (std::size_t i = 0; i < round1_diff.size(); ++i)
      s += std::abs(round1_diff[i]);
    return round1_diff.size() ? s / static_cast<double>(round1_diff.size())
                              : 0.0;
  }());
  std::printf("series -> %s/fig08_key_diff_before.csv\n",
              bench::out_dir().c_str());
  return round1_diff.max_abs() > 0.0 ? 0 : 1;
}
