// Figure 12: "Additional energy consumed due to the energy masking
// operation during the 1st key permutation" — per-cycle (selective −
// original) overhead over the PC-1 region.  The paper reports ~45 pJ/cycle
// of additional energy against a ~165 pJ/cycle average, and notes that the
// overhead is paid even where the differential profile showed no difference
// ("we need to be conservative to account for all possible inputs").
#include "bench_common.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 12",
                      "Per-cycle masking overhead during the first key "
                      "permutation (selective - original).");
  const auto original =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto masked =
      core::MaskingPipeline::des(compiler::Policy::kSelective);
  const auto r_orig = original.run_des(bench::kKey, bench::kPlain);
  const auto r_mask = masked.run_des(bench::kKey, bench::kPlain);
  const analysis::Trace overhead = r_mask.trace.difference(r_orig.trace);

  // PC-1 region: from the first fetch of pc1_loop to the first fetch of
  // round_loop.
  const auto first = core::label_retire_cycles(
      original.program(), {{"pc1_loop", 1}, {"round_loop", 1}});
  const std::size_t begin = first[0][0];
  const std::size_t end = first[1][0];
  const analysis::Trace region = overhead.slice(begin, end);

  bench::SeriesWriter csv("fig12_masking_overhead");
  csv.write_header({"cycle", "overhead_pj"});
  for (std::size_t i = 0; i < region.size(); ++i) {
    csv.write_row({static_cast<double>(begin + i), region[i]});
  }

  double sum = 0.0;
  for (std::size_t i = 0; i < region.size(); ++i) sum += region[i];
  const double mean_overhead =
      region.size() ? sum / static_cast<double>(region.size()) : 0.0;

  std::printf("key-permutation window: cycles [%zu, %zu)\n", begin, end);
  std::printf("mean overhead         : %.1f pJ/cycle (paper: ~45)\n",
              mean_overhead);
  std::printf("peak overhead         : %.1f pJ/cycle\n", region.max_abs());
  std::printf("baseline average      : %.1f pJ/cycle (paper: ~165)\n",
              r_orig.trace.mean_pj());
  std::printf("whole-run overhead    : %.1f pJ/cycle\n",
              r_mask.trace.mean_pj() - r_orig.trace.mean_pj());
  std::printf("series -> %s/fig12_masking_overhead.csv\n",
              bench::out_dir().c_str());
  return mean_overhead > 0.0 ? 0 : 1;
}
