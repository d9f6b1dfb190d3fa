// Figure 11: "Difference between energy consumption generated using two
// different plaintexts after masking process" — the initial plaintext
// permutation is deliberately unprotected ("since this process is not
// operated in a secure mode, the differences in the input values result in
// the difference"), so its region still differs; the sixteen secured rounds
// are flat.
#include "bench_common.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 11",
                      "Differential trace for two different plaintexts, "
                      "after selective masking: only the (unprotected) "
                      "initial permutation and the (public) output "
                      "permutation differ.");
  const auto pipeline =
      core::MaskingPipeline::des(compiler::Policy::kSelective);
  const auto r1 = pipeline.run_des(bench::kKey, bench::kPlain);
  const auto r2 = pipeline.run_des(bench::kKey, bench::kPlain2);
  const analysis::Trace diff = r1.trace.difference(r2.trace);

  bench::SeriesWriter csv("fig11_plaintext_diff_after");
  csv.write_header({"cycle", "diff_pj"});
  for (std::size_t i = 0; i < diff.size(); ++i) {
    csv.write_row({static_cast<double>(i), diff[i]});
  }

  const auto first = core::label_retire_cycles(
      pipeline.program(), {{"round_loop", 1}, {"pre_r", 1}});
  const std::size_t rounds_begin = first[0][0];
  const std::size_t rounds_end = first[1][0];
  const auto ip_region = diff.slice(0, rounds_begin);
  const auto rounds = diff.slice(rounds_begin, rounds_end);
  const auto output = diff.slice(rounds_end, diff.size());

  std::printf("initial permutation   : max |diff| %.2f pJ (unprotected: "
              "nonzero, as in the paper)\n",
              ip_region.max_abs());
  std::printf("16 secured rounds     : max |diff| %.6f pJ (must be flat)\n",
              rounds.max_abs());
  std::printf("output permutation    : max |diff| %.2f pJ (public data)\n",
              output.max_abs());
  std::printf("series -> %s/fig11_plaintext_diff_after.csv\n",
              bench::out_dir().c_str());
  return (ip_region.max_abs() > 0.0 && rounds.max_abs() == 0.0) ? 0 : 1;
}
