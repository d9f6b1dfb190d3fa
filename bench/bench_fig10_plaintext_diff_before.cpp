// Figure 10: "Difference between energy consumption profiles generated
// using two different plaintexts before masking process."
#include "bench_common.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 10",
                      "Differential trace for two different plaintexts, "
                      "same key, before masking.");
  const auto pipeline =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto r1 = pipeline.run_des(bench::kKey, bench::kPlain);
  const auto r2 = pipeline.run_des(bench::kKey, bench::kPlain2);
  const analysis::Trace diff = r1.trace.difference(r2.trace);

  bench::SeriesWriter csv("fig10_plaintext_diff_before");
  csv.write_header({"cycle", "diff_pj"});
  for (std::size_t i = 0; i < diff.size(); ++i) {
    csv.write_row({static_cast<double>(i), diff[i]});
  }

  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(pipeline.program(), {{"round_loop", 2}})[0];
  const auto rounds = diff.slice(round1[0], diff.size());
  std::printf("max |diff| overall    : %.2f pJ\n", diff.max_abs());
  std::printf("max |diff| in rounds  : %.2f pJ  (paper: nonzero everywhere)\n",
              rounds.max_abs());
  std::printf("series -> %s/fig10_plaintext_diff_before.csv\n",
              bench::out_dir().c_str());
  return (diff.max_abs() > 0.0 && rounds.max_abs() > 0.0) ? 0 : 1;
}
