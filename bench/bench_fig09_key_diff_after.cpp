// Figure 9: "Difference between energy consumption profiles generated using
// two different keys after masking process" — with the compiler-selected
// secure instructions, the round-1 differential is identically flat.
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 9",
                      "Round-1 differential trace for two different keys, "
                      "after selective masking (must be flat).");
  const auto pipeline =
      core::MaskingPipeline::des(compiler::Policy::kSelective);
  util::Rng rng(0xF18);  // same second key as Figure 8
  const std::uint64_t key2 = rng.next_u64();
  const auto r1 = pipeline.run_des(bench::kKey, bench::kPlain);
  const auto r2 = pipeline.run_des(key2, bench::kPlain);
  const analysis::Trace diff = r1.trace.difference(r2.trace);

  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(pipeline.program(), {{"round_loop", 2}})[0];
  const analysis::Trace round1_diff = diff.slice(round1[0], round1[1]);

  bench::SeriesWriter csv("fig09_key_diff_after");
  csv.write_header({"cycle", "diff_pj"});
  for (std::size_t i = 0; i < round1_diff.size(); ++i) {
    csv.write_row({static_cast<double>(round1[0] + i), round1_diff[i]});
  }

  // Also check the whole secured region (everything up to the declassified
  // output permutation).
  const auto body = diff.slice(
      0, static_cast<std::size_t>(static_cast<double>(diff.size()) * 0.95));

  std::printf("round-1 window        : cycles [%zu, %zu)\n", round1[0],
              round1[1]);
  std::printf("round-1 max |diff|    : %.6f pJ  (paper: flat)\n",
              round1_diff.max_abs());
  std::printf("all-rounds max |diff| : %.6f pJ\n", body.max_abs());
  std::printf("series -> %s/fig09_key_diff_after.csv\n",
              bench::out_dir().c_str());
  return (round1_diff.max_abs() == 0.0 && body.max_abs() == 0.0) ? 0 : 1;
}
