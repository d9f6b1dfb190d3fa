// Figure 6: "Energy consumption trace of encryption (every 100 cycles)" —
// the energy profile of the original (unmasked) DES reveals the sixteen
// rounds to a single-trace SPA attacker.
#include "analysis/spa.hpp"
#include "bench_common.hpp"

using namespace emask;

int main() {
  bench::print_banner("Figure 6",
                      "Energy trace of one unmasked encryption; the 16 "
                      "rounds must be visible to SPA.");
  const auto pipeline =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto run = pipeline.run_des(bench::kKey, bench::kPlain);

  const std::size_t window = 100;
  const analysis::Trace profile = run.trace.windowed_average(window);
  bench::SeriesWriter csv("fig06_energy_trace");
  csv.write_header({"cycle", "energy_pj_per_cycle"});
  for (std::size_t i = 0; i < profile.size(); ++i) {
    csv.write_row({static_cast<double>(i * window), profile[i]});
  }

  // SPA: recover the round period from the single trace.
  const analysis::Trace fine = run.trace.windowed_average(50);
  const analysis::SpaResult spa = analysis::detect_rounds(fine, 100, 220);
  const auto starts =
      core::label_retire_cycles(pipeline.program(), {{"round_loop", 2}})[0];

  std::printf("cycles per encryption : %llu\n",
              static_cast<unsigned long long>(run.sim.cycles));
  std::printf("average energy        : %.1f pJ/cycle (paper: ~165)\n",
              run.trace.mean_pj());
  std::printf("SPA period            : %zu cycles (true round length %llu)\n",
              spa.best_period * 50,
              static_cast<unsigned long long>(
                  starts[1] - starts[0]));
  std::printf("SPA repetitions       : %d (paper: 16 rounds visible)\n",
              spa.repetitions);
  std::printf("SPA periodicity score : %.3f\n", spa.periodicity);
  std::printf("series -> %s/fig06_energy_trace.csv\n", bench::out_dir().c_str());
  return spa.repetitions == 16 ? 0 : 1;
}
