// Extension J: operand-isolation ablation — a microarchitectural channel
// *below* the paper's abstraction level, discovered while building this
// reproduction.
//
// The register file is read in ID, two stages before forwarding replaces
// stale values at the EX inputs.  Without operand isolation, a non-secure
// instruction whose source register is about to be overwritten latches the
// register's stale architectural value — possibly secret-derived — into
// the ID/EX pipeline register, *outside* any secure instruction's dual-rail
// protection.  The compiler cannot see this channel (the instruction does
// not architecturally consume the secret); it must be closed in hardware.
// Operand isolation (gating reads that forwarding will supersede — also a
// classic low-power technique) does exactly that.
#include "analysis/tvla.hpp"
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

using namespace emask;

namespace {

struct Outcome {
  double key_diff_peak;
  double tvla_max_t;
  std::size_t tvla_over;
};

Outcome assess(bool isolation, const std::vector<std::uint64_t>& round1) {
  auto masked = core::MaskingPipeline::des(compiler::Policy::kSelective);
  sim::SimConfig config;
  config.operand_isolation = isolation;
  masked.set_sim_config(config);

  const auto d =
      masked.run_des(bench::kKey, bench::kPlain, round1[1])
          .trace.difference(
              masked.run_des(bench::kKeyBitFlipped, bench::kPlain, round1[1])
                  .trace);
  analysis::TvlaAssessment tvla(round1[0], round1[1]);
  util::Rng rng(0x150);
  for (int i = 0; i < 20; ++i) {
    tvla.add_fixed(
        masked.run_des(bench::kKey, bench::kPlain, round1[1]).trace);
    tvla.add_random(
        masked.run_des(bench::kKey, rng.next_u64(), round1[1]).trace);
  }
  const analysis::TvlaResult t = tvla.solve();
  return Outcome{d.slice(round1[0], round1[1]).max_abs(), t.max_abs_t,
                 t.cycles_over_threshold};
}

}  // namespace

int main() {
  bench::print_banner("Extension J",
                      "Operand-isolation ablation: the stale-register "
                      "channel the compiler cannot see.");
  const auto layout = core::MaskingPipeline::des(compiler::Policy::kOriginal);
  // Round 1 = cycles [round1[0], round1[1]).
  const auto round1 =
      core::label_retire_cycles(layout.program(), {{"round_loop", 2}})[0];

  util::CsvWriter csv(bench::out_dir() + "/ext_operand_isolation.csv");
  csv.write_header({"operand_isolation", "masked_key_diff_pj", "tvla_max_t",
                    "tvla_cycles_over"});

  std::printf("%-20s %18s %12s %14s\n", "operand isolation",
              "masked key diff pJ", "TVLA max|t|", "cycles > 4.5");
  Outcome results[2];
  int row = 0;
  for (const bool isolation : {false, true}) {
    const Outcome o = assess(isolation, round1);
    results[row++] = o;
    std::printf("%-20s %18.4f %12.2f %14zu\n", isolation ? "ON" : "off",
                o.key_diff_peak, o.tvla_max_t, o.tvla_over);
    csv.write_row({isolation ? 1.0 : 0.0, o.key_diff_peak, o.tvla_max_t,
                   static_cast<double>(o.tvla_over)});
  }

  std::printf("\nwith isolation off, the fully-masked device still leaks "
              "key-dependent energy\nthrough stale register-file reads "
              "latched under non-secure instructions —\na channel invisible "
              "to the paper's compiler analysis, closed here in hardware.\n");
  const bool ok =
      results[0].key_diff_peak > 0.0 && results[1].key_diff_peak == 0.0 &&
      results[1].tvla_over == 0;
  return ok ? 0 : 1;
}
