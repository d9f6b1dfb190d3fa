// emask-capture: acquire a power-trace set from the simulated DES card and
// save it as an EMTS file for offline analysis (emask-attack --from=FILE).
#include <cstdio>
#include <string>

#include "analysis/trace_io.hpp"
#include "core/batch_runner.hpp"
#include "core/masking_pipeline.hpp"
#include "tool_common.hpp"

using namespace emask;

int main(int argc, char** argv) {
  std::string out_path;
  std::string policy_name = "original";
  std::size_t traces = 400;
  std::uint64_t key = 0x133457799BBCDFF1ull;
  std::uint64_t window_end = 13000;
  double noise_pj = 0.0;
  double coupling_ff = 0.0;

  util::ArgParser parser("emask-capture", "--out=FILE [options]");
  parser.opt_string("out", &out_path, "FILE", "EMTS output path (required)");
  parser.opt_size("traces", &traces, "trace count (default 400)");
  parser.opt_string("policy", &policy_name, "NAME",
                    "device countermeasure: masking (original, selective, "
                    "naive_loadstore, all_secure), hiding (wddl, "
                    "random_precharge, shuffle_nop), or masking+hiding");
  parser.opt_hex("key", &key, "the card's secret key");
  parser.opt_u64("window-end", &window_end,
                 "truncate each encryption after N cycles");
  parser.opt_double("noise", &noise_pj, "Gaussian noise sigma, pJ");
  parser.opt_double("coupling", &coupling_ff, "bus coupling, fF");
  const int parsed = tools::parse_or_usage(parser, argc, argv);
  if (parsed != 0) return parsed > 0 ? 1 : 0;
  if (out_path.empty() || traces < 1) {
    std::fprintf(stderr, "emask-capture: --out=FILE and --traces >= 1 are "
                 "required\n%s", parser.usage().c_str());
    return 1;
  }

  try {
    const hiding::Countermeasure policy = tools::to_countermeasure(policy_name);
    const auto device =
        core::MaskingPipeline::des(policy, tools::tech_params(coupling_ff));
    // Parallel capture streamed straight to disk: the plaintext for trace i
    // is Rng::nth(0xA77AC4, i) — the same stream emask-attack replays —
    // and measurement noise is seeded per trace index, so the file is
    // identical no matter how many worker threads acquired it.
    core::BatchConfig bc;
    bc.stop_after_cycles = window_end;
    bc.noise_sigma_pj = noise_pj;
    bc.noise_seed = 0xC0FFEE;
    const core::BatchStats stats =
        core::BatchRunner(device, bc).capture_to_file(
            out_path, traces, core::random_plaintexts(key, 0xA77AC4));
    std::printf(
        "wrote %llu traces x %llu cycles to %s\n"
        "  %zu threads, %.2f s wall, %.1f enc/s, %.0f kcycle/s, %.3f uJ "
        "total\n",
        static_cast<unsigned long long>(stats.encryptions),
        static_cast<unsigned long long>(stats.encryptions
                                            ? stats.total_cycles /
                                                  stats.encryptions
                                            : 0),
        out_path.c_str(), stats.threads_used, stats.wall_seconds,
        stats.encryptions_per_sec(), stats.cycles_per_sec() / 1e3,
        stats.total_energy_uj);
    return 0;
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), parser.usage().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emask-capture: %s\n", e.what());
    return 2;
  }
}
