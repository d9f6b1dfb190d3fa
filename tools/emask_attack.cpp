// emask-attack: mount side-channel attacks against the simulated DES
// smart card.
//
//   emask-attack [options]
//
// Exit status: 0 attack succeeded (or TVLA passed), 1 usage error,
// 2 runtime error, 3 attack failed / leakage detected.
#include <cstdio>
#include <string>

#include "analysis/dpa.hpp"
#include "analysis/trace_io.hpp"
#include "analysis/tvla.hpp"
#include "campaign/attack.hpp"
#include "core/batch_runner.hpp"
#include "core/leakage_map.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "tool_common.hpp"
#include "util/rng.hpp"

using namespace emask;

namespace {
// Round 1 of the classic program: where DPA, CPA and TVLA look, and where
// a live round-wide capture stops.
constexpr core::SboxWindow kRound1{3000, 13000};
}  // namespace

int main(int argc, char** argv) {
  std::string attack = "cpa";
  std::string policy_name = "original";
  int traces = 400;
  int sbox = 1;
  int bit = 0;
  std::uint64_t key = 0x133457799BBCDFF1ull;
  double noise_pj = 0.0;
  double coupling_ff = 0.0;
  std::string from_path;

  util::ArgParser parser("emask-attack", "[options]");
  parser.opt_choice("attack", &attack,
                    {"dpa", "cpa", "mlpa", "collision", "tvla", "localize"},
                    "attack type (default cpa)");
  parser.opt_string("policy", &policy_name, "NAME",
                    "device countermeasure (default original): masking "
                    "(original, selective, naive_loadstore, all_secure), "
                    "hiding (wddl, random_precharge, shuffle_nop), or "
                    "masking+hiding");
  parser.opt_int("traces", &traces, "trace budget (default 400)");
  parser.opt_int("sbox", &sbox, "target round-1 S-box, 1..8 (default 1)");
  parser.opt_int("bit", &bit, "DPA target output bit, 0..3 (default 0)");
  parser.opt_hex("key", &key, "the card's (secret) key");
  parser.opt_double("noise", &noise_pj,
                    "Gaussian measurement noise sigma, pJ");
  parser.opt_double("coupling", &coupling_ff,
                    "adjacent-line bus coupling, fF");
  parser.opt_string("from", &from_path, "FILE",
                    "attack a captured EMTS trace set (see emask-capture) "
                    "instead of the live card");
  const int parsed = tools::parse_or_usage(parser, argc, argv);
  if (parsed != 0) return parsed > 0 ? 1 : 0;

  sbox -= 1;  // user-facing 1..8 -> internal 0..7
  if (sbox < 0 || sbox > 7 || bit < 0 || bit > 3 || traces < 2) {
    std::fprintf(stderr,
                 "emask-attack: need --sbox in 1..8, --bit in 0..3, "
                 "--traces >= 2\n%s",
                 parser.usage().c_str());
    return 1;
  }

  try {
    const hiding::Countermeasure policy = tools::to_countermeasure(policy_name);
    const auto device =
        core::MaskingPipeline::des(policy, tools::tech_params(coupling_ff));

    // Offline mode: replay a captured trace set instead of the live card.
    analysis::TraceSet offline;
    if (!from_path.empty()) {
      offline = analysis::load_trace_set(from_path);
      traces = static_cast<int>(offline.size());
      std::printf("loaded %zu traces x %zu cycles from %s\n", offline.size(),
                  offline.traces.empty() ? 0 : offline.traces[0].size(),
                  from_path.c_str());
    } else {
      std::printf("device   : %s policy, %s coupling, noise sigma %.1f pJ\n",
                  policy.name().c_str(),
                  coupling_ff > 0 ? "with" : "no", noise_pj);
      std::printf("capturing %d round-1 traces...\n", traces);
    }

    if (attack == "localize") {
      const core::LeakageMap map = core::localize_des_leakage(
          device, key, 0x0123456789ABCDEFull, std::max(2, traces / 2));
      std::printf("leaking cycles: %zu (max |t| %.1f) across %zu source "
                  "sites\n",
                  map.total_leaking_cycles, map.max_abs_t, map.sites.size());
      std::printf("%6s %6s  %-26s %8s %8s\n", "line", "index", "instruction",
                  "cycles", "max |t|");
      int shown = 0;
      for (const core::LeakSite& site : map.sites) {
        if (shown++ >= 15) break;
        std::printf("%6d %6u  %-26s %8zu %8.1f\n", site.source_line,
                    site.instr_index, site.instruction.c_str(),
                    site.leaking_cycles, site.max_abs_t);
      }
      return map.leaks() ? 3 : 0;
    }
    if (attack == "tvla") {
      // Fixed-vs-random classes, interleaved on one noise stream.
      analysis::NoiseModel noise(noise_pj, 0xC0FFEE);
      util::Rng rng(0xA77AC4);
      std::size_t next = 0;
      const auto capture = [&](std::uint64_t pt) {
        if (!from_path.empty()) return offline.traces[next++];
        analysis::Trace t = device.run_des(key, pt, kRound1.end).trace;
        return noise_pj > 0.0 ? noise.apply(t) : t;
      };
      analysis::TvlaAssessment tvla(kRound1.begin, kRound1.end);
      for (int i = 0; i < traces / 2; ++i) {
        tvla.add_fixed(capture(0x0123456789ABCDEFull));
        tvla.add_random(capture(rng.next_u64()));
      }
      const analysis::TvlaResult r = tvla.solve();
      std::printf("TVLA: max |t| = %.2f at cycle %zu; %zu cycles over the "
                  "4.5 threshold -> %s\n",
                  r.max_abs_t, r.worst_cycle, r.cycles_over_threshold,
                  r.leaks() ? "LEAKS" : "passes");
      return r.leaks() ? 3 : 0;
    }

    // Key-ranking attacks.  A live capture is the one emask-capture saves:
    // plaintext i is Rng::nth(0xA77AC4, i) and its noise is seeded by the
    // index, so attacking the card and replaying its capture agree.
    const campaign::Analysis table = campaign::analysis_from_name(attack);
    const core::SboxWindow window =
        campaign::reads_sbox_window(table)
            ? core::des_round1_sbox_window(device.program(), sbox)
            : kRound1;
    const auto count = static_cast<std::size_t>(traces);
    const campaign::AttackOutcome r = campaign::run_table_attack(
        table, sbox, bit, window, {count, [&](const campaign::TraceSink& add) {
          if (!from_path.empty()) {  // replay through the same sink
            for (std::size_t i = 0; i < count; ++i) {
              add(offline.inputs[i], offline.traces[i]);
            }
            return;
          }
          core::BatchConfig bc;
          bc.stop_after_cycles = window.end;
          bc.noise_sigma_pj = noise_pj;
          bc.noise_seed = 0xC0FFEE;
          core::BatchRunner(device, bc).capture_each(
              count, core::random_plaintexts(key, 0xA77AC4),
              [&](std::size_t, const core::BatchInput& input,
                  core::EncryptionRun& run) {
                add(input.plaintext, run.trace);
              });
        }});
    const int truth = analysis::DpaAttack::true_subkey_chunk(key, sbox);
    const std::size_t disclosed = r.disclosure.traces_to_disclosure(truth);
    std::printf("%s: %s %.4f for guess %d (margin %.2fx); true chunk %d -> "
                "%s; %s %zu traces\n",
                attack.c_str(), r.score_name, r.metric, r.best_guess, r.margin,
                truth, r.best_guess == truth ? "RECOVERED" : "not recovered",
                disclosed > 0 ? "disclosed after" : "not disclosed within",
                disclosed > 0 ? disclosed : count);
    return r.best_guess == truth ? 0 : 3;
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), parser.usage().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emask-attack: %s\n", e.what());
    return 2;
  }
}
