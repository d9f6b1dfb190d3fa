// Extension K: full first-round-key recovery — the end game of the attack
// the paper defends against.  One batch of power traces, eight parallel
// CPA attacks (one per S-box), recovering all 48 bits of round subkey K1
// from the unmasked device.  (The remaining 8 key bits would fall to the
// same attack on round 2 or to exhaustive search — 2^8 trials.)
#include "analysis/dpa.hpp"
#include "analysis/key_recovery.hpp"
#include "analysis/generic_cpa.hpp"
#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "des/des.hpp"
#include "util/csv.hpp"

using namespace emask;

int main() {
  bench::print_banner("Extension K",
                      "Recovering all 48 bits of K1 from the unmasked "
                      "device with one trace batch.");
  constexpr int kTraces = 500;
  const std::uint64_t key = bench::kKey;

  const auto device = core::MaskingPipeline::des(compiler::Policy::kOriginal);

  // Window each attack to its own S-box iteration of round 1 (the attacker
  // gets this alignment from SPA, Fig. 6): correlating only where S-box s
  // is actually computed suppresses the ghost peaks that neighbouring
  // S-boxes' data would otherwise induce.
  // One acquisition pass; per S-box, one single-bit CPA engine per output
  // bit (DES stores each S-box output bit as its own word, so the exact
  // power model is the single predicted bit, not the 4-bit Hamming
  // weight), scored by *signed* correlation: S-box 4's linear structure
  // S4(x ^ 2F) = ~S4(x) makes the true chunk and its complement partner
  // indistinguishable under |rho|.
  std::vector<std::vector<analysis::GenericCpa>> engines(8);
  core::SboxWindow w;
  for (int s = 0; s < 8; ++s) {
    w = core::des_round1_sbox_window(device.program(), s);
    for (int bit = 0; bit < 4; ++bit) {
      engines[static_cast<std::size_t>(s)].emplace_back(64, w.begin, w.end,
                                                       /*signed=*/true);
    }
  }
  // Parallel acquisition (BatchRunner emits in index order, so the CPA
  // engines see the exact trace stream the old serial loop produced —
  // plaintext i = Rng::nth(0x481, i)); analysis stays on this thread.
  std::vector<int> hyp(64);
  core::BatchConfig bc;
  bc.stop_after_cycles = w.end;  // S-box 8 ends round 1
  core::BatchRunner runner(device, bc);
  runner.capture_each(
      kTraces, core::random_plaintexts(key, 0x481),
      [&](std::size_t, const core::BatchInput& input,
          core::EncryptionRun& run) {
        const std::uint64_t pt = input.plaintext;
        for (int s = 0; s < 8; ++s) {
          for (int bit = 0; bit < 4; ++bit) {
            for (int g = 0; g < 64; ++g) {
              hyp[static_cast<std::size_t>(g)] =
                  analysis::DpaAttack::predict_bit(pt, s, bit, g);
            }
            engines[static_cast<std::size_t>(s)][static_cast<std::size_t>(bit)]
                .add_trace(hyp, run.trace);
          }
        }
      });

  util::CsvWriter csv(bench::out_dir() + "/ext_full_key_recovery.csv");
  csv.write_header({"sbox", "true_chunk", "recovered_chunk", "corr",
                    "margin", "correct"});
  std::printf("%6s %12s %12s %8s %8s %9s\n", "S-box", "true chunk",
              "recovered", "|rho|", "margin", "correct?");
  std::uint64_t recovered_k1 = 0;
  int correct = 0;
  for (int s = 0; s < 8; ++s) {
    // Per guess: the WEAKEST of the four output bits' best signed rho.
    // Requiring all four predicted bits to appear on the trace defeats the
    // structural ghosts of S-box 4 (S4(x ^ 2F) maps two predicted bits
    // exactly onto two *other* true output bits) — a wrong guess can plant
    // one or two perfect bits, never all four.
    std::array<double, 64> score;
    score.fill(2.0);
    for (int bit = 0; bit < 4; ++bit) {
      const analysis::GenericCpaResult r =
          engines[static_cast<std::size_t>(s)][static_cast<std::size_t>(bit)]
              .solve();
      for (int g = 0; g < 64; ++g) {
        score[static_cast<std::size_t>(g)] = std::min(
            score[static_cast<std::size_t>(g)],
            r.corr_per_guess[static_cast<std::size_t>(g)]);
      }
    }
    int best = 0;
    double best_corr = 0.0, runner_up = 0.0;
    for (int g = 0; g < 64; ++g) {
      if (score[static_cast<std::size_t>(g)] > best_corr) {
        best_corr = score[static_cast<std::size_t>(g)];
        best = g;
      }
    }
    for (int g = 0; g < 64; ++g) {
      if (g != best) {
        runner_up = std::max(runner_up, score[static_cast<std::size_t>(g)]);
      }
    }
    const double margin = runner_up > 0.0 ? best_corr / runner_up : 0.0;
    const int truth = analysis::DpaAttack::true_subkey_chunk(key, s);
    const bool ok = best == truth;
    correct += ok;
    recovered_k1 |= static_cast<std::uint64_t>(best & 0x3F) << (42 - 6 * s);
    std::printf("%6d %12d %12d %8.3f %8.2f %9s\n", s + 1, truth, best,
                best_corr, margin, ok ? "YES" : "no");
    csv.write_row({static_cast<double>(s), static_cast<double>(truth),
                   static_cast<double>(best), best_corr, margin,
                   ok ? 1.0 : 0.0});
  }

  const std::uint64_t true_k1 = des::key_schedule(key).subkeys[0];
  std::printf("\nK1 (true)      : 0x%012llX\n",
              static_cast<unsigned long long>(true_k1));
  std::printf("K1 (recovered) : 0x%012llX   (%d/8 chunks, %d traces)\n",
              static_cast<unsigned long long>(recovered_k1), correct,
              kTraces);

  // Finish the job: one known plaintext/ciphertext pair + a 2^8 search
  // over the 8 key bits PC-2 never exposed in K1.
  const std::uint64_t ct = des::encrypt_block(bench::kPlain, key);
  const auto full = analysis::reconstruct_key(recovered_k1, bench::kPlain, ct);
  if (full) {
    std::printf("FULL KEY       : 0x%016llX (odd parity) — %s\n",
                static_cast<unsigned long long>(*full),
                des::with_odd_parity(key) == *full ? "matches the card's key"
                                                   : "MISMATCH");
  } else {
    std::printf("FULL KEY       : reconstruction failed (bad K1)\n");
  }
  std::printf("=> %d key bits from the trace batch + 2^8 search: the entire "
              "56-bit key, from power alone.\n",
              correct * 6);
  return (correct == 8 && full &&
          *full == des::with_odd_parity(key))
             ? 0
             : 1;
}
