// Extension M: the stronger 2009-era adversaries — MLPA (Roche &
// Tavernier's multi-linear power analysis) and the correlation-enhanced
// collision attack — against the unmasked card.  One batch of round-1
// traces, eight parallel MLPA attacks (one per S-box) recovering all 48
// bits of K1 from combined linear-approximation statistics, finished by
// the 2^8 reconstruct_key search: the full 56-bit key without ever
// predicting an exact intermediate bit.  Alongside, the collision attack
// recovers the S-box 1 chunk with *no power model at all*, and both
// attacks' traces-to-disclosure curves (rank of the true chunk per trace
// count) are mirrored as deterministic BENCH series.
#include "analysis/collision.hpp"
#include "analysis/disclosure.hpp"
#include "analysis/dpa.hpp"
#include "analysis/key_recovery.hpp"
#include "analysis/mlpa.hpp"
#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "des/des.hpp"

using namespace emask;

int main() {
  bench::print_banner("Extension M",
                      "MLPA + collision attacks: recovering the 56-bit key "
                      "from the unmasked device with 2009-era adversaries.");
  constexpr std::size_t kTraces = 600;
  const std::uint64_t key = bench::kKey;

  const auto device = core::MaskingPipeline::des(compiler::Policy::kOriginal);
  // Window each attack to its own S-box iteration of round 1 (SPA gives
  // the attacker this alignment, Fig. 6) so a neighbouring S-box sharing
  // expansion bits cannot plant ghost correlations.
  std::vector<analysis::MlpaAttack> mlpa;
  core::SboxWindow w;
  for (int s = 0; s < 8; ++s) {
    w = core::des_round1_sbox_window(device.program(), s);
    analysis::MlpaConfig cfg;
    cfg.sbox = s;
    cfg.window_begin = w.begin;
    cfg.window_end = w.end;
    mlpa.emplace_back(cfg);
  }
  const core::SboxWindow sbox1 =
      core::des_round1_sbox_window(device.program(), 0);
  analysis::CollisionConfig ccfg;
  ccfg.sbox = 0;
  ccfg.window_begin = sbox1.begin;
  ccfg.window_end = sbox1.end;
  analysis::CollisionAttack collision(ccfg);

  // Disclosure curves for the S-box 1 chunk under both adversaries,
  // sampled at the deterministic checkpoint schedule.
  const std::vector<std::size_t> checkpoints =
      analysis::DisclosureCurve::schedule(kTraces);
  analysis::DisclosureCurve mlpa_curve(64);
  analysis::DisclosureCurve collision_curve(64);
  std::size_t next_checkpoint = 0;

  core::BatchConfig bc;
  bc.stop_after_cycles = w.end;  // S-box 8 ends round 1
  core::BatchRunner runner(device, bc);
  runner.capture_each(
      kTraces, core::random_plaintexts(key, 0x481),
      [&](std::size_t index, const core::BatchInput& input,
          core::EncryptionRun& run) {
        for (int s = 0; s < 8; ++s) {
          mlpa[static_cast<std::size_t>(s)].add_trace(input.plaintext,
                                                      run.trace);
        }
        collision.add_trace(input.plaintext, run.trace);
        if (next_checkpoint < checkpoints.size() &&
            index + 1 == checkpoints[next_checkpoint]) {
          const auto m = mlpa[0].solve();
          mlpa_curve.add_checkpoint(
              index + 1, {m.score_per_guess.begin(), m.score_per_guess.end()});
          const auto c = collision.solve();
          collision_curve.add_checkpoint(
              index + 1, {c.score_per_guess.begin(), c.score_per_guess.end()});
          ++next_checkpoint;
        }
      });

  bench::SeriesWriter series("ext_mlpa");
  series.write_header({"sbox", "approximations", "true_chunk",
                       "recovered_chunk", "score", "margin", "correct"});
  std::printf("%6s %8s %12s %12s %8s %8s %9s\n", "S-box", "approx",
              "true chunk", "recovered", "score", "margin", "correct?");
  std::uint64_t recovered_k1 = 0;
  int correct = 0;
  for (int s = 0; s < 8; ++s) {
    const analysis::MlpaResult r = mlpa[static_cast<std::size_t>(s)].solve();
    const int truth = analysis::DpaAttack::true_subkey_chunk(key, s);
    const bool ok = r.best_guess == truth;
    correct += ok;
    recovered_k1 |= static_cast<std::uint64_t>(r.best_guess & 0x3F)
                    << (42 - 6 * s);
    std::printf("%6d %8zu %12d %12d %8.3f %8.2f %9s\n", s + 1,
                mlpa[static_cast<std::size_t>(s)].approximations().size(),
                truth, r.best_guess, r.best_score, r.margin(),
                ok ? "YES" : "no");
    series.write_row(
        {static_cast<double>(s),
         static_cast<double>(
             mlpa[static_cast<std::size_t>(s)].approximations().size()),
         static_cast<double>(truth), static_cast<double>(r.best_guess),
         r.best_score, r.margin(), ok ? 1.0 : 0.0});
  }
  series.flush();

  const analysis::CollisionResult cr = collision.solve();
  const int truth0 = analysis::DpaAttack::true_subkey_chunk(key, 0);
  const bool collision_ok = cr.best_guess == truth0;
  std::printf("\ncollision (S-box 1, no power model): true %d, recovered %d "
              "(score %.3f, margin %.2fx, %zu/64 classes) -> %s\n",
              truth0, cr.best_guess, cr.best_score, cr.margin(),
              cr.classes_seen, collision_ok ? "RECOVERED" : "not recovered");

  // Disclosure series: rank of the true chunk at every checkpoint, plus
  // the curves' headline traces-to-disclosure numbers.
  bench::SeriesWriter disclosure("ext_collision");
  disclosure.write_header(
      {"traces", "mlpa_rank_of_true", "collision_rank_of_true"});
  for (std::size_t i = 0; i < mlpa_curve.checkpoints().size(); ++i) {
    const auto& mc = mlpa_curve.checkpoints()[i];
    const auto& cc = collision_curve.checkpoints()[i];
    disclosure.write_row({static_cast<double>(mc.traces),
                          static_cast<double>(mc.ranks[
                              static_cast<std::size_t>(truth0)]),
                          static_cast<double>(cc.ranks[
                              static_cast<std::size_t>(truth0)])});
  }
  disclosure.flush();
  std::printf("traces to disclosure (S-box 1): mlpa %zu, collision %zu\n",
              mlpa_curve.traces_to_disclosure(truth0),
              collision_curve.traces_to_disclosure(truth0));

  const std::uint64_t true_k1 = des::key_schedule(key).subkeys[0];
  std::printf("\nK1 (true)      : 0x%012llX\n",
              static_cast<unsigned long long>(true_k1));
  std::printf("K1 (recovered) : 0x%012llX   (%d/8 chunks, %zu traces)\n",
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
  std::printf("=> combined linear approximations alone recover %d key bits; "
              "the collision attack needs no power model at all.\n",
              correct * 6);
  return (correct == 8 && collision_ok && full &&
          *full == des::with_odd_parity(key))
             ? 0
             : 1;
}
