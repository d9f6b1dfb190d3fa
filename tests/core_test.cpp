// Core MaskingPipeline API behaviours.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "assembler/assembler.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "des/asm_generator.hpp"
#include "des/des.hpp"
#include "isa/encoding.hpp"
#include "util/rng.hpp"

namespace emask::core {
namespace {

TEST(MaskingPipeline, FromSourceCompilesAndRuns) {
  const auto p = MaskingPipeline::from_source(R"(
.data
x: .word 21
.text
main:
  la $t0, x
  lw $t1, 0($t0)
  addu $t1, $t1, $t1
  sw $t1, 0($t0)
  halt
)",
                                              compiler::Policy::kOriginal);
  const EncryptionRun run = p.run({});
  EXPECT_TRUE(run.sim.halted);
  EXPECT_GT(run.total_uj(), 0.0);
  EXPECT_EQ(run.trace.size(), run.sim.cycles);
}

// Every device, not only a DES one, draws its per-run hiding stream from
// the run's input: one input, one random-precharge stream; two inputs, two.
TEST(MaskingPipeline, HidingStreamFollowsTheRunInputOnAnyDevice) {
  const auto p = MaskingPipeline::from_source(
      "main:\n  li $t0, 7\n  addu $t1, $t0, $t0\n  halt\n",
      hiding::countermeasure_from_name("random_precharge"));
  const BatchInput one{0, 1};
  const BatchInput two{0, 2};
  EXPECT_EQ(p.run({one}).trace.samples(), p.run({one}).trace.samples());
  EXPECT_NE(p.run({one}).trace.samples(), p.run({two}).trace.samples());
}

TEST(MaskingPipeline, BadSourcePropagatesAsmError) {
  EXPECT_THROW(MaskingPipeline::from_source("main:\n  bogus\n",
                                            compiler::Policy::kOriginal),
               assembler::AsmError);
}

TEST(MaskingPipeline, StopAfterCyclesTruncates) {
  const auto p = MaskingPipeline::des(compiler::Policy::kOriginal);
  const EncryptionRun run = p.run_des(1, 2, /*stop_after_cycles=*/5000);
  EXPECT_EQ(run.trace.size(), 5000u);
  EXPECT_FALSE(run.sim.halted);
  EXPECT_EQ(run.cipher, 0u);  // truncated runs report no ciphertext
}

TEST(MaskingPipeline, TruncatedPrefixMatchesFullRun) {
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective);
  const EncryptionRun full = p.run_des(3, 4);
  const EncryptionRun part = p.run_des(3, 4, 4000);
  for (std::size_t i = 0; i < part.trace.size(); ++i) {
    ASSERT_EQ(part.trace[i], full.trace[i]) << "cycle " << i;
  }
}

TEST(MaskingPipeline, CustomTechParamsChangeEnergyNotBehaviour) {
  energy::TechParams hot = energy::TechParams::smartcard_025um();
  hot.e_clock_tree *= 2.0;
  const auto base = MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto hotter = MaskingPipeline::des(compiler::Policy::kOriginal, hot);
  const auto r1 = base.run_des(7, 8);
  const auto r2 = hotter.run_des(7, 8);
  EXPECT_EQ(r1.cipher, r2.cipher);
  EXPECT_EQ(r1.sim.cycles, r2.sim.cycles);
  EXPECT_GT(r2.total_uj(), r1.total_uj());
}

TEST(MaskingPipeline, SimConfigCycleBudgetEnforced) {
  auto p = MaskingPipeline::des(compiler::Policy::kOriginal);
  sim::SimConfig config;
  config.max_cycles = 100;
  p.set_sim_config(config);
  EXPECT_THROW(p.run_des(1, 2), std::runtime_error);
}

TEST(MaskingPipeline, BreakdownTotalsMatchTrace) {
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective);
  const EncryptionRun run = p.run_des(5, 6);
  EXPECT_NEAR(run.breakdown.total() * 1e6, run.total_uj(), 1e-6);
}

TEST(MaskingPipeline, SecureBitsSurviveEncoding) {
  // The secure bit the compiler sets must round-trip through the binary
  // encoding the fetch stage uses.
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective);
  for (const auto& inst : p.program().text) {
    EXPECT_EQ(isa::decode(isa::encode(inst)), inst);
  }
}

// Phase energies come from the run's own energy model, hiding included:
// under wddl they must sum to the hidden total, not the unhidden one.
TEST(PhaseProfile, TotalsMatchWholeRunAndCoverEveryCycle) {
  for (const char* policy : {"selective", "wddl", "random_precharge"}) {
    SCOPED_TRACE(policy);
    const auto p =
        MaskingPipeline::des(hiding::countermeasure_from_name(policy));
    const auto phases = core::profile_phases(
        p, {0x133457799BBCDFF1ull, 0x0123456789ABCDEFull});
    const EncryptionRun run = p.run_des(0x133457799BBCDFF1ull,
                                        0x0123456789ABCDEFull);
    std::uint64_t cycles = 0;
    double uj = 0.0;
    for (const auto& phase : phases) {
      cycles += phase.cycles;
      uj += phase.energy_uj;
    }
    EXPECT_EQ(cycles, run.sim.cycles);
    EXPECT_NEAR(uj, run.total_uj(), 1e-6);
    // Phase table covers the whole text contiguously.
    for (std::size_t i = 1; i < phases.size(); ++i) {
      EXPECT_EQ(phases[i].begin, phases[i - 1].end);
    }
    EXPECT_EQ(phases.back().end, p.program().text.size());
    // The sixteen-round phases dominate the run.
    double round_uj = 0.0;
    for (const auto& phase : phases) {
      if (phase.label != "ip_loop" && phase.label != "pc1_loop" &&
          phase.label != "fp_loop" && phase.label != "pre_r" &&
          phase.label != "pre_l" && phase.label != "main") {
        round_uj += phase.energy_uj;
      }
    }
    EXPECT_GT(round_uj / uj, 0.9);
  }
}

// Profiling honours the device's cycle budget like run() does, instead of
// stepping a program that never halts forever.
TEST(PhaseProfile, NonHaltingProgramHitsTheCycleBudget) {
  auto p = MaskingPipeline::from_source("main:\n  b main\n  halt\n",
                                        compiler::Policy::kOriginal);
  sim::SimConfig config = p.sim_config();
  config.max_cycles = 1000;
  p.set_sim_config(config);
  EXPECT_THROW((void)core::profile_phases(p), std::runtime_error);
}

// The dry-run locator records each queried label's first `count`
// retirements (0 = all of them) and stops once it has them.
TEST(PhaseProfile, LabelRetireCyclesStopAtTheQueriedCounts) {
  const auto p = MaskingPipeline::des(compiler::Policy::kOriginal);
  const auto rounds =
      core::label_retire_cycles(p.program(), {{"round_loop", 0}})[0];
  ASSERT_EQ(rounds.size(), 16u);
  const auto round1 = core::label_retire_cycles(
      p.program(), {{"round_loop", 2}, {"sbox_loop", 8}});
  ASSERT_EQ(round1[0].size(), 2u);
  ASSERT_EQ(round1[1].size(), 8u);
  EXPECT_EQ(round1[0][1], rounds[1]);
  const core::SboxWindow sbox8 = core::des_round1_sbox_window(p.program(), 7);
  EXPECT_EQ(sbox8.begin, round1[1][7]);
  EXPECT_EQ(sbox8.end, rounds[1]);
}

// No silent fallback window: a program without the generator's labels, or
// an S-box outside 0..7, is an error.
TEST(PhaseProfile, SboxWindowWithoutGeneratorLabelsThrows) {
  const auto bare = MaskingPipeline::from_source("main:\n  halt\n",
                                                 compiler::Policy::kOriginal);
  EXPECT_THROW((void)core::des_round1_sbox_window(bare.program(), 0),
               std::invalid_argument);
  EXPECT_THROW((void)core::label_retire_cycles(
                   bare.program(), {{"main", 1}, {"round_loop", 1}}),
               std::invalid_argument);
  const auto des = MaskingPipeline::des(compiler::Policy::kOriginal);
  EXPECT_THROW((void)core::des_round1_sbox_window(des.program(), 8),
               std::invalid_argument);
}

TEST(MaskingPipeline, PolicyAccessorsConsistent) {
  const auto p = MaskingPipeline::des(compiler::Policy::kNaiveLoadStore);
  EXPECT_EQ(p.policy(), compiler::Policy::kNaiveLoadStore);
  EXPECT_EQ(p.mask_result().secured_count, [&] {
    std::size_t n = 0;
    for (const auto& inst : p.program().text) n += inst.secure;
    return n;
  }());
}

// --- Shared-prefix snapshot/fork capture -------------------------------

const MaskingPipeline& forkable(compiler::Policy policy) {
  static std::map<compiler::Policy, MaskingPipeline> cache;
  auto it = cache.find(policy);
  if (it == cache.end()) {
    des::DesAsmOptions opts;
    opts.hoist_key_schedule = true;
    it = cache.emplace(policy, MaskingPipeline::des(
                                   policy,
                                   energy::TechParams::smartcard_025um(),
                                   opts))
             .first;
  }
  return it->second;
}

constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;

// The hoisted program is still correct DES, and the selective compiler
// still covers its whole slice (the hoisted key schedule introduces no
// unsecurable operations).
TEST(SnapshotFork, HoistedProgramEncryptsCorrectly) {
  const MaskingPipeline& p = forkable(compiler::Policy::kSelective);
  ASSERT_TRUE(p.has_fork_point());
  EXPECT_TRUE(p.mask_result().slice.diagnostics.empty());
  const EncryptionRun run = p.run_des(kKey, kPlain);
  EXPECT_EQ(run.cipher, des::encrypt_block(kPlain, kKey));
  EXPECT_EQ(run.cipher, 0x85E813540F0AB405ull);
}

// The headline contract: a forked run is bit-identical to a cold run —
// trace samples, sim counters, breakdown, and ciphertext.
TEST(SnapshotFork, ForkedRunIsBitIdenticalToColdRun) {
  for (const auto policy :
       {compiler::Policy::kOriginal, compiler::Policy::kSelective}) {
    const MaskingPipeline& p = forkable(policy);
    const DesSnapshot snap = p.snapshot_des(kKey);
    EXPECT_GT(snap.fork_cycle, 0u);
    EXPECT_EQ(snap.prefix.size(), snap.fork_cycle);
    for (const std::uint64_t pt : {kPlain, std::uint64_t{0}, ~std::uint64_t{0}}) {
      const EncryptionRun cold = p.run_des(kKey, pt);
      const EncryptionRun forked = p.run_des_from(snap, pt);
      EXPECT_EQ(forked.cipher, cold.cipher);
      EXPECT_EQ(forked.cipher, des::encrypt_block(pt, kKey));
      EXPECT_EQ(forked.sim.cycles, cold.sim.cycles);
      EXPECT_EQ(forked.sim.instructions, cold.sim.instructions);
      EXPECT_EQ(forked.sim.stalls, cold.sim.stalls);
      EXPECT_EQ(forked.trace.samples(), cold.trace.samples());
      EXPECT_EQ(forked.breakdown.total(), cold.breakdown.total());
    }
  }
}

// One snapshot serves many forks without interference (copy-on-write: no
// fork ever mutates the captured memory).
TEST(SnapshotFork, SnapshotIsReusableAcrossForks) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  util::Rng rng(0xF0F0);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(p.run_des_from(snap, pt).cipher, des::encrypt_block(pt, kKey));
  }
}

// Budget boundaries around the fork point: a stop at or before the fork
// cycle falls back to a cold start; either way the emitted trace is the
// exact cold-run prefix, never longer than requested.
TEST(SnapshotFork, StopAfterCyclesBoundary) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  const std::uint64_t fc = snap.fork_cycle;
  ASSERT_GT(fc, 2u);
  for (const std::uint64_t stop : {fc - 1, fc, fc + 1, fc + 500}) {
    const EncryptionRun forked = p.run_des_from(snap, kPlain, stop);
    const EncryptionRun cold = p.run_des(kKey, kPlain, stop);
    EXPECT_EQ(forked.trace.size(), stop) << "stop " << stop;
    EXPECT_EQ(forked.trace.samples(), cold.trace.samples())
        << "stop " << stop;
    EXPECT_EQ(forked.sim.cycles, cold.sim.cycles) << "stop " << stop;
  }
}

// Misuse is caught loudly.
TEST(SnapshotFork, SnapshotWithoutForkMarkerThrows) {
  const auto plain = MaskingPipeline::des(compiler::Policy::kOriginal);
  EXPECT_FALSE(plain.has_fork_point());
  EXPECT_THROW((void)plain.snapshot_des(kKey), std::logic_error);
}

TEST(SnapshotFork, ForeignSnapshotRejected) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  const auto other = MaskingPipeline::des(compiler::Policy::kOriginal);
  EXPECT_THROW((void)other.run_des_from(snap, kPlain), std::invalid_argument);
}

// Cold runs poke their inputs into the run's memory instead of copying the
// program.  The old path — poke a copy of the program image, then simulate
// it on a machine and energy model of its own — is the oracle: every
// output of run() must match it bit for bit, full-length and windowed.
EncryptionRun run_poked_image(const MaskingPipeline& p,
                              const std::vector<sim::SymbolPoke>& pokes,
                              std::uint64_t stop_after_cycles = 0) {
  assembler::Program image = p.program();
  for (const sim::SymbolPoke& poke : pokes) {
    const assembler::DataSymbol* s = image.find_symbol(poke.symbol);
    for (std::size_t i = 0; i < poke.words.size(); ++i) {
      image.poke_word(s->address + static_cast<std::uint32_t>(i) * 4,
                      poke.words[i]);
    }
  }
  sim::Pipeline machine(image, p.sim_config());
  energy::ProcessorEnergyModel model(p.params());
  EncryptionRun run;
  if (stop_after_cycles == 0) {
    run.sim = machine.run([&](const energy::CycleActivity& a) {
      run.trace.push(model.cycle(a) * 1e12);
    });
    run.cipher = des::read_cipher(machine.memory(), image);
  } else {
    energy::CycleActivity a;
    while (machine.cycles() < stop_after_cycles && machine.step(a)) {
      run.trace.push(model.cycle(a) * 1e12);
    }
    run.sim = machine.result();
  }
  run.breakdown = model.breakdown();
  return run;
}

void expect_same_run(const EncryptionRun& a, const EncryptionRun& b) {
  EXPECT_EQ(a.trace.samples(), b.trace.samples());
  for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
    const auto component = static_cast<energy::Component>(c);
    EXPECT_EQ(a.breakdown.get(component), b.breakdown.get(component))
        << energy::component_name(component);
  }
  EXPECT_EQ(a.sim.cycles, b.sim.cycles);
  EXPECT_EQ(a.sim.instructions, b.sim.instructions);
  EXPECT_EQ(a.sim.stalls, b.sim.stalls);
  EXPECT_EQ(a.sim.flushes, b.sim.flushes);
  EXPECT_EQ(a.sim.halted, b.sim.halted);
  EXPECT_EQ(a.cipher, b.cipher);
}

TEST(ColdRun, RunDesMatchesPokedProgramCopy) {
  for (const auto policy :
       {compiler::Policy::kOriginal, compiler::Policy::kSelective}) {
    const auto p = MaskingPipeline::des(policy);
    for (const std::uint64_t stop : {std::uint64_t{0}, std::uint64_t{3000}}) {
      SCOPED_TRACE(stop);
      expect_same_run(p.run_des(kKey, kPlain, stop),
                      run_poked_image(p,
                                      {des::block_poke("key", kKey),
                                       des::block_poke("plain", kPlain)},
                                      stop));
    }
  }
}

TEST(ColdRun, RunDesCbcMatchesPokedProgramCopy) {
  des::DesAsmOptions options;
  options.cbc_chain = true;
  const auto p = MaskingPipeline::des(compiler::Policy::kSelective,
                                      energy::TechParams::smartcard_025um(),
                                      options);
  const std::uint64_t iv = 0xA5A5F00D12345678ull;
  const EncryptionRun run = p.run({{kKey, kPlain, iv}});
  expect_same_run(run, run_poked_image(p, {des::block_poke("key", kKey),
                                           des::block_poke("plain", kPlain),
                                           des::block_poke("iv", iv)}));
  EXPECT_EQ(run.cipher, des::encrypt_block(kPlain ^ iv, kKey));
}

TEST(ColdRun, ShuffleNopMatchesPokedProgramCopy) {
  const auto p = MaskingPipeline::des(hiding::Countermeasure{
      compiler::Policy::kOriginal, hiding::HidingPolicy::kShuffleNop});
  for (const std::uint64_t pt : {kPlain, ~kPlain}) {
    const std::vector<std::uint32_t> delays =
        MaskingPipeline::shuffle_schedule(p.run_hiding_seed(pt));
    expect_same_run(p.run_des(kKey, pt),
                    run_poked_image(p, {des::block_poke("key", kKey),
                                        des::block_poke("plain", pt),
                                        des::nop_schedule_poke(delays)}));
  }
}

// A run reserves its trace once, before the first cycle: the whole cycle
// budget, capped at 2^18 samples, and never less than a fork's prefix.  A
// trace that grew while running ends with a capacity nobody reserved (2^18
// under libstdc++'s doubling for a full DES run, which is why one budget
// sits below the cap).
TEST(ColdRun, FullRunTraceIsReservedOnce) {
  MaskingPipeline p = forkable(compiler::Policy::kOriginal);
  for (const std::uint64_t budget :
       {std::uint64_t{150'000}, sim::SimConfig{}.max_cycles}) {
    SCOPED_TRACE(budget);
    sim::SimConfig config;
    config.max_cycles = budget;
    p.set_sim_config(config);
    const std::size_t reserved =
        std::min<std::uint64_t>(budget, std::uint64_t{1} << 18);
    const DesSnapshot snap = p.snapshot_des(kKey);
    const EncryptionRun cold = p.run_des(kKey, kPlain);
    const EncryptionRun forked = p.run_des_from(snap, kPlain);
    ASSERT_TRUE(forked.forked);
    ASSERT_EQ(cold.trace.size(), cold.sim.cycles);
    ASSERT_LT(cold.trace.size(), reserved);
    EXPECT_EQ(cold.trace.samples().capacity(), reserved);
    EXPECT_EQ(forked.trace.samples().capacity(), reserved);
  }
}

// Every poke goes through one helper, which names the symbol it cannot
// write: a missing symbol, or more words than the symbol holds — on a cold
// start and on a fork alike.
TEST(SymbolPoke, BadPokeNamesTheSymbolColdAndForked) {
  const MaskingPipeline& p = forkable(compiler::Policy::kOriginal);
  const DesSnapshot snap = p.snapshot_des(kKey);
  BatchInput partial{kKey, kPlain};
  partial.pokes = {{"plain", {1}}};  // fewer words than the symbol: fine
  const std::uint64_t stop = snap.fork_cycle + 10;
  EXPECT_FALSE(p.run({partial, nullptr, stop}).forked);
  EXPECT_TRUE(p.run({partial, &snap, stop}).forked);
  for (const sim::SymbolPoke& bad :
       {sim::SymbolPoke{"no_such_symbol", {1}},
        sim::SymbolPoke{"plain", std::vector<std::uint32_t>(65, 0)}}) {
    BatchInput input{kKey, kPlain};
    input.pokes = {bad};
    for (const DesSnapshot* from : {static_cast<const DesSnapshot*>(nullptr),
                                    &snap}) {
      SCOPED_TRACE(bad.symbol + (from ? " forked" : " cold"));
      try {
        (void)p.run({input, from, stop});
        ADD_FAILURE() << "expected std::invalid_argument";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'" + bad.symbol + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace emask::core
