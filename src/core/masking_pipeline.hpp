// End-to-end driver: the paper's system, assembled.
//
//   annotated assembly --(compiler: forward slice + secure rewriting)-->
//   secured program --(cycle-accurate pipeline + energy model)-->
//   ciphertext + per-cycle energy trace + component breakdown
//
// This is the top-level public API: every experiment and example builds on
// MaskingPipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trace.hpp"
#include "assembler/program.hpp"
#include "compiler/masking.hpp"
#include "des/asm_generator.hpp"
#include "energy/model.hpp"
#include "energy/params.hpp"
#include "hiding/policy.hpp"
#include "sim/pipeline.hpp"

namespace emask::core {

/// Result of simulating one encryption.
struct EncryptionRun {
  analysis::Trace trace;          // energy per cycle, picojoules
  energy::Breakdown breakdown;    // per-component totals, joules
  sim::SimResult sim;
  std::uint64_t cipher = 0;
  bool forked = false;  // resumed from a DesSnapshot, not cold-started

  [[nodiscard]] double total_uj() const { return trace.total_uj(); }
  [[nodiscard]] double mean_pj_per_cycle() const { return trace.mean_pj(); }
};

/// The machine captured at the program's `fork` marker, plus everything a
/// forked run needs to resume: the machine (its memory holds the poked
/// key), the energy-model state mid-trace, and the shared prefix trace
/// spliced in front of every forked trace.  Capture once per (key, device)
/// with MaskingPipeline::snapshot_des, then fork any number of
/// per-plaintext runs from it on the same device — each is bit-identical
/// to the corresponding cold run, and runs on the
/// device's program text and pre-decoded table.  Immutable after capture;
/// safe to share read-only across threads (memory forks copy-on-write at
/// page granularity).
struct DesSnapshot {
  sim::Snapshot machine;
  energy::ProcessorEnergyModel model;  // state as of fork_cycle
  analysis::Trace prefix;              // samples for cycles [0, fork_cycle)
  std::uint64_t key = 0;
  std::uint64_t fork_cycle = 0;  // cycle count at capture
};

/// The per-run inputs of one encryption.
struct BatchInput {
  /// DES inputs, poked into the `key` / `plain` symbols of a device built
  /// by MaskingPipeline::des; other devices ignore them.
  std::uint64_t key = 0;
  std::uint64_t plaintext = 0;
  /// CBC chaining value, poked into the `iv` symbol of cbc_chain programs
  /// (the session layer precomputes the chain via the golden model so every
  /// block stays a pure function of its batch index).  Ignored for programs
  /// without an `iv` symbol.
  std::uint64_t iv = 0;
  /// Words for any device's data symbols (an AES block, a SHA-1 message),
  /// written after the DES inputs.  A forked run writes them after the
  /// fork point, so they must not name data the shared prefix reads.
  std::vector<sim::SymbolPoke> pokes{};
};

/// One run: its inputs, an optional snapshot to fork from, and a budget.
struct RunRequest {
  BatchInput input;
  /// Fork from this snapshot when it holds the input's key and its prefix
  /// fits the budget; otherwise (or when null) the run cold-starts.
  const DesSnapshot* snapshot = nullptr;
  /// Truncate the simulation after this many cycles (0 = run to halt).
  std::uint64_t stop_after_cycles = 0;
};

/// A cold machine before its first cycle, every input of its request
/// poked, with the energy model run() gives it.  Stepping `machine` and
/// feeding each cycle's activity to `model` reproduces run()'s trace.
/// The machine runs on its device's program and decoded text, so it must
/// not outlive the device.
struct RunMachine {
  sim::Pipeline machine;
  energy::ProcessorEnergyModel model;
};

class MaskingPipeline {
 public:
  /// Builds the DES program and applies `policy` — a masking policy, a
  /// hiding policy, or any masking+hiding combination
  /// (hiding::Countermeasure converts implicitly from compiler::Policy).
  /// A shuffle_nop countermeasure forces DesAsmOptions::shuffle_slots on.
  static MaskingPipeline des(
      const hiding::Countermeasure& policy,
      const energy::TechParams& params = energy::TechParams::smartcard_025um(),
      const des::DesAsmOptions& asm_options = {});

  /// Compiles arbitrary annotated assembly under `policy`.  shuffle_nop
  /// requires the DES generator's nop_tab slots, so non-DES sources accept
  /// only wddl / random_precharge hiding (throws std::invalid_argument).
  static MaskingPipeline from_source(
      const std::string& source, const hiding::Countermeasure& policy,
      const energy::TechParams& params = energy::TechParams::smartcard_025um());

  /// The one run path.  Pokes the request's inputs into the run's data
  /// memory (never into a copy of the program): for a device built by
  /// des(), the key, the plaintext, the chaining value when has_iv(); under
  /// shuffle_nop, the per-run delay schedule; then the request's pokes.
  /// Runs to halt, or for at most `stop_after_cycles` cycles (an attacker
  /// capturing only the first round does not pay for the other fifteen; a
  /// truncated run reports cipher = 0).
  ///
  /// With a snapshot of the input's key whose prefix ends before the
  /// budget, the run resumes at the fork point instead, and is bit-identical
  /// to the cold run: trace, sim counters, breakdown and cipher.  Any other
  /// run cold-starts; EncryptionRun::forked says which path ran.  A
  /// snapshot captured from another program throws std::invalid_argument.
  [[nodiscard]] EncryptionRun run(const RunRequest& request) const;

  /// run() of one DES block, cold.
  [[nodiscard]] EncryptionRun run_des(
      std::uint64_t key, std::uint64_t plaintext,
      std::uint64_t stop_after_cycles = 0) const {
    return run({{key, plaintext}, nullptr, stop_after_cycles});
  }

  /// run() of one DES block forked from `snapshot` (cold when the budget
  /// ends at or before the fork point).
  [[nodiscard]] EncryptionRun run_des_from(
      const DesSnapshot& snapshot, std::uint64_t plaintext,
      std::uint64_t stop_after_cycles = 0) const {
    return run({{snapshot.key, plaintext}, &snapshot, stop_after_cycles});
  }

  /// The cold half of run(), for callers that watch every cycle themselves
  /// (phase profiling, leakage localisation).
  [[nodiscard]] RunMachine prepare(const BatchInput& input) const;

  /// True when the compiled program carries the cbc_chain `iv` symbol —
  /// run() then pokes BatchInput::iv.  Looked up once, at construction.
  [[nodiscard]] bool has_iv() const { return has_iv_; }

  /// True when the compiled program declares a `fork` marker (the DES
  /// generator emits one under DesAsmOptions::hoist_key_schedule).
  [[nodiscard]] bool has_fork_point() const {
    return masked_.program.fork_point.has_value();
  }

  /// True when snapshot/fork capture is both possible (fork marker) and
  /// sound for this device's countermeasure: random_precharge draws its
  /// precharge stream from cycle 0, so a shared prefix would pin every
  /// forked trace to the same randomness — such devices must run cold.
  [[nodiscard]] bool fork_eligible() const {
    return has_fork_point() && policy_.fork_compatible();
  }

  /// Runs the shared, plaintext-independent prefix once — frame setup,
  /// PC-1, the hoisted key schedule — and captures the machine at the cycle
  /// the `fork` marker retires.  Throws if the program has no marker, or if
  /// it halts (or exhausts the cycle budget) before reaching it.
  [[nodiscard]] DesSnapshot snapshot_des(std::uint64_t key) const;

  [[nodiscard]] const assembler::Program& program() const {
    return masked_.program;
  }
  [[nodiscard]] const compiler::MaskResult& mask_result() const {
    return masked_;
  }
  /// The masking half of the countermeasure (historical accessor).
  [[nodiscard]] compiler::Policy policy() const { return policy_.masking; }
  /// The full masking+hiding countermeasure.
  [[nodiscard]] const hiding::Countermeasure& countermeasure() const {
    return policy_;
  }
  [[nodiscard]] const energy::TechParams& params() const { return params_; }

  /// Overrides the simulator configuration (cycle budget, memory size,
  /// operand-isolation ablation) for subsequent runs.
  void set_sim_config(const sim::SimConfig& config) { sim_config_ = config; }
  [[nodiscard]] const sim::SimConfig& sim_config() const { return sim_config_; }

  /// Base seed for per-trace hiding randomness (random_precharge stream,
  /// shuffle_nop schedule).  Each run derives its own stream as a pure
  /// function of (base seed, plaintext), preserving BatchRunner's
  /// bit-identity contract at any thread count.  Campaigns set this from
  /// the scenario seed; the default keeps standalone runs deterministic.
  void set_hiding_seed(std::uint64_t seed) { hiding_seed_ = seed; }
  [[nodiscard]] std::uint64_t hiding_seed() const { return hiding_seed_; }

  /// The per-run hiding stream seed for `plaintext` (exposed so tests can
  /// reproduce the schedule a run used).
  [[nodiscard]] std::uint64_t run_hiding_seed(std::uint64_t plaintext) const;

  /// The shuffle_nop delay schedule drawn for one run seed: one entry per
  /// nop_tab slot, each uniform in [0, hiding::kShuffleNopMaxDelay].
  [[nodiscard]] static std::vector<std::uint32_t> shuffle_schedule(
      std::uint64_t run_seed);

 private:
  MaskingPipeline(compiler::MaskResult masked, hiding::Countermeasure policy,
                  const energy::TechParams& params);

  [[nodiscard]] energy::HidingConfig hiding_config(
      std::uint64_t run_seed) const;

  /// Pokes every input but the key into a run's memory, cold or forked
  /// (a fork's memory already holds the snapshot's key).
  void poke_inputs(sim::DataMemory& memory, const BatchInput& input) const;

  compiler::MaskResult masked_;
  hiding::Countermeasure policy_;
  energy::TechParams params_;
  // masked_.program's text decoded once per device; copies of the device
  // (one per BatchRunner worker) share it read-only.
  std::shared_ptr<const sim::DecodedText> text_;
  sim::SimConfig sim_config_;
  std::uint64_t hiding_seed_ = 0x9E3779B97F4A7C15ull;
  bool des_inputs_ = false;  // built by des(): run() pokes key/plaintext/iv
  bool has_iv_ = false;      // des::has_iv_symbol(masked_.program)
};

}  // namespace emask::core
