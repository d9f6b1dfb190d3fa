#include "core/masking_pipeline.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "assembler/assembler.hpp"
#include "util/rng.hpp"

namespace emask::core {

MaskingPipeline MaskingPipeline::des(const hiding::Countermeasure& policy,
                                     const energy::TechParams& params,
                                     const des::DesAsmOptions& asm_options) {
  des::DesAsmOptions options = asm_options;
  if (policy.hiding == hiding::HidingPolicy::kShuffleNop) {
    options.shuffle_slots = true;
  }
  // Key/plaintext placeholders; run() pokes real values per run.
  const std::string source = des::generate_des_asm(0, 0, options);
  MaskingPipeline device = from_source(source, policy, params);
  device.des_inputs_ = true;
  return device;
}

MaskingPipeline MaskingPipeline::from_source(const std::string& source,
                                             const hiding::Countermeasure& policy,
                                             const energy::TechParams& params) {
  assembler::Program program = assembler::assemble(source);
  if (policy.hiding == hiding::HidingPolicy::kShuffleNop &&
      !des::has_nop_table(program)) {
    throw std::invalid_argument(
        "from_source: shuffle_nop needs the DES generator's nop_tab delay "
        "slots (generate with DesAsmOptions::shuffle_slots)");
  }
  compiler::MaskResult masked = compiler::apply_masking(program, policy.masking);
  return MaskingPipeline(std::move(masked), policy, params);
}

std::uint64_t MaskingPipeline::run_hiding_seed(std::uint64_t plaintext) const {
  // Pure function of (base seed, plaintext): forked and cold runs of the
  // same input draw identical streams at any thread count.
  return util::Rng(hiding_seed_ ^
                   (plaintext * 0x9E3779B97F4A7C15ull)).next_u64();
}

std::vector<std::uint32_t> MaskingPipeline::shuffle_schedule(
    std::uint64_t run_seed) {
  std::vector<std::uint32_t> delays(des::kShuffleSlotCount);
  util::Rng rng(run_seed);
  for (std::uint32_t& d : delays) {
    d = static_cast<std::uint32_t>(
        rng.next_below(hiding::kShuffleNopMaxDelay + 1));
  }
  return delays;
}

energy::HidingConfig MaskingPipeline::hiding_config(
    std::uint64_t run_seed) const {
  energy::HidingConfig cfg;
  switch (policy_.hiding) {
    case hiding::HidingPolicy::kWddl:
      cfg.mode = energy::HidingMode::kConstant;
      break;
    case hiding::HidingPolicy::kRandomPrecharge:
      cfg.mode = energy::HidingMode::kRandomPrecharge;
      cfg.seed = run_seed;
      break;
    case hiding::HidingPolicy::kNone:
    case hiding::HidingPolicy::kShuffleNop:  // program-level; model untouched
      break;
  }
  return cfg;
}

MaskingPipeline::MaskingPipeline(compiler::MaskResult masked,
                                 hiding::Countermeasure policy,
                                 const energy::TechParams& params)
    : masked_(std::move(masked)),
      policy_(policy),
      params_(params),
      text_(std::make_shared<const sim::DecodedText>(
          sim::decode_text(masked_.program))),
      has_iv_(des::has_iv_symbol(masked_.program)) {}

namespace {

// Every run reserves its trace once, up front, for the whole budget but at
// most this many samples (2 MiB; a full DES encryption is ~138k cycles), so
// a run to halt never regrows it.  A budget far past the program's end must
// not become a giant allocation.
constexpr std::uint64_t kMaxTraceReserve = std::uint64_t{1} << 18;

// Steps `pipeline` to halt (stop_after_cycles == 0) or for at most
// `stop_after_cycles` cycles, appending one energy sample per cycle to a
// trace that starts with `prefix` — empty for a cold start, the shared
// prefix for a fork.  `max_cycles` is the run's cycle budget.
EncryptionRun drive(sim::Pipeline& pipeline, energy::ProcessorEnergyModel& model,
                    const assembler::Program& program,
                    const std::vector<double>& prefix,
                    std::uint64_t stop_after_cycles, std::uint64_t max_cycles) {
  std::vector<double> samples;
  samples.reserve(std::max<std::uint64_t>(
      std::min(stop_after_cycles != 0 ? stop_after_cycles : max_cycles,
               kMaxTraceReserve),
      prefix.size()));
  samples.insert(samples.end(), prefix.begin(), prefix.end());
  EncryptionRun run;
  run.trace = analysis::Trace(std::move(samples));
  if (stop_after_cycles == 0) {
    run.sim = pipeline.run([&](const energy::CycleActivity& activity) {
      run.trace.push(model.cycle(activity) * 1e12);  // J -> pJ
    });
    // The DES convention: a 64-bit-per-word "cipher" symbol.  Other
    // workloads (AES, SHA-1) expose their outputs through their own
    // read_* helpers.
    const assembler::DataSymbol* cipher = program.find_symbol("cipher");
    if (cipher != nullptr && cipher->size_bytes >= 64 * 4) {
      run.cipher = des::read_cipher(pipeline.memory(), program);
    }
  } else {
    energy::CycleActivity activity;
    while (pipeline.cycles() < stop_after_cycles && pipeline.step(activity)) {
      run.trace.push(model.cycle(activity) * 1e12);
    }
    run.sim = pipeline.result();
  }
  run.breakdown = model.breakdown();
  return run;
}

}  // namespace

void MaskingPipeline::poke_inputs(sim::DataMemory& memory,
                                  const BatchInput& input) const {
  const assembler::Program& program = masked_.program;
  if (des_inputs_) {
    sim::poke_symbol(memory, program,
                     des::block_poke("plain", input.plaintext));
    if (has_iv_) {
      sim::poke_symbol(memory, program, des::block_poke("iv", input.iv));
    }
  }
  if (policy_.hiding == hiding::HidingPolicy::kShuffleNop) {
    // The nop_tab slots are first read after the fork marker, so a forked
    // run draws the same per-plaintext schedule a cold run does.
    sim::poke_symbol(memory, program,
                     des::nop_schedule_poke(
                         shuffle_schedule(run_hiding_seed(input.plaintext))));
  }
  for (const sim::SymbolPoke& poke : input.pokes) {
    sim::poke_symbol(memory, program, poke);
  }
}

RunMachine MaskingPipeline::prepare(const BatchInput& input) const {
  // Inputs go straight into the run's memory before the first clock —
  // equivalent to poking a copy of the program image, without the copy.
  RunMachine m{sim::Pipeline(masked_.program, sim_config_, text_.get()),
               energy::ProcessorEnergyModel(
                   params_, hiding_config(run_hiding_seed(input.plaintext)))};
  if (des_inputs_) {
    sim::poke_symbol(m.machine.memory(), masked_.program,
                     des::block_poke("key", input.key));
  }
  poke_inputs(m.machine.memory(), input);
  return m;
}

EncryptionRun MaskingPipeline::run(const RunRequest& request) const {
  const DesSnapshot* snap = request.snapshot;
  const std::uint64_t stop = request.stop_after_cycles;
  if (snap != nullptr &&
      snap->machine.text_size != masked_.program.text.size()) {
    throw std::invalid_argument(
        "run: snapshot was captured from a different program");
  }
  // A snapshot of another key cannot serve this run, and a budget ending
  // at or before the fork point cannot reuse the captured prefix without
  // overrunning it: such runs start cold, so no trace is ever longer than
  // requested.
  if (snap == nullptr || snap->key != request.input.key ||
      (stop != 0 && stop <= snap->fork_cycle)) {
    RunMachine m = prepare(request.input);
    return drive(m.machine, m.model, masked_.program, {}, stop,
                 sim_config_.max_cycles);
  }
  sim::Pipeline pipeline(masked_.program, snap->machine, text_.get());
  poke_inputs(pipeline.memory(), request.input);
  energy::ProcessorEnergyModel model = snap->model;  // resume mid-trace
  EncryptionRun run = drive(pipeline, model, masked_.program,
                            snap->prefix.samples(), stop,
                            snap->machine.config.max_cycles);
  run.forked = true;
  return run;
}

DesSnapshot MaskingPipeline::snapshot_des(std::uint64_t key) const {
  if (!masked_.program.fork_point) {
    throw std::logic_error(
        "snapshot_des: program declares no fork marker (generate with "
        "DesAsmOptions::hoist_key_schedule)");
  }
  if (!policy_.fork_compatible()) {
    throw std::logic_error(
        "snapshot_des: " + policy_.name() +
        " draws per-trace randomness from cycle 0, so a shared prefix would "
        "pin every forked trace to the same stream — run cold instead");
  }
  // The prefix runs on plaintext zero: it must be plaintext-independent,
  // and by construction the marker precedes the first read of every input
  // but the key, so each fork's own pokes replace them.  Its model is
  // stateless up to the fork (random_precharge, the one stateful hiding
  // mode, is refused above).
  RunMachine m = prepare(BatchInput{key});
  sim::Pipeline& pipeline = m.machine;
  const std::uint32_t fork_pc = *masked_.program.fork_point;
  analysis::Trace prefix;
  energy::CycleActivity activity;
  bool reached = false;
  while (pipeline.step(activity)) {
    prefix.push(m.model.cycle(activity) * 1e12);  // J -> pJ
    if (activity.retired && activity.retire_pc == fork_pc) {
      reached = true;
      break;
    }
    if (pipeline.cycles() >= sim_config_.max_cycles) {
      throw std::runtime_error(
          "snapshot_des: fork marker not retired within the cycle budget");
    }
  }
  if (!reached) {
    throw std::runtime_error(
        "snapshot_des: program halted before the fork marker retired");
  }
  const std::uint64_t fork_cycle = pipeline.cycles();
  return DesSnapshot{pipeline.snapshot(), std::move(m.model),
                     std::move(prefix), key, fork_cycle};
}

}  // namespace emask::core
