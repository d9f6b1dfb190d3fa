#include "core/phase_profile.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "des/asm_generator.hpp"
#include "hiding/policy.hpp"

namespace emask::core {

std::vector<PhaseEnergy> profile_phases(const MaskingPipeline& pipeline,
                                        const BatchInput& input) {
  const assembler::Program& image = pipeline.program();
  // Build the phase table from the text labels, ordered by address.
  std::vector<PhaseEnergy> phases;
  {
    std::map<std::uint32_t, std::string> by_index;
    for (const auto& [label, index] : image.text_labels) {
      // Keep the first label at each index (multiple labels may alias).
      by_index.emplace(index, label);
    }
    if (by_index.empty() || by_index.begin()->first != 0) {
      by_index.emplace(0, "(entry)");
    }
    for (auto it = by_index.begin(); it != by_index.end(); ++it) {
      PhaseEnergy phase;
      phase.label = it->second;
      phase.begin = it->first;
      const auto next = std::next(it);
      phase.end = next != by_index.end()
                      ? next->first
                      : static_cast<std::uint32_t>(image.text.size());
      phases.push_back(std::move(phase));
    }
  }
  const auto phase_of = [&](std::uint32_t index) -> PhaseEnergy& {
    auto it = std::upper_bound(
        phases.begin(), phases.end(), index,
        [](std::uint32_t i, const PhaseEnergy& p) { return i < p.begin; });
    return *(it == phases.begin() ? it : std::prev(it));
  };

  RunMachine m = pipeline.prepare(input);
  PhaseEnergy* current = &phases.front();
  m.machine.run([&](const energy::CycleActivity& a) {
    const double joules = m.model.cycle(a);
    if (a.retired) current = &phase_of(a.retire_pc);
    current->cycles += 1;
    current->energy_uj += joules * 1e6;
  });
  return phases;
}

std::vector<std::vector<std::uint64_t>> label_retire_cycles(
    const assembler::Program& program, const std::vector<LabelQuery>& queries,
    const std::vector<sim::SymbolPoke>& pokes) {
  std::vector<std::uint32_t> targets;
  for (const LabelQuery& q : queries) {
    const auto it = program.text_labels.find(q.label);
    if (it == program.text_labels.end()) {
      throw std::invalid_argument("program has no text label '" + q.label +
                                  "'");
    }
    targets.push_back(it->second);
  }
  std::vector<std::vector<std::uint64_t>> cycles(queries.size());
  const auto wants = [&](std::size_t i) {
    return queries[i].count == 0 || cycles[i].size() < queries[i].count;
  };
  sim::Pipeline p(program);
  for (const sim::SymbolPoke& poke : pokes) {
    sim::poke_symbol(p.memory(), program, poke);
  }
  std::size_t open = queries.size();  // queries still recording
  energy::CycleActivity a;
  while (open > 0 && p.step(a)) {
    if (!a.retired) continue;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (a.retire_pc != targets[i] || !wants(i)) continue;
      cycles[i].push_back(p.cycles());
      if (!wants(i)) --open;
    }
  }
  return cycles;
}

SboxWindow des_round1_sbox_window(const assembler::Program& program,
                                  int sbox) {
  if (sbox < 0 || sbox > 7) {
    throw std::invalid_argument("DES S-box " + std::to_string(sbox) +
                                " out of range 0..7");
  }
  const auto s = static_cast<std::size_t>(sbox);
  // Round 1 retires sbox_loop once per S-box; round 2's first retirement
  // of round_loop bounds S-box 7's window.
  const auto window = [&](const std::vector<sim::SymbolPoke>& pokes) {
    const auto c = label_retire_cycles(
        program, {{"sbox_loop", 8}, {"round_loop", 2}}, pokes);
    if (c[0].size() < 8 || c[1].size() < 2) {
      throw std::invalid_argument(
          "program halts before DES round 2; no round-1 S-box window");
    }
    return SboxWindow{c[0][s], s < 7 ? c[0][s + 1] : c[1][1]};
  };
  SboxWindow w = window({});
  if (des::has_nop_table(program)) {
    w.end = window({des::nop_schedule_poke(std::vector<std::uint32_t>(
                        des::kShuffleSlotCount, hiding::kShuffleNopMaxDelay))})
                .end;
  }
  return w;
}

}  // namespace emask::core
