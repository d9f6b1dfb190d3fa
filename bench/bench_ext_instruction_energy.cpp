// Extension M: energy per instruction class, normal vs secure.
//
// Attributes each cycle's energy to the instruction retiring that cycle
// (the standard energy-per-instruction accounting; pipeline overlap makes
// it approximate but consistent), aggregated by opcode.  Shows where the
// dual-rail premium lands: loads/stores pay the bus + latch constants,
// ALU ops the unit + latch constants, and un-securable control flow pays
// nothing because it is never secured.
#include <map>

#include "bench_common.hpp"
#include "compiler/masking.hpp"
#include "util/csv.hpp"

using namespace emask;

namespace {

struct ClassStats {
  std::uint64_t count = 0;
  double energy_pj = 0.0;
  [[nodiscard]] double avg() const {
    return count ? energy_pj / static_cast<double>(count) : 0.0;
  }
};

std::map<std::string, ClassStats> profile(compiler::Policy policy) {
  const auto pipeline = core::MaskingPipeline::des(policy);
  auto [machine, model] = pipeline.prepare({bench::kKey, bench::kPlain});
  std::map<std::string, ClassStats> stats;
  energy::CycleActivity a;
  double pending = 0.0;  // bubble cycles fold into the next retirement
  while (machine.step(a)) {
    const double pj = model.cycle(a) * 1e12;
    if (!a.retired) {
      pending += pj;
      continue;
    }
    const auto& inst = pipeline.program().text[a.retire_pc];
    ClassStats& s = stats[std::string(isa::mnemonic(inst.op))];
    ++s.count;
    s.energy_pj += pj + pending;
    pending = 0.0;
  }
  return stats;
}

}  // namespace

int main() {
  bench::print_banner("Extension M",
                      "Average attributed energy per instruction class "
                      "(pJ), original vs all-secure.");
  const auto original = profile(compiler::Policy::kOriginal);
  const auto secure = profile(compiler::Policy::kAllSecure);

  util::CsvWriter csv(bench::out_dir() + "/ext_instruction_energy.csv");
  csv.write_header({"class", "count", "original_pj", "all_secure_pj",
                    "premium_pj"});

  std::printf("%-8s %10s %14s %14s %12s\n", "class", "retired",
              "original pJ", "all-secure pJ", "premium pJ");
  bool ok = true;
  int row = 0;
  for (const auto& [mnemonic, orig] : original) {
    const auto it = secure.find(mnemonic);
    if (it == secure.end()) continue;
    const double premium = it->second.avg() - orig.avg();
    std::printf("%-8s %10llu %14.1f %14.1f %12.1f\n", mnemonic.c_str(),
                static_cast<unsigned long long>(orig.count), orig.avg(),
                it->second.avg(), premium);
    csv.write_row({static_cast<double>(row++),
                   static_cast<double>(orig.count), orig.avg(),
                   it->second.avg(), premium});
    // Securable data-path classes must show a positive premium.
    if (mnemonic == "lw" || mnemonic == "sw" || mnemonic == "xor") {
      ok &= premium > 10.0;
    }
  }
  std::printf("\n(loads/stores carry the largest premium: dual-rail "
              "address+data buses plus three pipeline latches; the paper's "
              "motivation for securing as few of them as possible.)\n");
  return ok ? 0 : 1;
}
