// Pre-decoded program text: everything the pipeline stages read from an
// instruction, derived once per program instead of once per cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "assembler/program.hpp"
#include "isa/encoding.hpp"
#include "isa/instruction.hpp"

namespace emask::sim {

/// One instruction as the pipeline sees it.  Register fields hold a register
/// number or kNoReg; `dest` is kNoReg for $zero writes (they are discarded),
/// while a $zero *source* is still a register read.
struct DecodedInst {
  static constexpr isa::Reg kNoReg = 0xFF;

  isa::EncodedWord encoded = 0;  // 33-bit fetched word (bit 32 = secure)
  std::int32_t imm = 0;
  isa::Opcode op = isa::Opcode::kHalt;
  isa::FuncUnit unit = isa::FuncUnit::kNone;
  isa::Reg dest = kNoReg;  // Instruction::dest()
  isa::Reg src1 = kNoReg;  // Instruction::src1()
  isa::Reg src2 = kNoReg;  // Instruction::src2()
  bool is_load = false;
  bool is_store = false;
  bool secure = false;
  bool halt = false;

  bool operator==(const DecodedInst&) const = default;
};

/// Decodes one instruction.  Throws std::invalid_argument when it does not
/// encode (isa::encode).
[[nodiscard]] DecodedInst decode(const isa::Instruction& inst);

/// A program's text, decoded in order: entry `pc` describes
/// program.text[pc].  Immutable once built, so one table per device is
/// shared read-only by every worker and every forked machine.
using DecodedText = std::vector<DecodedInst>;

[[nodiscard]] DecodedText decode_text(const assembler::Program& program);

}  // namespace emask::sim
