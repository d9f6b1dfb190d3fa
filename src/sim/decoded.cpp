#include "sim/decoded.hpp"

namespace emask::sim {

DecodedInst decode(const isa::Instruction& inst) {
  const isa::OpcodeInfo& oi = isa::info(inst.op);
  const auto reg = [](std::optional<isa::Reg> r) {
    return r ? *r : DecodedInst::kNoReg;
  };
  DecodedInst d;
  d.encoded = isa::encode(inst);
  d.imm = inst.imm;
  d.op = inst.op;
  d.unit = oi.unit;
  d.dest = reg(inst.dest());
  d.src1 = reg(inst.src1());
  d.src2 = reg(inst.src2());
  d.is_load = oi.is_load;
  d.is_store = oi.is_store;
  d.secure = inst.secure;
  d.halt = inst.op == isa::Opcode::kHalt;
  return d;
}

DecodedText decode_text(const assembler::Program& program) {
  DecodedText text;
  text.reserve(program.text.size());
  for (const isa::Instruction& inst : program.text) text.push_back(decode(inst));
  return text;
}

}  // namespace emask::sim
