#include "sim/pipeline.hpp"

#include <stdexcept>
#include <string>

namespace emask::sim {
namespace {

using isa::Opcode;

constexpr isa::Reg kNoReg = DecodedInst::kNoReg;

/// Result of executing an instruction in EX.
struct ExOutput {
  std::uint32_t result = 0;  // ALU result / memory address / link value
  bool control_taken = false;
  std::uint32_t target = 0;  // next pc when control_taken
};

ExOutput execute(const DecodedInst& inst, std::uint32_t pc, std::uint32_t a,
                 std::uint32_t b) {
  ExOutput out;
  const auto sa = static_cast<std::int32_t>(a);
  const auto sb = static_cast<std::int32_t>(b);
  const auto simm = inst.imm;
  const auto zimm = static_cast<std::uint32_t>(inst.imm) & 0xFFFFu;
  switch (inst.op) {
    case Opcode::kAddu: out.result = a + b; break;
    case Opcode::kSubu: out.result = a - b; break;
    case Opcode::kAnd: out.result = a & b; break;
    case Opcode::kOr: out.result = a | b; break;
    case Opcode::kXor: out.result = a ^ b; break;
    case Opcode::kNor: out.result = ~(a | b); break;
    case Opcode::kSlt: out.result = (sa < sb) ? 1u : 0u; break;
    case Opcode::kSltu: out.result = (a < b) ? 1u : 0u; break;
    // Variable shifts: rd = rt shifted by rs (a = rs value, b = rt value).
    case Opcode::kSllv: out.result = b << (a & 31u); break;
    case Opcode::kSrlv: out.result = b >> (a & 31u); break;
    case Opcode::kSrav:
      out.result = static_cast<std::uint32_t>(sb >> (a & 31u));
      break;
    // Shift by immediate: a carries the rt value.
    case Opcode::kSll: out.result = a << (simm & 31); break;
    case Opcode::kSrl: out.result = a >> (simm & 31); break;
    case Opcode::kSra:
      out.result = static_cast<std::uint32_t>(sa >> (simm & 31));
      break;
    case Opcode::kAddiu:
      out.result = a + static_cast<std::uint32_t>(simm);
      break;
    case Opcode::kAndi: out.result = a & zimm; break;
    case Opcode::kOri: out.result = a | zimm; break;
    case Opcode::kXori: out.result = a ^ zimm; break;
    case Opcode::kSlti: out.result = (sa < simm) ? 1u : 0u; break;
    case Opcode::kSltiu:
      out.result = (a < static_cast<std::uint32_t>(simm)) ? 1u : 0u;
      break;
    case Opcode::kLui: out.result = zimm << 16; break;
    case Opcode::kLw:
    case Opcode::kSw:
      out.result = a + static_cast<std::uint32_t>(simm);  // effective address
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlez:
    case Opcode::kBgtz:
    case Opcode::kBltz:
    case Opcode::kBgez: {
      bool taken = false;
      switch (inst.op) {
        case Opcode::kBeq: taken = (a == b); break;
        case Opcode::kBne: taken = (a != b); break;
        case Opcode::kBlez: taken = (sa <= 0); break;
        case Opcode::kBgtz: taken = (sa > 0); break;
        case Opcode::kBltz: taken = (sa < 0); break;
        default: taken = (sa >= 0); break;
      }
      out.result = a - b;  // the comparator's subtraction
      out.control_taken = taken;
      out.target = pc + 1 + static_cast<std::uint32_t>(inst.imm);
      break;
    }
    case Opcode::kJ:
    case Opcode::kJal:
      out.control_taken = true;
      out.target = static_cast<std::uint32_t>(inst.imm);
      out.result = pc + 1;  // link value (kJal only)
      break;
    case Opcode::kJr:
    case Opcode::kJalr:
      out.control_taken = true;
      out.target = a;
      out.result = pc + 1;
      break;
    case Opcode::kHalt:
      break;
  }
  return out;
}

[[noreturn, gnu::cold]] void load_use_violation() {
  throw std::logic_error("Pipeline: load-use forwarding violation");
}

}  // namespace

void Pipeline::use_text(const DecodedText* decoded) {
  if (program_.text.empty()) {
    throw std::invalid_argument("Pipeline: empty program");
  }
  if (decoded == nullptr) {
    own_text_ = decode_text(program_);
    decoded = &own_text_;
  } else if (decoded->size() != program_.text.size()) {
    throw std::invalid_argument(
        "Pipeline: decoded text has " + std::to_string(decoded->size()) +
        " instructions, the program " + std::to_string(program_.text.size()));
  }
  text_ = decoded->data();
}

Pipeline::Pipeline(const assembler::Program& program, SimConfig config,
                   const DecodedText* decoded)
    : program_(program),
      config_(config),
      dmem_(program, config.dmem_bytes),
      pc_(program.entry()) {
  use_text(decoded);
  if (config_.dcache) dcache_.emplace(*config_.dcache);
}

Pipeline::Pipeline(const assembler::Program& program, const Snapshot& snapshot,
                   const DecodedText* decoded)
    : program_(program),
      config_(snapshot.config),
      dmem_(snapshot.memory),  // copy-on-write: pages stay shared until written
      regs_(snapshot.regs),
      pc_(snapshot.pc),
      if_id_(snapshot.if_id),
      id_ex_(snapshot.id_ex),
      ex_mem_(snapshot.ex_mem),
      mem_wb_(snapshot.mem_wb),
      cycles_(snapshot.cycles),
      retired_(snapshot.retired),
      stalls_(snapshot.stalls),
      flushes_(snapshot.flushes),
      dcache_(snapshot.dcache),
      miss_stall_remaining_(snapshot.miss_stall_remaining),
      halted_(snapshot.halted),
      halt_seen_(snapshot.halt_seen) {
  use_text(decoded);
  if (snapshot.text_size != program_.text.size()) {
    throw std::invalid_argument(
        "Pipeline: snapshot was captured from a different program (text size " +
        std::to_string(snapshot.text_size) + " vs " +
        std::to_string(program_.text.size()) + ")");
  }
}

Snapshot Pipeline::snapshot() const {
  return Snapshot{.config = config_,
                  .memory = dmem_,
                  .regs = regs_,
                  .pc = pc_,
                  .if_id = if_id_,
                  .id_ex = id_ex_,
                  .ex_mem = ex_mem_,
                  .mem_wb = mem_wb_,
                  .cycles = cycles_,
                  .retired = retired_,
                  .stalls = stalls_,
                  .flushes = flushes_,
                  .dcache = dcache_,
                  .miss_stall_remaining = miss_stall_remaining_,
                  .halted = halted_,
                  .halt_seen = halt_seen_,
                  .text_size = program_.text.size()};
}

// Inline: EX asks for up to two operands every cycle.
inline std::uint32_t Pipeline::forwarded(isa::Reg r,
                                         std::uint32_t id_value) const {
  if (r == isa::kZero) return 0;
  // Younger result wins: the instruction currently in MEM first.
  if (ex_mem_.valid) {
    const DecodedInst& d = text_[ex_mem_.pc];
    if (d.dest == r) {
      // The interlock must have kept the consumer out of EX.
      if (d.is_load) [[unlikely]] load_use_violation();
      return ex_mem_.alu;
    }
  }
  if (mem_wb_.valid && text_[mem_wb_.pc].dest == r) return mem_wb_.value;
  return id_value;
}

bool Pipeline::step(energy::CycleActivity& activity) {
  activity = energy::CycleActivity{};
  if (halted_) return false;
  ++cycles_;

  // A data-cache miss blocks the whole (in-order, blocking-cache) pipeline;
  // only the clock tree burns energy while the line is refilled.
  if (miss_stall_remaining_ > 0) {
    --miss_stall_remaining_;
    return !halted_;
  }

  // Snapshots of the start-of-cycle latch state.
  const IfId if_id = if_id_;
  const IdEx id_ex = id_ex_;
  const ExMem ex_mem = ex_mem_;
  const MemWb mem_wb = mem_wb_;

  // ---- WB (first half of the cycle: writes are visible to ID reads) ----
  if (mem_wb.valid) {
    const DecodedInst& inst = text_[mem_wb.pc];
    if (inst.dest != kNoReg) regs_[inst.dest] = mem_wb.value;
    ++retired_;
    activity.rf_write = inst.dest != kNoReg;
    activity.wb_secure = inst.secure;
    activity.retired = true;
    activity.retire_pc = mem_wb.pc;
    if (inst.halt) halted_ = true;
  }

  // ---- MEM ----
  MemWb next_mem_wb;
  if (ex_mem.valid) {
    const DecodedInst& inst = text_[ex_mem.pc];
    std::uint32_t value = ex_mem.alu;
    if (inst.is_load) {
      value = dmem_.load_word(ex_mem.alu);
      activity.mem.read = true;
    } else if (inst.is_store) {
      dmem_.store_word(ex_mem.alu, ex_mem.store_data);
      activity.mem.write = true;
    }
    if (inst.is_load || inst.is_store) {
      activity.mem.secure = inst.secure;
      activity.mem.address = ex_mem.alu;
      activity.mem.data = inst.is_load ? value : ex_mem.store_data;
      if (dcache_ && !dcache_->access(ex_mem.alu)) {
        // Blocking miss: the access completes architecturally now; the
        // refill penalty freezes the machine for the following cycles.
        miss_stall_remaining_ = dcache_->config().miss_penalty;
      }
    }
    next_mem_wb = MemWb{true, ex_mem.pc, value};
  }

  // ---- EX ----
  ExMem next_ex_mem;
  bool flush = false;
  std::uint32_t flush_target = 0;
  if (id_ex.valid) {
    const DecodedInst& inst = text_[id_ex.pc];
    std::uint32_t a = id_ex.a;
    std::uint32_t b = id_ex.b;
    if (inst.src1 != kNoReg) a = forwarded(inst.src1, a);
    if (inst.src2 != kNoReg) b = forwarded(inst.src2, b);
    const ExOutput out = execute(inst, id_ex.pc, a, b);
    next_ex_mem = ExMem{true, id_ex.pc, out.result, b};
    if (out.control_taken) {
      flush = true;
      flush_target = out.target;
    }
    activity.ex.valid = true;
    activity.ex.unit = inst.unit;
    activity.ex.secure = inst.secure;
    activity.ex.a = a;
    activity.ex.b = b;
    activity.ex.result = out.result;
  }

  // ---- ID (with load-use interlock against the instruction in EX) ----
  IdEx next_id_ex;
  bool stall = false;
  if (if_id.valid) {
    const DecodedInst& inst = text_[if_id.pc];
    if (id_ex.valid) {
      const DecodedInst& producer = text_[id_ex.pc];
      if (producer.is_load && producer.dest != kNoReg &&
          (inst.src1 == producer.dest || inst.src2 == producer.dest)) {
        stall = true;
        ++stalls_;
      }
    }
    if (!stall) {
      // Operand isolation: when the hazard logic already knows a source
      // will be superseded by forwarding in EX (its producer is currently
      // in EX or MEM), the register-file read is gated and a zero is
      // latched.  This is a standard low-power technique — and it also
      // closes a side channel: without it, the *stale* architectural value
      // (possibly secret-derived) of an overwritten register would transit
      // the ID/EX register under a non-secure instruction.
      const auto will_forward = [&](isa::Reg r) {
        return (id_ex.valid && text_[id_ex.pc].dest == r) ||
               (ex_mem.valid && text_[ex_mem.pc].dest == r);
      };
      int reads = 0;
      const auto port = [&](isa::Reg r) -> std::uint32_t {
        if (r == kNoReg) return 0u;
        if (config_.operand_isolation && will_forward(r)) return 0u;
        ++reads;
        return regs_[r];
      };
      next_id_ex = IdEx{true, if_id.pc, port(inst.src1), port(inst.src2)};
      activity.decode = true;
      activity.rf_reads = reads;
    }
  }

  // ---- IF ----
  IfId next_if_id = if_id;  // default: hold on stall
  bool fetched = false;
  std::uint64_t fetch_bits = 0;
  if (!stall) {
    if (!halt_seen_ && pc_ < program_.text.size()) {
      const DecodedInst& inst = text_[pc_];
      fetch_bits = inst.encoded;
      next_if_id = IfId{true, pc_};
      fetched = true;
      if (inst.halt) halt_seen_ = true;
      ++pc_;
    } else {
      // Past a halt, or past the end of text while an in-flight control
      // transfer (e.g. a trailing jr) may still redirect fetch: issue
      // bubbles.  A genuine runaway is detected below when the pipeline
      // drains completely without halting.
      next_if_id = IfId{};
    }
  }
  activity.fetch = fetched;
  activity.fetch_bits = fetch_bits;
  activity.fetch_pc = fetched ? next_if_id.pc : 0;

  // ---- Control transfer: squash the two younger stages ----
  if (flush) {
    ++flushes_;
    next_if_id = IfId{};
    next_id_ex = IdEx{};
    pc_ = flush_target;
    halt_seen_ = false;  // fetch resumes at the target
    if (pc_ >= program_.text.size()) {
      throw std::runtime_error("Pipeline: jump outside text to " +
                               std::to_string(pc_));
    }
  }

  // ---- Latch energy activity (writes occurring at this clock edge) ----
  // Clock-gated: bubbles and held (stalled) latches are not rewritten.
  if (fetched && !flush) {
    activity.if_id = energy::LatchWrite{true, false, fetch_bits, 33};
  }
  if (next_id_ex.valid && !flush) {
    activity.id_ex = energy::LatchWrite{
        true, text_[next_id_ex.pc].secure,
        static_cast<std::uint64_t>(next_id_ex.a) |
            (static_cast<std::uint64_t>(next_id_ex.b) << 32),
        64};
  }
  if (next_ex_mem.valid) {
    activity.ex_mem = energy::LatchWrite{
        true, text_[next_ex_mem.pc].secure,
        static_cast<std::uint64_t>(next_ex_mem.alu) |
            (static_cast<std::uint64_t>(next_ex_mem.store_data) << 32),
        64};
  }
  if (next_mem_wb.valid) {
    activity.mem_wb = energy::LatchWrite{true, text_[next_mem_wb.pc].secure,
                                         next_mem_wb.value, 32};
  }

  // ---- Commit ----
  // On a stall next_id_ex is the default bubble; on a flush it was squashed
  // above, so a plain assignment covers interlock and control transfer.
  if_id_ = next_if_id;
  id_ex_ = next_id_ex;
  ex_mem_ = next_ex_mem;
  mem_wb_ = next_mem_wb;

  if (!halted_ && !halt_seen_ && pc_ >= program_.text.size() &&
      !if_id_.valid && !id_ex_.valid && !ex_mem_.valid && !mem_wb_.valid) {
    throw std::runtime_error("Pipeline: pc ran off the end of text at " +
                             std::to_string(pc_));
  }
  return !halted_;
}

SimResult Pipeline::run() {
  return run([](const energy::CycleActivity&) {});
}

}  // namespace emask::sim
