// Per-cycle microarchitectural activity report: the interface between the
// pipeline simulator (producer) and the energy model (consumer).
//
// The simulator fills one CycleActivity per clock; the energy model converts
// it into joules.  sim::Pipeline::step() writes every field of the record
// every cycle, idle or busy, so a caller may hand it the same record each
// clock without clearing it.  Keeping the two decoupled mirrors SimplePower's split
// between the performance simulator and the energy estimation back end, and
// lets tests drive the energy model with synthetic activity.
#pragma once

#include <cstdint>

#include "isa/opcode.hpp"

namespace emask::energy {

/// A pipeline-register write: `payload` is the data-dependent portion of the
/// latch contents (up to 64 bits meaningful, given by `width`).
struct LatchWrite {
  bool wrote = false;
  bool secure = false;   // latch operates in dual-rail pre-charged mode
  std::uint64_t payload = 0;
  int width = 64;

  bool operator==(const LatchWrite&) const = default;
};

/// Functional-unit activity in EX.
struct ExecActivity {
  bool valid = false;
  isa::FuncUnit unit = isa::FuncUnit::kNone;
  bool secure = false;
  std::uint32_t a = 0;       // operand A
  std::uint32_t b = 0;       // operand B
  std::uint32_t result = 0;  // unit output

  bool operator==(const ExecActivity&) const = default;
};

/// Data-memory activity in MEM.
struct MemActivity {
  bool read = false;
  bool write = false;
  bool secure = false;       // secure load/store: dual-rail address+data path
  std::uint32_t address = 0;
  std::uint32_t data = 0;    // word read or written

  bool operator==(const MemActivity&) const = default;
};

struct CycleActivity {
  // IF stage.
  bool fetch = false;
  std::uint64_t fetch_bits = 0;  // 33-bit encoded instruction word
  std::uint32_t fetch_pc = 0;    // instruction index (metadata: lets tools
                                 // map cycles to program phases)

  // ID stage.
  bool decode = false;
  int rf_reads = 0;

  // EX stage.
  ExecActivity ex;

  // MEM stage.
  MemActivity mem;

  // WB stage.
  bool rf_write = false;
  bool wb_secure = false;  // complementary rail terminated (dummy load)
  bool retired = false;    // an instruction completed this cycle
  std::uint32_t retire_pc = 0;  // its instruction index (metadata)

  // Pipeline registers written at the end of this cycle.
  LatchWrite if_id;
  LatchWrite id_ex;
  LatchWrite ex_mem;
  LatchWrite mem_wb;

  bool operator==(const CycleActivity&) const = default;
};

}  // namespace emask::energy
