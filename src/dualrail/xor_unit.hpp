// 32-bit dual-rail pre-charged XOR unit (paper Fig. 5).
//
// The required rail computes a_i XOR b_i per bit with a dynamic gate; the
// complementary rail computes NOT(a_i XOR b_i).  When an instruction's
// secure bit is set, both rails evaluate, so exactly 32 of the 64 nodes
// discharge each cycle and the recharge energy is a constant
// 32 * C_node * Vdd^2 regardless of the operand values.  When the secure bit
// is clear, the complementary rail's evaluation clock is gated off
// ("secure & v" in the paper's figure), halving the energy but making it
// data-dependent again.
//
// The circuit is still modelled node by node — each of the 64 dynamic
// nodes (dynamic_gate.hpp) keeps its own charge state — but the state of a
// rail is held as one 32-bit mask, bit i set while node i is charged, so a
// cycle is a few word operations instead of a walk over 64 node objects.
#pragma once

#include <array>
#include <cstdint>

namespace emask::dualrail {

/// Per-cycle energy report of a dual-rail unit, in joules.
struct CycleEnergy {
  double precharge = 0.0;
  double evaluate = 0.0;  // conduction losses are folded into precharge cost
  [[nodiscard]] double total() const { return precharge + evaluate; }
};

class DualRailXor32 {
 public:
  DualRailXor32(double node_cap_farads, double vdd);

  /// Runs one full clock cycle (pre-charge phase then evaluation phase) with
  /// operands `a` and `b`.  `secure` enables the complementary rail.
  /// Returns the supply energy drawn this cycle.
  CycleEnergy cycle(std::uint32_t a, std::uint32_t b, bool secure);

  /// Result latched at the end of the last evaluation (true rail).
  [[nodiscard]] std::uint32_t result() const { return result_; }

  /// Number of nodes (true + complement rails) discharged during the last
  /// evaluation.  With `secure` this is always 32.
  [[nodiscard]] int discharged_nodes() const { return discharged_; }

 private:
  // recharge_[k] is C*V^2 added k times in sequence from 0.0: bit for bit
  // the sum of k per-node recharge energies in any node order, because the
  // nodes that stayed charged contribute an exact 0.0.
  std::array<double, 65> recharge_{};
  std::uint32_t true_charged_ = ~0u;  // a ^ b rail; powered up charged
  std::uint32_t comp_charged_ = ~0u;  // ~(a ^ b) rail
  std::uint32_t result_ = 0;
  int discharged_ = 0;
};

}  // namespace emask::dualrail
