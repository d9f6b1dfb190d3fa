#include "dualrail/xor_unit.hpp"

#include <bit>

namespace emask::dualrail {

DualRailXor32::DualRailXor32(double node_cap_farads, double vdd) {
  const double node_energy = node_cap_farads * vdd * vdd;  // as DynamicNode
  for (std::size_t k = 1; k < recharge_.size(); ++k) {
    recharge_[k] = recharge_[k - 1] + node_energy;
  }
}

CycleEnergy DualRailXor32::cycle(std::uint32_t a, std::uint32_t b,
                                 bool secure) {
  // Phase 1 (v = 0): pre-charge every discharged node of both rails.  The
  // complementary rail is pre-charged too; if it was never discharged
  // (gated cycles) this costs nothing.
  CycleEnergy e;
  e.precharge = recharge_[static_cast<std::size_t>(
      std::popcount(~true_charged_) + std::popcount(~comp_charged_))];
  true_charged_ = ~0u;
  comp_charged_ = ~0u;
  // Phase 2 (v = 1): evaluate.  The true rail discharges where a^b == 1.
  // The complementary rail's clock is "secure & v": it only evaluates for
  // secure instructions, where it discharges where a^b == 0.
  const std::uint32_t x = a ^ b;
  true_charged_ &= ~x;
  if (secure) comp_charged_ &= x;
  discharged_ = std::popcount(~true_charged_) + std::popcount(~comp_charged_);
  // Dynamic-logic convention: output reads 1 where the node discharged, via
  // the output inverter; the charged node reads 0.
  result_ = ~true_charged_;
  return e;
}

}  // namespace emask::dualrail
