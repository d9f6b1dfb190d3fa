// Power traces: the attacker's view of the device.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace emask::analysis {

/// Energy per clock cycle, in picojoules — what the paper plots in all of
/// Figures 6-12.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<double> samples) : samples_(std::move(samples)) {}

  void push(double pj) { samples_.push_back(pj); }
  void reserve(std::size_t n) { samples_.reserve(n); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double operator[](std::size_t i) const { return samples_[i]; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// Total energy of the trace, in microjoules.
  [[nodiscard]] double total_uj() const;

  /// Mean energy per cycle, in picojoules.
  [[nodiscard]] double mean_pj() const;

  /// Pointwise difference (this - other) over the common prefix — the
  /// "difference between energy consumption profiles" of Figures 7-11.
  [[nodiscard]] Trace difference(const Trace& other) const;

  /// Non-overlapping window averages (Fig. 6 plots the profile "every 100
  /// cycles" to make the 16 rounds visible).
  [[nodiscard]] Trace windowed_average(std::size_t window) const;

  /// Sub-trace [begin, end).
  [[nodiscard]] Trace slice(std::size_t begin, std::size_t end) const;

  /// Largest absolute sample value.
  [[nodiscard]] double max_abs() const;

 private:
  std::vector<double> samples_;
};

/// Additive white Gaussian measurement noise, emulating oscilloscope /
/// current-probe imperfection.  The paper's simulator is noise-free (and
/// argues that is conservative); the noise model lets us study DPA
/// sample-count behaviour.
class NoiseModel {
 public:
  NoiseModel(double sigma_pj, std::uint64_t seed)
      : sigma_pj_(sigma_pj), rng_(seed) {}

  [[nodiscard]] Trace apply(const Trace& trace);

 private:
  double sigma_pj_;
  util::Rng rng_;
};

/// Writes traces as CSV (cycle, value ...), one column per trace.
void write_traces_csv(const std::string& path,
                      const std::vector<std::string>& names,
                      const std::vector<const Trace*>& traces);

}  // namespace emask::analysis
