// Shared plumbing of the perfbench binary: clocks, host counters, sample
// summaries and the metric table every workload and probe writes into.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process-wide host counters (all threads) from getrusage.
struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;

  static HostUsage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostUsage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = ru.ru_minflt;
    return u;
  }
  HostUsage operator-(const HostUsage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults};
  }
};

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// p50 and the highest percentile that still has at least 10 samples
/// above it (nearest-rank), with the sample count behind both.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  // which percentile `tail` is
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  if (v.size() >= 11) {
    const std::size_t k = v.size() - 11;  // leaves exactly 10 above
    s.tail = v[k];
    s.tail_pct = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  } else {
    s.tail = v.back();  // too few samples for a tail; the max stands in
    s.tail_pct = 100.0;
  }
  return s;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed on the human-readable line only
};

/// Ordered metric table: what the run prints, one line per metric, and
/// serializes into the final JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    list_.push_back({name, value, unit, note});
  }
  /// Emits `<name>.p50` and `<name>.tail` for a timing series.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit) {
    const Summary s = summarize(samples);
    const std::string n = "n=" + std::to_string(s.n);
    set(name + ".p50", s.p50, unit, n);
    set(name + ".tail", s.tail, unit,
        "p" + std::to_string(static_cast<int>(s.tail_pct)) + ", " + n);
  }
  [[nodiscard]] const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// Named timing series collected by the traced run (kept in memory,
/// summarized when the run ends).
using Series = std::map<std::string, std::vector<double>>;

/// Deterministic simulator counts of a capture; must repeat exactly for a
/// given seed at any thread count.
struct Counts {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t stalls = 0;
  std::uint64_t flushes = 0;
  std::uint64_t snapshot_forks = 0;
  std::uint64_t cold_starts = 0;

  void add_run(const emask::core::EncryptionRun& run) {
    stalls += run.sim.stalls;
    flushes += run.sim.flushes;
  }
  void add_stats(const emask::core::BatchStats& st) {
    cycles += st.total_cycles;
    instructions += st.total_instructions;
    snapshot_forks += st.snapshot_forks;
    cold_starts += st.cold_starts;
  }
  bool operator==(const Counts&) const = default;
};

/// Pass/fail tally of every output check a run makes.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      // smoke-test sizes
  std::string work_dir;   // scratch space for probe campaign and EMTS files
  // Worker threads of the timed rounds: min(2, nproc).  Two workers plus
  // the sink on the calling thread leave a core of a 4-core share idle,
  // so neighbours on the host move the figures less than a full share does.
  std::size_t threads = 2;
  // Thread count of the 1-vs-N invariance checks and the scaling probe:
  // min(4, nproc).
  std::size_t max_threads = 4;
};

/// What a workload hands back to main: its end-to-end numbers, checks and
/// deterministic counts, plus the traced run's per-layer spans.
struct WorkloadResult {
  std::vector<double> setup_s;        // one sample per set-up repetition
  std::vector<double> round_wall_s;   // timed rounds
  std::vector<double> round_cpu_s;
  std::vector<double> round_sys_s;
  std::vector<double> round_minor_faults;
  std::uint64_t traces = 0;           // over all timed rounds
  std::uint64_t cycles = 0;           // simulated, over all timed rounds
  double peak_rss_mb = 0.0;           // after the warm-up round
  Counts counts;                      // round 0 (warm-up) counts
  Series series;                      // traced-run spans
  Metrics extra;                      // workload-specific human-only lines
};

WorkloadResult run_attack_window(const Options& o, Checks& checks);
WorkloadResult run_energy_full(const Options& o, Checks& checks);

/// Per-layer probes of the traced run: each layer timed in isolation on
/// fixed inputs (independent of the workload), written into `out`.
void run_layer_probes(const Options& o, Checks& checks, Metrics& out);

/// The key every workload encrypts under (the campaigns' default key).
inline constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;

}  // namespace perfbench
