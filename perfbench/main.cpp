// perfbench: end-to-end and per-layer benchmark of the emask stack.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --work-dir=DIR [--tiny]
//
// Prints one line per metric (name, value, unit), then, as the last line of
// standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace=0 the metrics are the end-to-end set, with --trace=1 the
// per-layer set.  Exit status: 0 when every output check passed, 1 when a
// check failed (the JSON still prints), 2 on usage or runtime errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/argparse.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;

/// End-to-end metrics (untraced run).  Every workload emits all of them.
/// The round figures are totals over the timed phase divided by the
/// rounds: the host's speed swings from round to round, and the mean of a
/// run moves less between runs than the median round does.
void end_to_end(const WorkloadResult& r, Metrics& m) {
  m.set("setup_s", median(r.setup_s), "s",
        "median of " + std::to_string(r.setup_s.size()) + " set-ups");
  const double rounds = static_cast<double>(r.round_wall_s.size());
  const double timed_s =
      std::accumulate(r.round_wall_s.begin(), r.round_wall_s.end(), 0.0);
  const double cpu_s =
      std::accumulate(r.round_cpu_s.begin(), r.round_cpu_s.end(), 0.0);
  const Summary wall = summarize(r.round_wall_s);
  m.set("wall_s", timed_s / rounds, "s",
        "mean of " + std::to_string(wall.n) + " rounds; median " +
            std::to_string(wall.p50) + ", max " +
            std::to_string(*std::max_element(r.round_wall_s.begin(),
                                             r.round_wall_s.end())));
  m.set("traces_per_s", static_cast<double>(r.traces) / timed_s, "1/s",
        "over the timed phase");
  m.set("sim_mcycles_per_s", static_cast<double>(r.cycles) / timed_s / 1e6,
        "Mcycle/s", "over the timed phase");
  m.set("cpu_s", cpu_s / rounds, "s", "user+sys per round, all threads");
  m.set("peak_rss_mb", r.peak_rss_mb, "MB", "after set-up + warm-up round");
}

/// Per-layer metrics measured inside the workload's own rounds (traced
/// run).
void workload_layers(const WorkloadResult& r, Metrics& m) {
  const auto series = [&](const std::string& name) {
    const auto it = r.series.find(name);
    return it == r.series.end() ? std::vector<double>{} : it->second;
  };
  const std::vector<double> capture = series("core.capture_s");
  const std::vector<double> sink = series("core.sink_s");
  std::vector<double> wait;
  for (std::size_t i = 0; i < std::min(capture.size(), sink.size()); ++i) {
    wait.push_back(capture[i] - sink[i]);
  }
  m.set("core.capture_s", median(capture), "s", "per round");
  m.set("core.sink_s", median(sink), "s", "per round");
  m.set("core.consumer_wait_s", median(wait), "s", "capture - sink, per round");
  m.set("host.sys_s", median(r.round_sys_s), "s", "per round");
  m.set("host.minor_faults", median(r.round_minor_faults), "count",
        "per round");
  m.set("trace.round_wall_s", median(r.round_wall_s), "s",
        "traced round; compare with wall_s for the tracing overhead");
  const Counts& c = r.counts;
  m.set("sim.cycles", static_cast<double>(c.cycles), "count", "warm-up round");
  m.set("sim.instructions", static_cast<double>(c.instructions), "count");
  m.set("sim.stalls", static_cast<double>(c.stalls), "count");
  m.set("sim.flushes", static_cast<double>(c.flushes), "count");
  m.set("core.snapshot_forks", static_cast<double>(c.snapshot_forks), "count");
  m.set("core.cold_starts", static_cast<double>(c.cold_starts), "count");
}

void print(const std::string& workload, const Metrics& m) {
  for (const Metric& x : m.list()) {
    std::printf("%-14s %-34s %16.6f %-9s %s\n", workload.c_str(),
                x.name.c_str(), x.value, x.unit.c_str(), x.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  emask::util::ArgParser args(
      "perfbench", "--workload=NAME --seed=N --seconds=S --trace=0|1 "
                   "--work-dir=DIR");
  args.opt_choice("workload", &o.workload, {"attack_window", "energy_full"},
                  "workload to run");
  args.opt_u64("seed", &seed, "input seed");
  args.opt_double("seconds", &seconds, "length of the timed phase");
  args.opt_int("trace", &trace, "1 = traced run with per-layer metrics");
  args.opt_string("work-dir", &o.work_dir, "DIR",
                  "scratch directory for probe campaign and EMTS files");
  args.flag("tiny", &o.tiny, "smoke-test sizes");
  try {
    if (!args.parse(argc, argv)) return 0;
    if (o.workload.empty() || o.work_dir.empty() || seconds <= 0.0 ||
        (trace != 0 && trace != 1)) {
      std::fprintf(stderr, "%s", args.usage().c_str());
      return 2;
    }
    o.seed = seed;
    o.seconds = seconds;
    o.trace = trace == 1;
    o.max_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    o.threads = std::min<std::size_t>(o.max_threads, 2);
    std::filesystem::create_directories(o.work_dir);

    Checks checks;
    WorkloadResult r;
    if (o.workload == "attack_window") r = run_attack_window(o, checks);
    if (o.workload == "energy_full") r = run_energy_full(o, checks);

    Metrics metrics;
    if (o.trace) {
      workload_layers(r, metrics);
      run_layer_probes(o, checks, metrics);
    } else {
      end_to_end(r, metrics);
    }
    print(o.workload, metrics);
    print(o.workload, r.extra);
    std::printf("%-14s %-34s %16.6f %-9s %llu of %llu checks failed\n",
                o.workload.c_str(), "failed_fraction",
                static_cast<double>(checks.failed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        checks.attempted, 1)),
                "1", static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    for (const std::string& f : checks.failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    }

    std::string body = "{\"correct\": " +
                       std::string(checks.failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(checks.attempted) +
                       ", \"failed\": " + std::to_string(checks.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const Metric& x : metrics.list()) {
      if (!std::isfinite(x.value)) {
        throw std::runtime_error("metric " + x.name + " is not finite");
      }
      body += (first ? "" : ", ") + std::string("\"") + x.name +
              "\": {\"value\": " + emask::util::JsonWriter::format_double(x.value) +
              ", \"unit\": \"" + x.unit + "\"}";
      first = false;
    }
    body += "}}";
    std::printf("%s\n", body.c_str());
    return checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
