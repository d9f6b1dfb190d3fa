// Per-layer probes of the traced run.  Each layer is called through its
// public API on fixed inputs, N times, and timed from outside; the inputs
// do not depend on the workload, so every workload reports the same probe
// set and a later change can be compared layer by layer.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/collision.hpp"
#include "analysis/cpa.hpp"
#include "analysis/dpa.hpp"
#include "analysis/hypothesis.hpp"
#include "analysis/mlpa.hpp"
#include "analysis/trace_io.hpp"
#include "assembler/assembler.hpp"
#include "bench.hpp"
#include "bitslice/providers.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "compiler/masking.hpp"
#include "compiler/slicer.hpp"
#include "core/phase_profile.hpp"
#include "des/asm_generator.hpp"
#include "des/des.hpp"
#include "energy/model.hpp"
#include "report/html.hpp"
#include "report/model.hpp"
#include "session/session.hpp"
#include "sim/pipeline.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace emask;

constexpr std::uint64_t kProbeSeed = 0x5EED;

/// Calls `fn(i)` `n` times and returns each call's duration in `scale`
/// units per second (1e3 = ms, 1e6 = us).
template <typename Fn>
std::vector<double> time_each(std::size_t n, double scale, Fn&& fn) {
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    v.push_back(seconds_since(t0) * scale);
  }
  return v;
}

std::uint64_t plaintext(std::size_t i) { return util::Rng::nth(kProbeSeed, i); }

/// Attack probes: add_trace per trace, solve, and the bitsliced provider
/// fill, for one attack type on a fixed windowed trace sample.
template <typename Attack, typename Config>
void probe_attack(const std::string& name, const Config& config,
                  std::shared_ptr<analysis::HypothesisProvider> provider,
                  const analysis::TraceSet& sample, std::size_t solves,
                  Metrics& out) {
  Attack attack(config);
  attack.set_provider(provider);
  out.timing("analysis.add_trace_us." + name,
             time_each(sample.size(), 1e6,
                       [&](std::size_t i) {
                         attack.add_trace(sample.inputs[i], sample.traces[i]);
                       }),
             "us");
  out.timing("analysis.solve_ms." + name,
             time_each(solves, 1e3, [&](std::size_t) { (void)attack.solve(); }),
             "ms");
  // One fill is tens of ns, below clock resolution: time blocks of 64.
  constexpr std::size_t kBlock = 64;
  std::vector<int> row(static_cast<std::size_t>(provider->count()));
  out.timing("bitslice.fill_ns." + name,
             time_each(64, 1e9 / kBlock,
                       [&](std::size_t b) {
                         for (std::size_t j = 0; j < kBlock; ++j) {
                           provider->fill(plaintext(b * kBlock + j), row);
                         }
                       }),
             "ns");
}

// A small campaign for the campaign and report probes: one device, a
// full-trace energy scenario and a windowed CPA scenario, traces saved.
constexpr const char* kProbeSpec = R"(
[campaign]
name = perfbench_probe
seed = 1
window_begin = 8340
window_end = 8410
save_traces = true
[axes]
cipher = des
policy = original
analysis = energy, cpa
traces = 8
)";

}  // namespace

void run_layer_probes(const Options& o, Checks& checks, Metrics& out) {
  // Sample sizes: n >= 21 keeps at least 10 samples above the p50; the
  // cheap layers take more so their tail percentile sits higher.
  const std::size_t cheap = o.tiny ? 21 : 60;
  const std::size_t full = o.tiny ? 21 : 24;
  const std::size_t per_run = o.tiny ? 21 : 200;

  // ---- program build: des -> assembler -> compiler -> core ----
  std::string src;
  out.timing("des.generate_ms", time_each(cheap, 1e3, [&](std::size_t i) {
               src = des::generate_des_asm(kKey, plaintext(i), {});
             }),
             "ms");
  assembler::Program program;
  out.timing("assembler.assemble_ms", time_each(cheap, 1e3, [&](std::size_t) {
               program = assembler::assemble(src);
             }),
             "ms");
  out.timing("compiler.slice_ms", time_each(cheap, 1e3, [&](std::size_t) {
               (void)compiler::forward_slice(program);
             }),
             "ms");
  compiler::MaskResult masked;
  out.timing("compiler.mask_ms", time_each(cheap, 1e3, [&](std::size_t) {
               masked = compiler::apply_masking(program,
                                                compiler::Policy::kSelective);
             }),
             "ms");
  out.timing("core.device_build_ms", time_each(full, 1e3, [&](std::size_t) {
               (void)core::MaskingPipeline::des(compiler::Policy::kSelective);
             }),
             "ms");
  out.timing("session.build_ms", time_each(full, 1e3, [&](std::size_t) {
               session::SessionConfig c;
               c.cipher = session::SessionCipher::kTdesEdeCbc;
               c.threads = o.threads;
               session::SessionEngine engine(c);
             }),
             "ms");

  // ---- per-run cost of the cold path (1 thread) ----
  const core::MaskingPipeline original =
      core::MaskingPipeline::des(compiler::Policy::kOriginal);
  const core::SboxWindow w = core::des_round1_sbox_window(original.program(), 0);
  const HostUsage u0 = HostUsage::now();
  const std::vector<double> setup_us =
      time_each(per_run, 1e6, [&](std::size_t i) {
        (void)original.run_des(kKey, plaintext(i), 1);
      });
  const HostUsage du = HostUsage::now() - u0;
  out.timing("core.run_setup_us", setup_us, "us");
  out.set("core.minor_faults_per_run",
          static_cast<double>(du.minor_faults) / static_cast<double>(per_run),
          "count");
  const std::vector<double> windowed_ms =
      time_each(std::max<std::size_t>(21, per_run / 2), 1e3, [&](std::size_t i) {
        (void)original.run_des(kKey, plaintext(i), w.end);
      });
  out.timing("core.windowed_run_ms", windowed_ms, "ms");
  out.set("core.run_setup_share_pct",
          median(setup_us) / 1e3 / median(windowed_ms) * 100.0, "%",
          "1-cycle run p50 / windowed run p50");
  out.timing("core.cold_run_ms", time_each(full, 1e3, [&](std::size_t i) {
               const core::EncryptionRun run =
                   original.run_des(kKey, plaintext(i));
               checks.expect(run.cipher == des::encrypt_block(plaintext(i), kKey),
                             "probe: cold run ciphertext mismatch");
             }),
             "ms");
  for (const char* name : {"wddl", "random_precharge", "shuffle_nop"}) {
    const core::MaskingPipeline device =
        core::MaskingPipeline::des(hiding::countermeasure_from_name(name));
    out.timing(std::string("hiding.run_ms.") + name,
               time_each(full, 1e3, [&](std::size_t i) {
                 (void)device.run_des(kKey, plaintext(i));
               }),
               "ms");
  }

  // ---- shared-prefix fork path ----
  des::DesAsmOptions hoisted;
  hoisted.hoist_key_schedule = true;
  const core::MaskingPipeline forkable = core::MaskingPipeline::des(
      compiler::Policy::kSelective, energy::TechParams::smartcard_025um(),
      hoisted);
  std::optional<core::DesSnapshot> snapshot;
  out.timing("core.snapshot_ms", time_each(full, 1e3, [&](std::size_t) {
               snapshot.emplace(forkable.snapshot_des(kKey));
             }),
             "ms");
  out.timing("core.fork_run_ms", time_each(full, 1e3, [&](std::size_t i) {
               const core::EncryptionRun run =
                   forkable.run_des_from(*snapshot, plaintext(i));
               checks.expect(run.cipher == des::encrypt_block(plaintext(i), kKey),
                             "probe: forked run ciphertext mismatch");
             }),
             "ms");

  // ---- simulator and energy model apart ----
  // Pipeline::run alone, then ProcessorEnergyModel::cycle replaying the
  // activity stream Pipeline::step recorded for the same program.
  const compiler::MaskResult sim_prog = compiler::apply_masking(
      assembler::assemble(des::generate_des_asm(kKey, plaintext(0), {})),
      compiler::Policy::kSelective);
  std::uint64_t cycles = 0;
  out.timing("sim.ns_per_cycle", [&] {
               std::vector<double> v = time_each(full, 1e9, [&](std::size_t) {
                 sim::Pipeline p(sim_prog.program);
                 cycles = p.run().cycles;
               });
               for (double& x : v) x /= static_cast<double>(cycles);
               return v;
             }(),
             "ns");
  std::vector<energy::CycleActivity> activity;
  {
    sim::Pipeline p(sim_prog.program);
    energy::CycleActivity a;
    while (p.step(a)) activity.push_back(a);
  }
  double sink = 0.0;
  out.timing("energy.ns_per_cycle", [&] {
               std::vector<double> v = time_each(full, 1e9, [&](std::size_t) {
                 energy::ProcessorEnergyModel model;
                 for (const energy::CycleActivity& a : activity) {
                   sink += model.cycle(a);
                 }
               });
               for (double& x : v) x /= static_cast<double>(activity.size());
               return v;
             }(),
             "ns");
  checks.expect(sink > 0.0, "probe: energy replay produced no energy");

  // ---- thread scaling of windowed capture (attack_window's shape) ----
  const std::size_t scale_n = o.tiny ? 32 : 512;
  std::vector<double> rate1;
  std::vector<double> rate_n;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::size_t threads : {std::size_t{1}, o.max_threads}) {
      core::BatchConfig bc;
      bc.threads = threads;
      bc.stop_after_cycles = w.end;
      core::BatchRunner runner(original, bc);
      const auto t0 = Clock::now();
      runner.capture_each(scale_n, core::random_plaintexts(kKey, kProbeSeed),
                          [](std::size_t, const core::BatchInput&,
                             core::EncryptionRun&) {});
      (threads == 1 ? rate1 : rate_n)
          .push_back(static_cast<double>(scale_n) / seconds_since(t0));
    }
  }
  out.set("core.thread_scaling", median(rate_n) / median(rate1), "x",
          std::to_string(o.max_threads) + " threads vs 1, " +
              std::to_string(scale_n) + " windowed traces");

  // ---- analysis: attacks on a fixed windowed sample, EMTS IO ----
  const std::size_t sample_n = o.tiny ? 32 : 256;
  core::BatchConfig bc;
  bc.threads = o.threads;
  bc.stop_after_cycles = w.end;
  core::BatchRunner runner(original, bc);
  const analysis::TraceSet sample =
      runner.capture(sample_n, core::random_plaintexts(kKey, kProbeSeed));
  const std::size_t solves = o.tiny ? 21 : 30;
  {
    analysis::DpaConfig c;
    c.window_begin = w.begin;
    c.window_end = w.end;
    probe_attack<analysis::DpaAttack>(
        "dpa", c, std::make_shared<bitslice::DpaProvider>(0, 0), sample,
        solves, out);
  }
  {
    analysis::CpaConfig c;
    c.window_begin = w.begin;
    c.window_end = w.end;
    probe_attack<analysis::CpaAttack>(
        "cpa", c, std::make_shared<bitslice::CpaProvider>(0), sample, solves,
        out);
  }
  {
    analysis::MlpaConfig c;
    c.window_begin = w.begin;
    c.window_end = w.end;
    const analysis::MlpaAttack layout(c);  // its approximation table
    std::vector<int> masks;
    for (const analysis::LinearApprox& ap : layout.approximations()) {
      masks.push_back(ap.in_mask);
    }
    probe_attack<analysis::MlpaAttack>(
        "mlpa", c,
        std::make_shared<bitslice::MlpaProvider>(0, std::move(masks)), sample,
        solves, out);
  }
  {
    analysis::CollisionConfig c;
    c.window_begin = w.begin;
    c.window_end = w.end;
    probe_attack<analysis::CollisionAttack>(
        "collision", c, std::make_shared<bitslice::CollisionProvider>(0),
        sample, solves, out);
  }

  const std::string path = o.work_dir + "/probe.emts";
  analysis::save_trace_set(path, sample);
  const double mb = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  std::vector<double> write_mb_s;
  std::vector<double> read_mb_s;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    analysis::save_trace_set(path, sample);
    write_mb_s.push_back(mb / seconds_since(t0));
    t0 = Clock::now();
    const analysis::TraceSet back = analysis::load_trace_set(path);
    read_mb_s.push_back(mb / seconds_since(t0));
    checks.expect(back.inputs == sample.inputs && back.size() == sample.size(),
                  "probe: EMTS round trip changed the trace set");
  }
  std::filesystem::remove(path);

  // ---- campaign and report ----
  const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(kProbeSpec);
  campaign::RunnerOptions opts;
  opts.out_dir = o.work_dir + "/probe_campaign";
  opts.jobs = o.threads;
  opts.quiet = true;
  std::vector<double> run_s;
  for (int rep = 0; rep < 7; ++rep) {
    std::filesystem::remove_all(opts.out_dir);
    const auto t0 = Clock::now();
    const campaign::CampaignReport report =
        campaign::CampaignRunner(spec, opts).run();
    run_s.push_back(seconds_since(t0));
    checks.expect(report.complete, "probe: campaign did not complete");
  }
  out.set("campaign.run_s", median(run_s), "s",
          "2-scenario spec, median of 7 runs");
  const report::Model model = report::Model::load(opts.out_dir);
  out.timing("report.render_ms", time_each(cheap, 1e3, [&](std::size_t) {
               checks.expect(!report::render(model).empty(),
                             "probe: empty report");
             }),
             "ms");
  std::filesystem::remove_all(opts.out_dir);

  out.set("analysis.emts_write_mb_s", median(write_mb_s), "MB/s",
          std::to_string(sample_n) + " traces, " + std::to_string(mb) + " MB");
  out.set("analysis.emts_read_mb_s", median(read_mb_s), "MB/s");
}

}  // namespace perfbench
