#include "campaign/runner.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "aes/aes128.hpp"
#include "aes/asm_generator.hpp"
#include "analysis/dpa.hpp"
#include "analysis/generic_cpa.hpp"
#include "analysis/second_order.hpp"
#include "analysis/trace_io.hpp"
#include "analysis/tvla.hpp"
#include "campaign/attack.hpp"
#include "core/batch_runner.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "energy/components.hpp"
#include "session/session.hpp"
#include "sha/asm_generator.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;

// Second-order preprocessing lag horizon (cycles between the two combined
// leakage samples).
constexpr std::size_t kSecondOrderMaxLag = 4;

std::string fmt(double v) { return util::JsonWriter::format_double(v); }

/// Expands a 64-bit input into the AES key / block / SHA-1 message-block
/// shapes via a private SplitMix64 stream — pure functions of the input,
/// as the BatchRunner determinism contract requires.
aes::Key aes_key_from_u64(std::uint64_t seed) {
  util::Rng rng(seed);
  aes::Key key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
  return key;
}

aes::Block aes_block_from_u64(std::uint64_t seed) {
  util::Rng rng(seed);
  aes::Block block;
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_below(256));
  return block;
}

std::array<std::uint32_t, 16> sha_block_from_u64(std::uint64_t seed) {
  util::Rng rng(seed);
  std::array<std::uint32_t, 16> block;
  for (auto& w : block) w = rng.next_u32();
  return block;
}

/// Builds the scenario's device.
core::MaskingPipeline build_device(const Scenario& s,
                                   const energy::TechParams& params) {
  switch (s.cipher) {
    case Cipher::kDes: {
      core::MaskingPipeline device = core::MaskingPipeline::des(s.policy, params);
      // Per-trace hiding randomness (random_precharge stream, shuffle_nop
      // schedule) derives from the scenario seed, so it is as reproducible
      // as the plaintext sequence.
      device.set_hiding_seed(s.seed ^ 0x48D1D6F0ull);
      return device;
    }
    case Cipher::kAes:  // block poked per run (scenario_input)
      return core::MaskingPipeline::from_source(
          aes::generate_aes_asm(aes_key_from_u64(s.key), aes::Block{}),
          s.policy, params);
    case Cipher::kSha1:
      return core::MaskingPipeline::from_source(
          sha::generate_sha1_asm(sha_block_from_u64(s.fixed_input)), s.policy,
          params);
    case Cipher::kDesCbc:
    case Cipher::kTdesCbc:
      break;  // session ciphers never reach build_device
  }
  throw SpecError("unreachable cipher");
}

/// The run input for the scenario's 64-bit input `x`: a DES plaintext as
/// is; for aes/sha1, the block expanded from it, as a poke.
core::BatchInput scenario_input(const Scenario& s, std::uint64_t x) {
  core::BatchInput input{s.key, x};
  if (s.cipher == Cipher::kAes) {
    input.pokes = {aes::plaintext_poke(aes_block_from_u64(x))};
  } else if (s.cipher == Cipher::kSha1) {
    input.pokes = {sha::message_poke(sha_block_from_u64(x))};
  }
  return input;
}

void write_result_csv(const std::string& dir, const ScenarioResult& r) {
  util::CsvWriter csv(dir + "/result.csv");
  csv.write_header({"field", "value"});
  csv.write_row({"encryptions", std::to_string(r.encryptions)});
  csv.write_row({"total_cycles", std::to_string(r.total_cycles)});
  csv.write_row(
      {"total_instructions", std::to_string(r.total_instructions)});
  csv.write_row({"total_energy_uj", fmt(r.total_energy_uj)});
  csv.write_row({"mean_uj", fmt(r.mean_uj())});
  csv.write_row({"secured_count", std::to_string(r.secured_count)});
  csv.write_row(
      {"program_instructions", std::to_string(r.program_instructions)});
  csv.write_row({"metric", fmt(r.metric)});
  csv.write_row({"best_guess", std::to_string(r.best_guess)});
  csv.write_row({"true_value", std::to_string(r.true_value)});
  csv.write_row({"success", std::string(r.success ? "1" : "0")});
  csv.write_row({"margin", fmt(r.margin)});
  csv.write_row(
      {"cycles_over_threshold", std::to_string(r.cycles_over_threshold)});
  csv.flush();
}

void write_breakdown_csv(const std::string& dir,
                         const energy::Breakdown& breakdown) {
  util::CsvWriter csv(dir + "/breakdown.csv");
  csv.write_header({"component", "energy_uj"});
  for (std::size_t c = 0; c < energy::kNumComponents; ++c) {
    const auto component = static_cast<energy::Component>(c);
    csv.write_row({std::string(energy::component_name(component)),
                   fmt(breakdown.get(component) * 1e6)});
  }
  csv.flush();
}

template <typename Scores>
void write_guesses_csv(const std::string& dir, const Scores& scores,
                       const char* score_name) {
  util::CsvWriter csv(dir + "/guesses.csv");
  csv.write_header({"guess", score_name});
  for (std::size_t g = 0; g < scores.size(); ++g) {
    csv.write_row({std::to_string(g), fmt(scores[g])});
  }
  csv.flush();
}

void fill_batch_stats(ScenarioResult& r, const core::BatchStats& stats) {
  r.encryptions += stats.encryptions;
  r.total_cycles += stats.total_cycles;
  r.total_instructions += stats.total_instructions;
  r.total_energy_uj += stats.total_energy_uj;
  r.threads_used = stats.threads_used;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The spec's analysis window; window_end = 0 means "to the end".
core::SboxWindow spec_window(const Scenario& s) {
  return {s.window_begin, s.window_end == 0 ? SIZE_MAX : s.window_end};
}

/// Where a scenario's traces come from: a batch of single-block
/// encryptions or one CBC session.  Either way the analysis sees
/// (index, input, run) in index order; `input` is what the round-1
/// hypotheses take as the plaintext.
class TraceSource {
 public:
  using Sink = std::function<void(std::size_t index, std::uint64_t input,
                                  core::EncryptionRun& run)>;

  TraceSource(const Scenario& s, std::string traces_path)
      : s_(s), traces_path_(std::move(traces_path)) {}
  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;
  virtual ~TraceSource() = default;

  [[nodiscard]] virtual const core::MaskingPipeline& device() const = 0;
  /// Traces one capture yields: the batch size (per class for TVLA) or
  /// the session length.
  [[nodiscard]] virtual std::size_t count() const = 0;
  /// The window a table attack on `sbox` reads: the S-box's round-1
  /// window in the compiled program when `sbox_window` (sessions always
  /// use it), otherwise the spec window.
  [[nodiscard]] virtual core::SboxWindow window(int sbox,
                                                bool sbox_window) = 0;
  /// TVLA's fixed class: count() runs of the scenario's fixed input, with
  /// the batch stats added to `r`.
  virtual void capture_fixed(
      ScenarioResult& /*r*/,
      const std::function<void(core::EncryptionRun&)>& /*sink*/) {
    throw SpecError("analysis '" + std::string(analysis_name(s_.analysis)) +
                    "' is not defined for session ciphers "
                    "(expected energy|dpa|cpa|mlpa|collision)");
  }
  /// Artifacts beside result.csv that only this source writes.
  virtual void write_artifacts(const std::string& /*dir*/) const {}

  /// Captures count() traces into `sink` in index order, saves them to
  /// traces.emts when the spec asks, and adds the batch stats to `r`.
  const core::BatchStats& capture(ScenarioResult& r, const Sink& sink) {
    std::unique_ptr<analysis::TraceSetWriter> writer;
    if (!traces_path_.empty()) {
      writer =
          std::make_unique<analysis::TraceSetWriter>(traces_path_, count());
    }
    const core::BatchStats& stats =
        stream([&](std::size_t index, std::uint64_t input,
                   core::EncryptionRun& run) {
          if (writer) writer->append(input, run.trace);
          sink(index, input, run);
        });
    if (writer) writer->close();
    fill_batch_stats(r, stats);
    return stats;
  }

 protected:
  /// Runs the capture; returns its batch stats.
  virtual const core::BatchStats& stream(const Sink& sink) = 0;

  const Scenario& s_;

 private:
  std::string traces_path_;
};

/// Single-block capture: one core::BatchRunner batch on the scenario's
/// device.  Input i is plaintext Rng::nth(scenario seed, i) under the
/// campaign key (for aes/sha1 the u64 is expanded into a block poke by
/// scenario_input, so the same input stream drives all three ciphers).
class BlockSource final : public TraceSource {
 public:
  BlockSource(const Scenario& s, const energy::TechParams& params,
              std::size_t jobs, std::string traces_path)
      : TraceSource(s, std::move(traces_path)),
        device_(build_device(s, params)) {
    // Energy scenarios measure the whole encryption; attack scenarios stop
    // at the end of the analysis window (an attacker windowing round 1
    // does not pay for the other fifteen).
    bc_.stop_after_cycles = s.analysis == Analysis::kEnergy ? 0 : s.window_end;
    bc_.threads = jobs;
    bc_.noise_sigma_pj = s.noise_sigma_pj;
    bc_.noise_seed = s.seed ^ 0x5EED50FAull;
  }

  const core::MaskingPipeline& device() const override { return device_; }
  std::size_t count() const override {
    return s_.analysis == Analysis::kTvla ? s_.traces / 2 : s_.traces;
  }
  /// The capture stops at the spec's window_end, so an S-box window the
  /// spec window does not cover would be attacked on cycles that were
  /// never captured: that is a spec error, raised before any capture.
  core::SboxWindow window(int sbox, bool sbox_window) override {
    const core::SboxWindow w =
        core::des_round1_sbox_window(device_.program(), sbox);
    const core::SboxWindow spec = spec_window(s_);
    if (w.begin < spec.begin || w.end > spec.end) {
      throw SpecError(s_.id + ": the round-1 window of S-box " +
                      std::to_string(sbox + 1) + ", cycles [" +
                      std::to_string(w.begin) + ", " + std::to_string(w.end) +
                      "), does not fit in window_begin = " +
                      std::to_string(s_.window_begin) + ", window_end = " +
                      std::to_string(s_.window_end));
    }
    return sbox_window ? w : spec;
  }

  void capture_fixed(
      ScenarioResult& r,
      const std::function<void(core::EncryptionRun&)>& sink) override {
    // Its own noise stream, so the fixed class is not one trace copied N
    // times under noise.
    core::BatchConfig bc = bc_;
    bc.noise_seed ^= 0xF1DEF1DEull;
    core::BatchRunner runner(device_, bc);
    runner.capture_each(
        count(),
        [this](std::size_t) { return scenario_input(s_, s_.fixed_input); },
        [&](std::size_t, const core::BatchInput&, core::EncryptionRun& run) {
          sink(run);
        });
    fill_batch_stats(r, runner.stats());
  }

 private:
  const core::BatchStats& stream(const Sink& sink) override {
    core::BatchRunner runner(device_, bc_);
    runner.capture_each(count(),
                        [this](std::size_t i) {
                          return scenario_input(s_, util::Rng::nth(s_.seed, i));
                        },
                        [&](std::size_t index, const core::BatchInput& input,
                            core::EncryptionRun& run) {
                          sink(index, input.plaintext, run);
                        });
    stats_ = runner.stats();
    return stats_;
  }

  core::BatchConfig bc_;
  core::MaskingPipeline device_;
  core::BatchStats stats_;
};

/// Session capture: one multi-block CBC session through
/// session::SessionEngine.  The block index plays the role `traces` plays
/// elsewhere, and each block's effective single-DES input of the chained
/// first pass — plaintext ^ chain, BlockEvent::des_input — feeds the
/// round-1 hypotheses exactly like an ECB plaintext.  Beside result.csv
/// the scenario writes blocks.csv (per-block attribution) and session.csv
/// (amortization accounting).
class SessionSource final : public TraceSource {
 public:
  SessionSource(const Scenario& s, const energy::TechParams& params,
                std::size_t jobs, std::string traces_path)
      : TraceSource(s, std::move(traces_path)),
        engine_(session_config(s, params, jobs)),
        blocks_(s.session_length),
        des_inputs_(s.session_length, 0) {
    // Message blocks are pure functions of the scenario seed — the session
    // counterpart of the random-plaintext convention.
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i] = util::Rng::nth(s.seed, i);
    }
  }

  const core::MaskingPipeline& device() const override {
    return engine_.device(0);
  }
  std::size_t count() const override { return blocks_.size(); }
  /// The hoisted key schedule shifts round 1 far past the single-block
  /// spec defaults, so every attack windows the compiled stage-0 program;
  /// the session then simulates only the chained first pass, truncated at
  /// the window's end.
  core::SboxWindow window(int sbox, bool) override {
    const core::SboxWindow w =
        core::des_round1_sbox_window(device().program(), sbox);
    engine_.set_stop_after_cycles(w.end);
    return w;
  }

  void write_artifacts(const std::string& dir) const override {
    // Per-block attribution.  Deliberately snapshot-mode free: the rows are
    // byte-identical whether blocks forked from the key-schedule snapshot
    // or ran cold, which the determinism tests diff.
    util::CsvWriter bcsv(dir + "/blocks.csv");
    bcsv.write_header({"block", "plaintext", "chain", "des_input", "output",
                       "cycles", "energy_uj"});
    for (std::size_t i = 0; i < session_.blocks.size(); ++i) {
      const session::BlockResult& b = session_.blocks[i];
      bcsv.write_row({std::to_string(i), hex64(b.input), hex64(b.chain),
                      hex64(des_inputs_[i]), hex64(b.output),
                      std::to_string(b.cycles), fmt(b.energy_uj)});
    }
    bcsv.flush();

    // Key-schedule amortization accounting (pure cycle math).
    util::CsvWriter scsv(dir + "/session.csv");
    scsv.write_header({"field", "value"});
    scsv.write_row({"cipher", std::string(session::session_cipher_name(
                                  engine_.config().cipher))});
    scsv.write_row({"session_length", std::to_string(blocks_.size())});
    scsv.write_row({"stages", std::to_string(session_.stages)});
    scsv.write_row({"prefix_cycles", std::to_string(session_.prefix_cycles)});
    scsv.write_row({"block_cycles", std::to_string(session_.block_cycles)});
    scsv.write_row(
        {"session_cycles", std::to_string(session_.session_cycles)});
    scsv.write_row({"cold_cycles", std::to_string(session_.cold_cycles)});
    scsv.write_row({"amortized_speedup", fmt(session_.amortized_speedup())});
    scsv.write_row({"total_uj", fmt(session_.total_uj)});
    scsv.write_row({"uj_per_block", fmt(session_.uj_per_block())});
    scsv.flush();
  }

 private:
  static session::SessionConfig session_config(
      const Scenario& s, const energy::TechParams& params, std::size_t jobs) {
    session::SessionConfig cfg;
    cfg.cipher = s.cipher == Cipher::kDesCbc
                     ? session::SessionCipher::kDesCbc
                     : session::SessionCipher::kTdesEdeCbc;
    cfg.keys = {s.key, s.key2, s.key3};
    cfg.iv = s.fixed_input;
    cfg.policy = s.policy;
    cfg.params = params;
    cfg.threads = jobs;
    cfg.noise_sigma_pj = s.noise_sigma_pj;
    cfg.noise_seed = s.seed ^ 0x5EED50FAull;
    cfg.hiding_seed = s.seed ^ 0x48D1D6F0ull;  // as build_device's
    return cfg;
  }

  /// Yields the runs of the chained first pass (the attacked one); the
  /// stats count every simulated (block, stage) run.
  const core::BatchStats& stream(const Sink& sink) override {
    session_ = engine_.encrypt(
        blocks_, [&](const session::BlockEvent& ev, core::EncryptionRun& run) {
          if (ev.stage != 0) return;
          des_inputs_[ev.block] = ev.des_input;
          sink(ev.block, ev.des_input, run);
        });
    return session_.stats;
  }

  session::SessionEngine engine_;
  std::vector<std::uint64_t> blocks_;
  std::vector<std::uint64_t> des_inputs_;
  session::SessionResult session_;
};

/// Streams every trace of `source` into the scenario's table attack on
/// S-box 1 (DPA: output bit 0); writes guesses.csv and disclosure.csv.
void run_attack(TraceSource& source, const Scenario& s,
                const std::string& dir, ScenarioResult& r) {
  constexpr int kSbox = 0;
  const AttackOutcome out = run_table_attack(
      s.analysis, kSbox, 0, source.window(kSbox, reads_sbox_window(s.analysis)),
      {source.count(), [&](const TraceSink& add) {
         source.capture(r, [&](std::size_t, std::uint64_t input,
                               core::EncryptionRun& run) {
           add(input, run.trace);
         });
       }});
  r.metric = out.metric;
  r.best_guess = out.best_guess;
  r.true_value = analysis::DpaAttack::true_subkey_chunk(s.key, kSbox);
  r.success = r.best_guess == r.true_value;
  r.margin = out.margin;
  write_guesses_csv(dir, out.scores, out.score_name);
  if (!out.disclosure.empty()) {
    out.disclosure.write_csv(dir + "/disclosure.csv");
  }
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec, RunnerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  if (options_.out_dir.empty()) {
    throw SpecError("campaign runner needs an output directory");
  }
}

ScenarioResult CampaignRunner::execute(const Scenario& s,
                                       const std::string& dir) const {
  const auto t0 = std::chrono::steady_clock::now();
  const energy::TechParams params = s.tech_params(spec_.tech_overrides);
  const std::string traces_path =
      spec_.save_traces ? dir + "/traces.emts" : std::string();
  std::unique_ptr<TraceSource> source;
  if (is_session_cipher(s.cipher)) {
    source = std::make_unique<SessionSource>(s, params, options_.jobs,
                                             traces_path);
  } else {
    source =
        std::make_unique<BlockSource>(s, params, options_.jobs, traces_path);
  }

  ScenarioResult r;
  r.secured_count = source->device().mask_result().secured_count;
  r.program_instructions = source->device().program().text.size();
  const core::SboxWindow window = spec_window(s);

  switch (s.analysis) {
    case Analysis::kEnergy: {
      const core::BatchStats& stats = source->capture(
          r, [](std::size_t, std::uint64_t, core::EncryptionRun&) {});
      r.metric = r.mean_uj();
      r.success = true;
      write_breakdown_csv(dir, stats.breakdown);
      break;
    }
    case Analysis::kDpa:
    case Analysis::kMlpa:
    case Analysis::kCollision:
      run_attack(*source, s, dir, r);
      break;
    case Analysis::kCpa: {
      if (s.cipher != Cipher::kAes) {
        run_attack(*source, s, dir, r);
        break;
      }
      // AES: classic first-round CPA on the Hamming weight of
      // sbox(pt[0] ^ guess), 256 guesses.
      analysis::GenericCpa cpa(256, window.begin, window.end);
      source->capture(r, [&](std::size_t, std::uint64_t input,
                             core::EncryptionRun& run) {
        const aes::Block pt = aes_block_from_u64(input);
        std::vector<int> hypotheses(256);
        for (int g = 0; g < 256; ++g) {
          hypotheses[static_cast<std::size_t>(g)] =
              std::popcount(static_cast<unsigned>(
                  aes::sbox(static_cast<std::uint8_t>(pt[0] ^ g))));
        }
        cpa.add_trace(hypotheses, run.trace);
      });
      const analysis::GenericCpaResult result = cpa.solve();
      r.metric = result.best_corr;
      r.best_guess = result.best_guess;
      r.true_value = aes_key_from_u64(s.key)[0];
      r.success = r.best_guess == r.true_value;
      r.margin = result.margin();
      write_guesses_csv(dir, result.corr_per_guess, "abs_rho");
      break;
    }
    case Analysis::kTvla: {
      // Fixed-vs-random Welch t: each class gets traces/2 encryptions,
      // both with per-index measurement noise; traces.emts holds the
      // random class only.
      analysis::TvlaAssessment tvla(window.begin, window.end);
      source->capture_fixed(
          r, [&](core::EncryptionRun& run) { tvla.add_fixed(run.trace); });
      source->capture(r, [&](std::size_t, std::uint64_t,
                             core::EncryptionRun& run) {
        tvla.add_random(run.trace);
      });
      const analysis::TvlaResult result = tvla.solve();
      r.metric = result.max_abs_t;
      r.cycles_over_threshold = result.cycles_over_threshold;
      r.success = !result.leaks();
      util::CsvWriter csv(dir + "/t_per_cycle.csv");
      csv.write_header({"cycle", "t"});
      for (std::size_t i = 0; i < result.t_per_cycle.size(); ++i) {
        csv.write_row({std::to_string(s.window_begin + i),
                       fmt(result.t_per_cycle[i])});
      }
      csv.flush();
      break;
    }
    case Analysis::kSecondOrder: {
      // Two passes over the same captured set: fit per-cycle means, then
      // DPA over centered-product combined traces.
      analysis::TraceSet set;
      source->capture(r, [&](std::size_t, std::uint64_t input,
                             core::EncryptionRun& run) {
        set.add(input, std::move(run.trace));
      });
      const std::size_t end = window.end == SIZE_MAX && !set.traces.empty()
                                  ? set.traces.front().size()
                                  : window.end;
      analysis::SecondOrderPreprocessor pre(window.begin, end,
                                            kSecondOrderMaxLag);
      for (const analysis::Trace& t : set.traces) pre.fit(t);
      analysis::DpaAttack dpa(analysis::DpaConfig{});  // combined layout
      for (std::size_t i = 0; i < set.size(); ++i) {
        dpa.add_trace(set.inputs[i], pre.combine(set.traces[i]));
      }
      const analysis::DpaResult result = dpa.solve();
      r.metric = result.best_peak;
      r.best_guess = result.best_guess;
      r.true_value = analysis::DpaAttack::true_subkey_chunk(s.key, 0);
      r.success = r.best_guess == r.true_value;
      r.margin = result.margin();
      write_guesses_csv(dir, result.peak_per_guess, "dom_peak_pj");
      break;
    }
  }

  source->write_artifacts(dir);
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  write_result_csv(dir, r);
  return r;
}

CampaignReport CampaignRunner::run() {
  const std::vector<Scenario> matrix = spec_.expand();
  const ShardSpec& shard = options_.shard;
  if (shard.index >= shard.count) {
    throw SpecError("shard: index " + std::to_string(shard.index) +
                    " out of range for N=" + std::to_string(shard.count));
  }
  std::vector<Scenario> scenarios;
  for (const Scenario& s : matrix) {
    if (shard.owns(s.index)) scenarios.push_back(s);
  }
  if (scenarios.empty()) {
    throw SpecError("--shard=" + std::to_string(shard.index) + "/" +
                    std::to_string(shard.count) +
                    " owns no scenarios (matrix has " +
                    std::to_string(matrix.size()) + ")");
  }
  // Checkpoints are valid only under the partition that wrote them.
  const std::string guard_hash = shard.checkpoint_hash(spec_.hash);
  const fs::path out(options_.out_dir);
  claim_output_dir(options_.out_dir, spec_);
  fs::create_directories(out / "scenarios");
  fs::create_directories(out / "checkpoints");

  CampaignReport report;
  report.total_scenarios = scenarios.size();
  for (const Scenario& s : scenarios) {
    const std::size_t position = report.outcomes.size() + 1;
    const std::string checkpoint =
        (out / "checkpoints" / (s.id + ".json")).string();
    const std::string dir = (out / "scenarios" / s.id).string();
    ScenarioOutcome outcome;
    outcome.scenario = s;
    if (options_.resume &&
        load_checkpoint(checkpoint, s, guard_hash, &outcome.result) &&
        fs::exists(dir + "/result.csv")) {
      outcome.resumed = true;
      ++report.resumed;
      if (!options_.quiet) {
        std::printf("[%zu/%zu] %s: resumed from checkpoint\n", position,
                    scenarios.size(), s.id.c_str());
      }
    } else {
      if (options_.limit != 0 && report.executed >= options_.limit) break;
      fs::create_directories(dir);
      outcome.result = execute(s, dir);
      save_checkpoint(checkpoint, s, outcome.result, guard_hash);
      ++report.executed;
      if (!options_.quiet) {
        std::printf(
            "[%zu/%zu] %s: %llu enc, %.3f uJ/enc, metric %.4f%s (%.2fs, %zu "
            "threads)\n",
            position, scenarios.size(), s.id.c_str(),
            static_cast<unsigned long long>(outcome.result.encryptions),
            outcome.result.mean_uj(), outcome.result.metric,
            outcome.result.success ? "" : " [FAILED]",
            outcome.result.wall_seconds,
            static_cast<std::size_t>(outcome.result.threads_used));
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }

  report.complete = report.outcomes.size() == scenarios.size();
  if (!report.complete) {
    if (!options_.quiet) {
      std::printf("campaign interrupted: %zu/%zu scenarios done; rerun "
                  "with --resume to continue\n",
                  report.outcomes.size(), scenarios.size());
    }
    return report;
  }

  write_manifest((out / manifest_name(shard)).string(), spec_,
                 report.outcomes, git_describe(), shard);
  write_timings((out / timings_name(shard)).string(), report.outcomes);
  write_summary_csv((out / run_file_name("summary", ".csv", shard)).string(),
                    report.outcomes);
  if (!options_.quiet) print_summary(spec_, report, stdout);
  return report;
}

void CampaignRunner::print_matrix(const CampaignSpec& spec,
                                  const std::vector<Scenario>& scenarios,
                                  std::FILE* out) {
  std::fprintf(out, "campaign %s: %zu scenarios (spec hash %s)\n",
               spec.name.c_str(), scenarios.size(), spec.hash.c_str());
  std::fprintf(out, "%-40s %6s %16s %12s %8s\n", "id", "cipher", "policy",
               "analysis", "traces");
  std::uint64_t encryptions = 0;
  for (const Scenario& s : scenarios) {
    std::fprintf(out, "%-40s %6s %16s %12s %8zu\n", s.id.c_str(),
                 std::string(cipher_name(s.cipher)).c_str(),
                 s.policy.name().c_str(),
                 std::string(analysis_name(s.analysis)).c_str(), s.traces);
    encryptions += s.traces;
  }
  std::fprintf(out, "total encryptions: %llu\n",
               static_cast<unsigned long long>(encryptions));
}

void CampaignRunner::print_summary(const CampaignSpec& spec,
                                   const CampaignReport& report,
                                   std::FILE* out) {
  const std::vector<PolicyRollup> rollups =
      rollup_by_policy(spec.policies, spec.reference_uj, report.outcomes);
  if (rollups.empty()) return;
  std::fprintf(out, "\n%-16s %12s %8s", "policy", "mean uJ/enc", "ratio");
  const bool with_reference = !spec.reference_uj.empty();
  if (with_reference) {
    std::fprintf(out, " %10s %8s %14s", "paper uJ", "ratio", "normalized uJ");
  }
  std::fprintf(out, "\n");
  for (const PolicyRollup& r : rollups) {
    // A missing baseline makes the ratio undefined; print n/a, never a
    // misleading 0.000.
    std::fprintf(out, "%-16s %12.3f", r.policy.name().c_str(), r.mean_uj);
    if (std::isnan(r.ratio)) {
      std::fprintf(out, " %8s", "n/a");
    } else {
      std::fprintf(out, " %8.3f", r.ratio);
    }
    if (with_reference && r.on_paper_scale && !std::isnan(r.ratio)) {
      if (r.has_reference) {
        std::fprintf(out, " %10.1f %8.3f %14.2f", r.paper_uj, r.paper_ratio,
                     r.normalized_uj);
      } else {
        // The paper has no number for this policy (hiding countermeasures
        // postdate it); only the projected energy is meaningful.
        std::fprintf(out, " %10s %8s %14.2f", "n/a", "n/a", r.normalized_uj);
      }
    }
    std::fprintf(out, "\n");
  }
}

}  // namespace emask::campaign
