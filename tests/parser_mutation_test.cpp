// Deterministic mutation tests for the parsers of untrusted input: the
// INI campaign spec (CampaignSpec::parse + expand), the manifest JSON as
// the report reads it (report::Model::load) and as merge reads a shard's
// (campaign::merge_shards), EMTS trace files (analysis::load_trace_set)
// and assembler source (assembler::assemble).  Every mutant — byte flips,
// a truncation or a dropped line, drawn from a fixed util::Rng seed — must
// either parse or throw a std::exception; a crash or a foreign exception
// fails the test.
// The sanitizer CI jobs turn memory errors on these paths into failures.
#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/trace_io.hpp"
#include "assembler/assembler.hpp"
#include "campaign/manifest.hpp"
#include "campaign/merge.hpp"
#include "campaign/spec.hpp"
#include "report/model.hpp"
#include "util/rng.hpp"

namespace emask {
namespace {

namespace fs = std::filesystem;

constexpr int kMutants = 300;

constexpr const char* kSpec =
    "# every section and key kind the parser knows\n"
    "[campaign]\n"
    "name = mutants\n"
    "seed = 0xC0FFEE\n"
    "key = 0x133457799BBCDFF1\n"
    "key2 = 0x23456789ABCDEF01\n"
    "key3 = 0x456789ABCDEF0123\n"
    "fixed_input = 0x0123456789ABCDEF\n"
    "window_begin = 3000\n"
    "window_end = 13000\n"
    "save_traces = false\n"
    "\n"
    "[axes]\n"
    "cipher = des, aes\n"
    "policy = original, selective, all_secure\n"
    "analysis = energy, tvla\n"
    "noise = 0, 2.5\n"
    "traces = 2, 8\n"
    "coupling = 0, 20\n"
    "\n"
    "[tech]\n"
    "vdd = 2.5\n"
    "\n"
    "[reference]\n"
    "original = 46.4\n"
    "selective = 52.6\n";

// Every directive, pseudo-instruction and operand form the assembler
// knows, including the secure prefix and the fork marker.
constexpr const char* kAsm =
    "# directives\n"
    ".data\n"
    "key:    .word 1, 0, 0x1F, -3\n"
    "        .secret key\n"
    "iv:     .word 7\n"
    "        .declassified iv\n"
    "buf:    .space 64\n"
    "        .align 2\n"
    "tab:    .word 0x12345678 ; trailing comment\n"
    ".text\n"
    ".globl main\n"
    ".ent main\n"
    "main:\n"
    "  la    $t0, key\n"
    "  lw    $t1, 4($t0)\n"
    "  li    $t2, 0x1234\n"
    "  sxor  $t3, $t1, $t2\n"
    "  move  $t4, $t3\n"
    "  smove $t5, $t4\n"
    "  fork\n"
    "  addiu $t6, $t5, -1\n"
    "  sll   $t7, $t6, 3\n"
    "  srlv  $t7, $t7, $t1\n"
    "  sw    $t7, 0($t0)\n"
    "loop:\n"
    "  bne   $t6, $zero, done\n"
    "  b     loop\n"
    "done:\n"
    "  jal   fn\n"
    "  nop\n"
    "  halt\n"
    "fn:\n"
    "  jr    $ra\n"
    ".end main\n";

/// One mutant of `text`: 1-4 byte flips, a truncation, or a dropped line.
std::string mutate(const std::string& text, util::Rng& rng) {
  std::string out = text;
  switch (rng.next_below(3)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        out[rng.next_below(out.size())] =
            static_cast<char>(rng.next_below(256));
      }
      break;
    }
    case 1:
      out.resize(rng.next_below(out.size()));
      break;
    default: {
      std::vector<std::size_t> starts = {0};
      for (std::size_t i = 0; i + 1 < out.size(); ++i) {
        if (out[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t begin = starts[rng.next_below(starts.size())];
      const std::size_t end = out.find('\n', begin);
      out.erase(begin, end == std::string::npos ? end : end - begin + 1);
      break;
    }
  }
  return out;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Outcomes for the scenarios `shard` owns (all of them when unsharded).
std::vector<campaign::ScenarioOutcome> outcomes(
    const campaign::CampaignSpec& spec, const campaign::ShardSpec& shard) {
  std::vector<campaign::ScenarioOutcome> out;
  for (const campaign::Scenario& s : spec.expand()) {
    if (!shard.owns(s.index)) continue;
    campaign::ScenarioOutcome o;
    o.scenario = s;
    o.result.encryptions = s.traces;
    o.result.total_energy_uj = 46.4 * static_cast<double>(s.traces);
    o.result.metric = static_cast<double>(s.index) / 3.0;
    o.result.success = s.index % 2 == 0;
    out.push_back(o);
  }
  return out;
}

/// Feeds kMutants mutants of `base` to `parse`; counts which parsed.
template <typename Parse>
void expect_parse_or_throw(const std::string& base, std::uint64_t seed,
                           Parse&& parse) {
  util::Rng rng(seed);
  int parsed = 0;
  int thrown = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(base, rng);
    try {
      parse(mutant);
      ++parsed;
    } catch (const std::exception&) {
      ++thrown;
    }
  }
  // Both outcomes occur, so the mutants reach past the first error check.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(thrown, 0);
}

TEST(ParserMutation, CampaignSpecParsesOrThrows) {
  expect_parse_or_throw(kSpec, 0x5BEC, [](const std::string& text) {
    (void)campaign::CampaignSpec::parse(text).expand();
  });
}

TEST(ParserMutation, ReportManifestLoadsOrThrows) {
  const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(kSpec);
  const fs::path dir = fs::path(::testing::TempDir()) / "emask_mutant_report";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path manifest = dir / "manifest.json";
  campaign::write_manifest(manifest.string(), spec,
                           outcomes(spec, campaign::ShardSpec{}), "v0");
  expect_parse_or_throw(read_file(manifest), 0x4E90,
                        [&](const std::string& text) {
                          write_file(manifest, text);
                          (void)report::Model::load(dir.string());
                        });
  fs::remove_all(dir);
}

TEST(ParserMutation, ShardManifestMergesOrThrows) {
  const campaign::CampaignSpec spec = campaign::CampaignSpec::parse(kSpec);
  const fs::path base = fs::path(::testing::TempDir()) / "emask_mutant_merge";
  fs::remove_all(base);
  campaign::MergeOptions options;
  options.out_dir = (base / "merged").string();
  options.quiet = true;
  fs::path shard0_manifest;
  for (const char* label : {"0/2", "1/2"}) {
    const campaign::ShardSpec shard = campaign::ShardSpec::parse(label);
    const fs::path dir = base / ("s" + std::to_string(shard.index));
    fs::create_directories(dir);
    write_file(dir / "spec.ini", spec.text);
    const fs::path manifest = dir / ("manifest." + shard.label() + ".json");
    campaign::write_manifest(manifest.string(), spec, outcomes(spec, shard),
                             "v0", &shard);
    if (shard.index == 0) shard0_manifest = manifest;
    options.shard_dirs.push_back(dir.string());
  }
  (void)campaign::merge_shards(options);  // the unmutated pair merges

  expect_parse_or_throw(read_file(shard0_manifest), 0x3E26,
                        [&](const std::string& text) {
                          write_file(shard0_manifest, text);
                          (void)campaign::merge_shards(options);
                        });
  fs::remove_all(base);
}

TEST(ParserMutation, TraceSetLoadsOrThrows) {
  analysis::TraceSet set;
  util::Rng values(0x7E);
  for (std::uint64_t i = 0; i < 6; ++i) {
    std::vector<double> samples;
    for (int j = 0; j < 10; ++j) {
      samples.push_back(static_cast<double>(values.next_below(4000)) / 16.0);
    }
    set.add(0x0123456789ABCDEFull ^ i, analysis::Trace(std::move(samples)));
  }
  const fs::path path =
      fs::path(::testing::TempDir()) / "emask_mutant_traces.emts";
  analysis::save_trace_set(path.string(), set);
  (void)analysis::load_trace_set(path.string());  // the unmutated file loads

  expect_parse_or_throw(read_file(path), 0xE375, [&](const std::string& text) {
    write_file(path, text);
    (void)analysis::load_trace_set(path.string());
  });
  fs::remove(path);
}

TEST(ParserMutation, AssemblerSourceAssemblesOrThrows) {
  (void)assembler::assemble(kAsm);  // the unmutated source assembles
  expect_parse_or_throw(kAsm, 0xA5E3, [](const std::string& text) {
    (void)assembler::assemble(text);
  });
}

}  // namespace
}  // namespace emask
