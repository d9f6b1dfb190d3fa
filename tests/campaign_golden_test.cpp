// Golden net for campaign output.
//
// Reduced-budget copies of every example campaign, plus specs for session
// attacks, AES/SHA-1 devices and bus coupling, run at --jobs=2.  The
// FNV-1a digest of every deterministic output file (manifest.json,
// summary.csv and every scenario CSV) must match
// tests/data/campaign_goldens.txt, one "<spec>/<path> <digest>" line per
// file.  manifest.json's "generator" value (`git describe` of the working
// tree) is blanked before hashing; every other byte counts.
//
// On a mismatch the test prints the spec's actual lines.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "temp_path.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;

using Digests = std::map<std::string, std::string>;

const fs::path kSourceDir = EMASK_SOURCE_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// An example campaign with its trace budgets cut to test size.
std::string example(const std::string& name) {
  std::string text =
      read_file(kSourceDir / "examples" / "campaigns" / (name + ".ini"));
  text = replace_all(text, "traces = 600", "traces = 24");
  text = replace_all(text, "traces = 40", "traces = 8");
  return replace_all(text, "session_length = 1, 16, 256",
                     "session_length = 1, 8");
}

std::string blank_generator(std::string manifest) {
  const std::string key = "\"generator\": \"";
  const std::size_t at = manifest.find(key);
  if (at == std::string::npos) return manifest;
  const std::size_t begin = at + key.size();
  manifest.erase(begin, manifest.find('"', begin) - begin);
  return manifest;
}

Digests run_digests(const std::string& name, const std::string& spec_text) {
  const fs::path out = test::temp_path("emask_golden_" + name);
  fs::remove_all(out);
  RunnerOptions options;
  options.out_dir = out.string();
  options.jobs = 2;
  options.quiet = true;
  const CampaignReport report =
      CampaignRunner(CampaignSpec::parse(spec_text), options).run();
  EXPECT_TRUE(report.complete);

  Digests digests;
  digests[name + "/manifest.json"] =
      fnv1a_hex(blank_generator(read_file(out / "manifest.json")));
  digests[name + "/summary.csv"] = fnv1a_hex(read_file(out / "summary.csv"));
  for (const auto& entry :
       fs::recursive_directory_iterator(out / "scenarios")) {
    if (entry.path().extension() != ".csv") continue;
    digests[name + "/" + fs::relative(entry.path(), out).generic_string()] =
        fnv1a_hex(read_file(entry.path()));
  }
  fs::remove_all(out);
  return digests;
}

Digests load_goldens(const std::string& name) {
  std::istringstream in(
      read_file(kSourceDir / "tests" / "data" / "campaign_goldens.txt"));
  Digests goldens;
  std::string path;
  std::string digest;
  while (in >> path >> digest) {
    if (path.rfind(name + "/", 0) == 0) goldens[path] = digest;
  }
  return goldens;
}

void expect_golden(const std::string& name, const std::string& spec_text) {
  const Digests actual = run_digests(name, spec_text);
  const Digests golden = load_goldens(name);
  EXPECT_FALSE(golden.empty()) << "no goldens for " << name;
  for (const auto& [path, digest] : golden) {
    const auto it = actual.find(path);
    if (it == actual.end()) {
      ADD_FAILURE() << path << ": not written";
    } else {
      EXPECT_EQ(it->second, digest) << path << ": bytes changed";
    }
  }
  for (const auto& [path, digest] : actual) {
    if (golden.count(path) == 0) ADD_FAILURE() << path << ": no golden";
  }
  if (::testing::Test::HasFailure()) {
    std::ostringstream lines;
    for (const auto& [path, digest] : actual) {
      lines << path << ' ' << digest << '\n';
    }
    ADD_FAILURE() << "actual digests:\n" << lines.str();
  }
}

TEST(CampaignGolden, Adversaries) {
  expect_golden("adversaries", example("adversaries"));
}

TEST(CampaignGolden, Countermeasures) {
  expect_golden("countermeasures", example("countermeasures"));
}

TEST(CampaignGolden, Fig12Overhead) {
  expect_golden("fig12_overhead", example("fig12_overhead"));
}

TEST(CampaignGolden, Sessions) {
  expect_golden("sessions", example("sessions"));
}

TEST(CampaignGolden, TvlaSweep) {
  expect_golden("tvla_sweep", example("tvla_sweep"));
}

TEST(CampaignGolden, SessionAttacks) {
  expect_golden("session_attacks",
                "[campaign]\n"
                "name = session_attacks\n"
                "key2 = 0x23456789ABCDEF01\n"
                "key3 = 0x456789ABCDEF0123\n"
                "fixed_input = 0x0123456789ABCDEF\n"
                "[axes]\n"
                "cipher = des_cbc, tdes_cbc\n"
                "policy = original, shuffle_nop\n"
                "analysis = dpa, cpa, mlpa, collision\n"
                "session_length = 16\n");
}

TEST(CampaignGolden, AesSha1) {
  expect_golden("aes_sha1",
                "[campaign]\n"
                "name = aes_sha1\n"
                "window_begin = 0\n"
                "window_end = 6000\n"
                "[axes]\n"
                "cipher = aes, sha1\n"
                "policy = original, selective\n"
                "analysis = energy, tvla\n"
                "traces = 8\n");
}

TEST(CampaignGolden, AesCpa) {
  expect_golden("aes_cpa",
                "[campaign]\n"
                "name = aes_cpa\n"
                "window_begin = 0\n"
                "window_end = 6000\n"
                "[axes]\n"
                "cipher = aes\n"
                "policy = original\n"
                "analysis = cpa\n"
                "traces = 16\n");
}

// Bus coupling switches on the word-parallel coupling kernels in every
// MaskableBus transfer mode: normal, secure (all_secure) and
// random-precharge.
TEST(CampaignGolden, BusCoupling) {
  expect_golden("bus_coupling",
                "[campaign]\n"
                "name = bus_coupling\n"
                "[axes]\n"
                "cipher = des\n"
                "policy = original, all_secure, random_precharge\n"
                "analysis = energy, cpa\n"
                "coupling = 20\n"
                "traces = 8\n");
}

}  // namespace
}  // namespace emask::campaign
