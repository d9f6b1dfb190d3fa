// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench_figNN binary regenerates one figure of the paper's evaluation
// (Sec. 4.3): it runs the experiment, writes the plotted series as CSV plus
// a BENCH_*.json mirror next to the binary (bench_out/, overridable via
// $EMASK_BENCH_OUT), and prints a compact summary including the check the
// figure is meant to support.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/trace.hpp"
#include "core/masking_pipeline.hpp"
#include "core/phase_profile.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace emask::bench {

// The classic FIPS worked-example inputs, used throughout the paper-style
// experiments.
inline constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
// "two different secret keys (vary in bit 1)": the paper flips one key bit.
// FIPS bit 1 is a parity bit the algorithm ignores, so we flip bit 2 (the
// first effective bit) — the earliest position with observable effect.
inline constexpr std::uint64_t kKeyBitFlipped = kKey ^ (1ull << 62);
inline constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;
inline constexpr std::uint64_t kPlain2 = 0xFEDCBA9876543210ull;

/// Output directory for CSV/JSON series (created on demand):
/// `bench_out/` next to the bench *binary* — not the working directory, so
/// `ctest -j` invocations from varying CWDs all land their series in one
/// place — or $EMASK_BENCH_OUT when set.
inline std::string out_dir() {
  namespace fs = std::filesystem;
  fs::path dir;
  if (const char* env = std::getenv("EMASK_BENCH_OUT");
      env != nullptr && *env != '\0') {
    dir = env;
  } else {
#if defined(__linux__)
    std::error_code ec;
    const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
    dir = ec ? fs::path("bench_out") : exe.parent_path() / "bench_out";
#else
    dir = "bench_out";  // no portable executable-path API; fall back to CWD
#endif
  }
  fs::create_directories(dir);
  return dir.string();
}

inline void print_banner(const char* id, const char* what) {
  std::printf("== %s ==\n%s\n", id, what);
}

/// Figure/table series writer: emits `<name>.csv` exactly like a bare
/// util::CsvWriter did, and mirrors the same columns/rows as
/// `BENCH_<name>.json` (util::JsonWriter) so CI can diff figure data
/// across commits instead of eyeballing logs.  Numeric cells are JSON
/// numbers (non-finite doubles become null, per JsonWriter); textual cells
/// are JSON strings.  Both files land in out_dir().
class SeriesWriter {
 public:
  explicit SeriesWriter(const std::string& name)
      : name_(name), dir_(out_dir()), csv_(dir_ + "/" + name + ".csv") {}

  ~SeriesWriter() {
    // Best-effort, mirroring CsvWriter's destructor contract; callers who
    // care about IO errors call flush() themselves.
    try {
      flush();
    } catch (...) {
    }
  }

  void write_header(const std::vector<std::string>& columns) {
    columns_ = columns;
    csv_.write_header(columns);
  }

  void write_row(const std::vector<double>& values) {
    csv_.write_row(values);
    rows_.emplace_back();
    for (const double v : values) rows_.back().push_back(Cell{true, v, {}});
  }

  void write_row(std::initializer_list<double> values) {
    write_row(std::vector<double>(values));
  }

  void write_row(const std::vector<std::string>& cells) {
    csv_.write_row(cells);
    rows_.emplace_back();
    for (const std::string& c : cells)
      rows_.back().push_back(Cell{false, 0.0, c});
  }

  /// Flushes the CSV (throws on IO failure) and writes the JSON mirror.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    csv_.flush();
    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::ofstream file = util::open_for_write(path);
    util::JsonWriter j(file);
    j.begin_object();
    j.key("format");
    j.value("emask-bench-series-v1");
    j.key("bench");
    j.value(name_);
    j.key("columns");
    j.begin_array();
    for (const std::string& c : columns_) j.value(c);
    j.end_array();
    j.key("rows");
    j.begin_array();
    for (const auto& row : rows_) {
      j.begin_array();
      for (const Cell& cell : row) {
        if (cell.numeric) {
          j.value(cell.number);
        } else {
          j.value(cell.text);
        }
      }
      j.end_array();
    }
    j.end_array();
    j.end_object();
    j.finish();
    util::close_or_throw(file, path);
  }

 private:
  struct Cell {
    bool numeric = false;
    double number = 0.0;
    std::string text;
  };

  std::string name_;
  std::string dir_;
  util::CsvWriter csv_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
  bool flushed_ = false;
};

}  // namespace emask::bench
