// Scratch paths for tests that write files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace emask::test {

/// `name` inside a directory of its own for this process, under
/// ::testing::TempDir(): two test runs on one host (a sanitizer build's
/// binaries beside the main build's ctest) never write, or delete, each
/// other's files.  The directory is made on first use and removed, with
/// whatever a test left in it, when the process exits.
inline std::filesystem::path temp_path(const std::string& name) {
  static const struct ProcessDir {
    std::filesystem::path path;
    explicit ProcessDir(std::filesystem::path p) : path(std::move(p)) {
      std::filesystem::create_directories(path);
    }
    ~ProcessDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir(std::filesystem::path(::testing::TempDir()) /
        ("emask_test_" + std::to_string(::getpid())));
  return dir.path / name;
}

}  // namespace emask::test
