// The four benchmark workloads (hot_browse, discover, ingest_mixed,
// fed_discover): topology set-up from the program's public API, seeded
// request generation, the measured wire load, the content checks, and the
// traced per-layer run. See perfbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  /// Scratch directory for page files, data dirs and span dumps.
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  std::vector<std::string> problems;  // failed checks, for the log
};

/// Runs one workload; metrics are the end-to-end set, or with `trace` the
/// per-layer set.
RunResult run_workload(const RunOptions& options);

/// Feeds known-bad inputs to the response and content checks and confirms
/// each is caught. Returns the checks that failed to catch them.
std::vector<std::string> self_test();

}  // namespace perfbench
