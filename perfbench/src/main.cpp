// perfbench: the catalog's wire-level benchmark. One process starts the
// program in-process from its public API, drives seeded traffic over the
// TCP front end, checks every response, and prints one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--source ID]
//   perfbench --self-test
//
// Normally started through perfbench/run.py, which configures and builds it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0, pages_resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--source ID]\n       perfbench --self-test\n",
               why);
  std::exit(2);
}

bool optimised_build() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string source = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  bool run_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--source") {
        source = value();
      } else if (arg == "--self-test") {
        run_self_test = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }

  if (!optimised_build()) {
    std::fprintf(stderr, "perfbench: refusing to report from an unoptimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const std::vector<std::string> missed = self_test();
  for (const std::string& m : missed) std::fprintf(stderr, "self-test: not caught: %s\n", m.c_str());
  if (run_self_test) {
    std::printf("self-test: %s\n", missed.empty() ? "every corruption caught" : "FAILED");
    return missed.empty() ? 0 : 1;
  }
  if (!missed.empty()) return 1;

  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.seconds <= 0) usage("--seconds must be positive");
  if (options.work_dir.empty()) options.work_dir = ".perfbench-work";
  std::filesystem::create_directories(options.work_dir);

  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d nproc=%u build=%s "
              "source=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, source.c_str());
  std::fflush(stdout);

  RunResult result;
  try {
    result = run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  for (const auto& [name, metric] : result.metrics) {
    std::printf("metric %-36s %16.4f %s\n", name.c_str(), metric.first, metric.second.c_str());
    if (!std::isfinite(metric.first)) {
      result.correct = false;
      result.problems.push_back("metric " + name + " is not finite");
    }
  }
  if (result.failed > 0) result.correct = false;
  for (const std::string& p : result.problems) std::printf("check failed: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                std::isfinite(metric.first) ? metric.first : 0.0, metric.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
