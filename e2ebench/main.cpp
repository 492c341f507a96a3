// End-to-end benchmark of the mixed-precision MLE stack.
//
//   e2ebench --workload <mle_fit|loglik_n1600|serve_open|serve_paged>
//            --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//            [--threads <n>] [--rate <hz>]
//
// --threads (default 4) and --rate (serve_open's arrival rate, default 75;
// 0 = closed bursts) exist for the README's ungated reference figures.
//
// Prints a readable summary on stderr and, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which also
// writes span files to --out). Normally started through run.py.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

std::string g_spill_dir = ".";

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <mle_fit|loglik_n1600|serve_open|"
               "serve_paged> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--threads <n>] [--rate <hz>]\n";
  std::exit(2);
}

}  // namespace

// The spill tier backs every paged matrix with std::tmpfile(), which glibc
// creates under /tmp. The benchmark keeps all it writes inside its working
// tree, so it supplies tmpfile() itself: the same anonymous file, unlinked
// at once, created in the run's output directory.
extern "C" FILE* tmpfile(void) {
  std::string path = g_spill_dir + "/spill-XXXXXX";
  const int fd = mkstemp(path.data());
  if (fd < 0) return nullptr;
  unlink(path.c_str());
  FILE* f = fdopen(fd, "w+b");
  if (f == nullptr) close(fd);
  return f;
}

int main(int argc, char** argv) {
  e2e::start_clock();
  e2e::RunConfig cfg;
  cfg.out_dir = ".bench_build/e2ebench/out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else if (flag == "--threads") {
      cfg.threads = std::strtoul(value.c_str(), &end, 10);
      if (*end != '\0' || cfg.threads < 1 || cfg.threads > 64) {
        usage("--threads takes 1..64");
      }
    } else if (flag == "--rate") {
      cfg.rate_hz = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.rate_hz >= 0 && cfg.rate_hz <= 10000)) {
        usage("--rate takes 0..10000 (0 = closed bursts)");
      }
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (0 < s <= 600) and --trace 0|1 are required");
  }
  e2e::RunResult (*run)(const e2e::RunConfig&) = nullptr;
  if (cfg.workload == "mle_fit") run = e2e::run_mle_fit;
  if (cfg.workload == "loglik_n1600") run = e2e::run_loglik;
  if (cfg.workload == "serve_open") run = e2e::run_serve_open;
  if (cfg.workload == "serve_paged") run = e2e::run_serve_paged;
  if (run == nullptr) usage("unknown workload '" + cfg.workload + "'");

  e2e::RunResult result;
  try {
    std::filesystem::create_directories(cfg.out_dir);
    g_spill_dir = cfg.out_dir;
    result = run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << cfg.workload << " threw: " << e.what() << "\n";
    return 1;
  }

  const std::string line = e2e::result_json(
      result, cfg.trace ? e2e::kPerLayer : e2e::kEndToEnd, cfg.trace);
  std::fprintf(stderr, "%s seed %llu trace %d: attempted %llu, failed %llu\n",
               cfg.workload.c_str(), (unsigned long long)cfg.seed,
               int(cfg.trace), (unsigned long long)result.attempted,
               (unsigned long long)result.failed);
  for (const auto& [name, value] : result.values) {
    std::fprintf(stderr, "  %-28s %.6g\n", name.c_str(), value);
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
