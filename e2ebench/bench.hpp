// Shared pieces of the end-to-end benchmark: the run clock, order
// statistics, the result record a run prints as its last line, and the span
// recorder of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Seconds since the benchmark process entered main() (start_clock()).
double now_s();
void start_clock();

/// CPU seconds spent so far by all threads of the process.
double cpu_s();

/// splitmix64 of (seed, stream): independent generator seeds per dataset,
/// so adding a dataset never shifts the inputs of another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> v);
/// Percentile q in [0, 100], linear between the two closest ranks.
double percentile(std::vector<double> v, double q);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< trace files and the spill tier's backing files
  /// Pool size of every workload. The gated runs use 4; other sizes give
  /// the README's reference figures.
  std::size_t threads = 4;
  /// serve_open's arrival rate; 0 submits closed bursts instead (the
  /// resident server's capacity, a reference figure).
  double rate_hz = 75.0;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Kernel classes the tile Cholesky runs: POTRF and SYRK stay FP64 on the
/// diagonal, TRSM runs FP64 or FP32, GEMM any rung of the ladder.
inline constexpr const char* kKernelClasses[] = {
    "POTRF.FP64", "TRSM.FP64", "TRSM.FP32",    "SYRK.FP64",
    "GEMM.FP64",  "GEMM.FP32", "GEMM.FP16_32", "GEMM.FP16"};

/// The metrics a run prints, in order: every end-to-end metric on an
/// untraced run, every per-layer metric on a traced one. BENCHMARK.json
/// lists the same names; run.py refuses a run whose names differ.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed checks; the run is correct iff this stays empty.
  std::vector<std::string> errors;
  /// Every figure the run measured, by metric name.
  std::map<std::string, double> values;

  /// Record `failure` unless it is empty (the checks return "" on pass).
  void check(const std::string& failure) {
    if (!failure.empty()) errors.push_back(failure);
  }
  /// Set-up ends here: setup_s is the CPU time of the process so far, and
  /// ref.setup_wall_s the wall time since main() began.
  void end_setup() {
    values["setup_s"] = cpu_s();
    values["ref.setup_wall_s"] = now_s();
  }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"} over
/// `specs`. A per-layer metric the workload does not exercise reads 0; a
/// missing end-to-end metric is an error.
std::string result_json(RunResult& r, const std::vector<MetricSpec>& specs,
                        bool missing_is_zero);

/// Peak resident set of the process so far, in MiB.
double peak_rss_mib();

/// Span recorder for the traced run. Spans are opened and closed on the
/// benchmark's driving thread around each call it makes into a layer's
/// public functions; the innermost open span is the parent of a new one,
/// and spans of one operation share its `op` id. Kept in memory, written
/// once at the end in the repo's Chrome/Perfetto schema (obs/trace).
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double elapsed() const { return now_s() - start_; }

   private:
    Tracer& t_;
    std::size_t index_;
    double start_;
  };

  Scope span(const char* name, const char* layer, std::uint64_t op = 0) {
    return Scope(*this, name, layer, op);
  }
  /// {"traceEvents": [...]}: one "X" event per span on pid 0 / tid 0, cat =
  /// layer, args = {id, parent, op}.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = -1.0;  ///< < start while open
    std::size_t parent = 0;  ///< index + 1; 0 = root
    std::uint64_t op = 0;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace e2e
