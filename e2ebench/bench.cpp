#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
Clock::time_point g_start = Clock::now();

std::string escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void start_clock() { g_start = Clock::now(); }

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"cpu_ms_per_op", "ms"},
};

const std::vector<MetricSpec> kPerLayer = [] {
  std::vector<MetricSpec> v = {
      {"optim.evals_per_fit", "count"},
      {"optim.self_ms_per_fit", "ms"},
      {"covgen.ms_per_eval", "ms"},
      {"covgen.mvalues_per_s", "Mvalue/s"},
      {"pmap.ms_per_eval", "ms"},
      {"pmap.tiles.FP64", "1/eval"},
      {"pmap.tiles.FP32", "1/eval"},
      {"pmap.tiles.FP16_32", "1/eval"},
      {"pmap.tiles.FP16", "1/eval"},
      {"cholesky.ms_per_eval", "ms"},
      {"cholesky.gflops", "GFlop/s"},
      {"cholesky.escalations", "1/eval"},
      {"cholesky.breakdowns", "1/eval"},
  };
  for (const char* k : kKernelClasses) {
    v.push_back({std::string("kernel.") + k + ".ms", "ms"});
    v.push_back({std::string("kernel.") + k + ".gflops", "GFlop/s"});
  }
  const std::vector<MetricSpec> rest = {
      {"opcache.hits", "1/eval"},
      {"opcache.misses", "1/eval"},
      {"opcache.hit_ratio", "ratio"},
      {"executor.idle_ms", "ms"},
      {"executor.critical_path_ms", "ms"},
      {"executor.parks", "1/eval"},
      {"executor.steals", "1/eval"},
      {"executor.wakeups", "1/eval"},
      {"solve.ms_per_eval", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.run_ms_p50", "ms"},
      {"serve.geometry_hits", "1/fit"},
      {"serve.max_lateness_ms", "ms"},
      {"session.parks", "1/fit"},
      {"session.steals", "1/fit"},
      {"session.wakeups", "1/fit"},
      {"pager.demand_faults", "1/fit"},
      {"pager.prefetches", "1/fit"},
      {"pager.write_installs", "1/fit"},
      {"pager.cold_evictions", "1/fit"},
      {"pager.urgent_served", "1/fit"},
      {"pager.peak_resident_bytes", "B"},
      {"codec.ratio", "x"},
  };
  v.insert(v.end(), rest.begin(), rest.end());
  return v;
}();

std::string result_json(RunResult& r, const std::vector<MetricSpec>& specs,
                        bool missing_is_zero) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    double value = 0.0;
    const auto it = r.values.find(spec.name);
    if (it != r.values.end()) {
      value = it->second;
    } else if (!missing_is_zero) {
      r.errors.push_back("metric not measured: " + spec.name);
    }
    if (!std::isfinite(value)) {
      r.errors.push_back("metric not finite: " + spec.name);
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + escape(spec.name) + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + escape(spec.unit) + "\"}";
  }
  std::string s = "{\"correct\": ";
  s += r.errors.empty() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {" + metrics + "}}";
  return s;
}

double peak_rss_mib() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a process started
  // from a larger parent reports the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

Tracer::Scope::Scope(Tracer& t, const char* name, const char* layer,
                     std::uint64_t op)
    : t_(t), index_(t.spans_.size()), start_(now_s()) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = start_;
  s.parent = t.open_.empty() ? 0 : t.open_.back() + 1;
  s.op = op;
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  t_.spans_[index_].end = now_s();
  t_.open_.pop_back();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  os << "{\"traceEvents\": [\n"
     << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": "
        "{\"name\": \"e2ebench\"}}";
  char ts[64], dur[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    std::snprintf(ts, sizeof ts, "%.3f", s.start * 1e6);
    std::snprintf(dur, sizeof dur, "%.3f", (s.end - s.start) * 1e6);
    os << ",\n{\"name\": \"" << escape(s.name) << "\", \"cat\": \""
       << escape(s.layer) << "\", \"ph\": \"X\", \"ts\": " << ts
       << ", \"dur\": " << dur << ", \"pid\": 0, \"tid\": 0, \"args\": "
       << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("short write on trace " + path);
}

}  // namespace e2e
