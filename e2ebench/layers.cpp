#include "layers.hpp"

#include <algorithm>
#include <cmath>

#include "checks.hpp"
#include "common/error.hpp"
#include "core/comm_map.hpp"
#include "core/mp_cholesky.hpp"
#include "core/precision_map.hpp"
#include "core/tiled_covariance.hpp"
#include "obs/critical_path.hpp"

namespace e2e {
namespace {

using namespace mpgeo;

constexpr double kFailedLogLik = -1e100;
// The constant mp_log_likelihood uses; the composed value must match it
// bit for bit.
constexpr double kLog2Pi = 1.83787706640934548356065947281;

/// Standard LAPACK operation counts of one tile task from the tile shapes.
double task_flops(const TaskInfo& info, std::size_t n, std::size_t nb) {
  const auto rows = [&](int i) {
    return double(std::min(nb, n - std::size_t(i) * nb));
  };
  switch (info.kind) {
    case KernelKind::POTRF: {
      const double r = rows(info.tm);
      return r * r * r / 3.0;
    }
    case KernelKind::TRSM:
      return rows(info.tm) * rows(info.tk) * rows(info.tk);
    case KernelKind::SYRK:
      return rows(info.tm) * (rows(info.tm) + 1.0) * rows(info.tk);
    case KernelKind::GEMM:
      return 2.0 * rows(info.tm) * rows(info.tn) * rows(info.tk);
    default:
      return 0.0;
  }
}

int kind_index(KernelKind k) {
  switch (k) {
    case KernelKind::POTRF: return 0;
    case KernelKind::TRSM: return 1;
    case KernelKind::SYRK: return 2;
    case KernelKind::GEMM: return 3;
    default: return -1;
  }
}

}  // namespace

ComposedEvaluator::ComposedEvaluator(const Covariance& cov,
                                     const LocationSet& locs,
                                     std::span<const double> z,
                                     const MleOptions& options, Tracer& tracer,
                                     LayerTotals& totals,
                                     MetricsRegistry& metrics)
    : cov_(cov),
      locs_(locs),
      z_(z.begin(), z.end()),
      opts_(options),
      tracer_(tracer),
      totals_(totals),
      metrics_(metrics),
      geometry_(std::make_shared<const TileGeometry>(locs, options.tile,
                                                     &metrics)),
      sigma_(locs.size(), options.tile) {
  totals_.threads = options.num_threads;
}

double ComposedEvaluator::operator()(std::span<const double> theta,
                                     std::uint64_t op) {
  auto eval_span = tracer_.span("evaluation", "core/mle", op);
  ++totals_.calls;
  CovGenOptions gen;
  gen.parallel = opts_.num_threads != 1;
  gen.num_threads = opts_.num_threads;
  gen.geometry = geometry_.get();
  gen.metrics = &metrics_;
  {
    auto s = tracer_.span("fill_tiled_covariance", "core/tiled_covariance", op);
    fill_tiled_covariance(sigma_, cov_, locs_, theta, opts_.nugget, gen);
    totals_.covgen_s += s.elapsed();
  }

  const std::vector<Precision> ladder = default_precision_ladder();
  PrecisionMap pmap;
  {
    auto s = tracer_.span("build_precision_map", "core/precision_map", op);
    pmap = build_precision_map(sigma_, opts_.u_req, ladder,
                               opts_.fp16_32_rule_eps);
    totals_.pmap_s += s.elapsed();
  }
  {
    auto s = tracer_.span("build_comm_map", "core/comm_map", op);
    const CommMap cmap = build_comm_map(pmap, opts_.comm);
    totals_.pmap_s += s.elapsed();
  }

  MpCholeskyOptions chol;
  chol.u_req = opts_.u_req;
  chol.comm = opts_.comm;
  chol.num_threads = opts_.num_threads;
  chol.use_work_stealing = opts_.use_work_stealing;
  chol.fp16_32_rule_eps = opts_.fp16_32_rule_eps;
  chol.metrics = &metrics_;
  chol.escalation = opts_.escalation;
  chol.dist = opts_.dist;
  chol.capture_trace = true;
  const std::vector<double> th(theta.begin(), theta.end());
  chol.regenerate = [this, th, &gen](TileMatrix& s) {
    fill_tiled_covariance(s, cov_, locs_, th, opts_.nugget, gen);
  };
  MpCholeskyResult res;
  {
    auto s = tracer_.span("mp_cholesky", "core/mp_cholesky", op);
    res = mp_cholesky(sigma_, chol);
    totals_.cholesky_s += s.elapsed();
  }
  totals_.escalations += std::uint64_t(res.escalations);
  totals_.breakdowns += std::uint64_t(res.breakdowns);
  totals_.opcache_hits += res.operand_cache.hits;
  totals_.opcache_misses += res.operand_cache.misses;
  if (res.info != 0) return kFailedLogLik;

  // The factorization's own map equals the one built above unless an
  // escalation retry promoted tiles.
  const std::size_t nt = sigma_.num_tiles();
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      const Precision p = res.pmap.kernel(m, k);
      if (res.escalations == 0 && p != pmap.kernel(m, k)) {
        errors_.push_back("mp_cholesky precision map differs from "
                          "build_precision_map on the same Sigma");
      }
      switch (p) {
        case Precision::FP64: ++totals_.pmap_tiles[0]; break;
        case Precision::FP32: ++totals_.pmap_tiles[1]; break;
        case Precision::FP16_32: ++totals_.pmap_tiles[2]; break;
        case Precision::FP16: ++totals_.pmap_tiles[3]; break;
        default: break;
      }
    }
  }

  // Kernel split, task counts and busy time from the executor trace.
  const TaskGraph& graph = *res.graph;
  std::array<std::uint64_t, 4> counts{};
  double busy = 0.0;
  for (const TaskTraceEntry& e : res.exec.trace) {
    const TaskInfo& info = graph.task(e.task).info;
    const double dt = e.end_seconds - e.start_seconds;
    busy += dt;
    const int ki = kind_index(info.kind);
    if (ki < 0) continue;
    ++counts[std::size_t(ki)];
    const double flops = task_flops(info, sigma_.n(), sigma_.nb());
    KernelTotals& k =
        totals_.kernels[to_string(info.kind) + "." + to_string(info.prec)];
    k.busy_s += dt;
    k.flops += flops;
    totals_.flops += flops;
  }
  if (std::string e = check_task_counts(counts, nt); !e.empty()) {
    errors_.push_back(e);
  }
  if (std::string e = check_busy(busy, opts_.num_threads, res.exec.wall_seconds);
      !e.empty()) {
    errors_.push_back(e);
  }
  totals_.busy_s += busy;
  totals_.exec_wall_s += res.exec.wall_seconds;
  totals_.critical_s += critical_path(graph, res.exec).length_seconds;
  ++totals_.evals;

  double logdet = 0.0;
  double quad = 0.0;
  {
    auto s = tracer_.span("logdet_tiled", "core/mp_cholesky", op);
    try {
      logdet = logdet_tiled(sigma_);
    } catch (const Error&) {
      totals_.solve_s += s.elapsed();
      return kFailedLogLik;
    }
    totals_.solve_s += s.elapsed();
  }
  {
    auto s = tracer_.span("forward_solve_tiled", "core/mp_cholesky", op);
    std::vector<double> y = z_;
    forward_solve_tiled(sigma_, y);
    for (double v : y) quad += v * v;
    totals_.solve_s += s.elapsed();
  }
  const double ll =
      -0.5 * double(sigma_.n()) * kLog2Pi - 0.5 * logdet - 0.5 * quad;
  return std::isfinite(ll) ? ll : kFailedLogLik;
}

std::map<std::string, double> evaluation_layers(const LayerTotals& t,
                                                const MetricsRegistry& metrics) {
  std::map<std::string, double> m;
  if (t.calls == 0) return m;
  const double calls = double(t.calls);
  const double evals = double(std::max<std::uint64_t>(t.evals, 1));
  m["covgen.ms_per_eval"] = t.covgen_s / calls * 1e3;
  if (t.covgen_s > 0) {
    m["covgen.mvalues_per_s"] =
        double(metrics.counter_value("covgen.values")) / t.covgen_s / 1e6;
  }
  m["pmap.ms_per_eval"] = t.pmap_s / calls * 1e3;
  m["pmap.tiles.FP64"] = double(t.pmap_tiles[0]) / evals;
  m["pmap.tiles.FP32"] = double(t.pmap_tiles[1]) / evals;
  m["pmap.tiles.FP16_32"] = double(t.pmap_tiles[2]) / evals;
  m["pmap.tiles.FP16"] = double(t.pmap_tiles[3]) / evals;
  m["cholesky.ms_per_eval"] = t.cholesky_s / calls * 1e3;
  if (t.exec_wall_s > 0) m["cholesky.gflops"] = t.flops / t.exec_wall_s / 1e9;
  m["cholesky.escalations"] = double(t.escalations) / calls;
  m["cholesky.breakdowns"] = double(t.breakdowns) / calls;
  for (const char* cls : kKernelClasses) {
    const auto it = t.kernels.find(cls);
    if (it == t.kernels.end()) continue;
    m[std::string("kernel.") + cls + ".ms"] = it->second.busy_s / evals * 1e3;
    if (it->second.busy_s > 0) {
      m[std::string("kernel.") + cls + ".gflops"] =
          it->second.flops / it->second.busy_s / 1e9;
    }
  }
  m["opcache.hits"] = double(t.opcache_hits) / calls;
  m["opcache.misses"] = double(t.opcache_misses) / calls;
  if (t.opcache_hits + t.opcache_misses > 0) {
    m["opcache.hit_ratio"] =
        double(t.opcache_hits) / double(t.opcache_hits + t.opcache_misses);
  }
  m["executor.idle_ms"] =
      (double(t.threads) * t.exec_wall_s - t.busy_s) / evals * 1e3;
  m["executor.critical_path_ms"] = t.critical_s / evals * 1e3;
  m["executor.parks"] = double(metrics.counter_value("executor.parks")) / calls;
  m["executor.steals"] =
      double(metrics.counter_value("executor.steals")) / calls;
  m["executor.wakeups"] =
      double(metrics.counter_value("executor.wakeups")) / calls;
  m["solve.ms_per_eval"] = t.solve_s / evals * 1e3;
  return m;
}

}  // namespace e2e
