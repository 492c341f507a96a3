// The traced evaluation path: one likelihood evaluation composed from the
// library's public calls (covariance fill, precision and comm maps, tile
// Cholesky, log-determinant and forward solve) with a span around each, and
// the per-layer totals those spans and the returned reports add up to.
//
// The composition repeats mp_log_likelihood's arithmetic on a workspace, so
// its value must equal mp_log_likelihood's bit for bit; the precision and
// comm maps are built a second time outside mp_cholesky only to time them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/mle.hpp"
#include "core/tile_geometry.hpp"
#include "core/tile_matrix.hpp"
#include "obs/metrics.hpp"

namespace e2e {

struct KernelTotals {
  double busy_s = 0.0;
  double flops = 0.0;
};

struct LayerTotals {
  std::uint64_t evals = 0;  ///< evaluations whose factorization succeeded
  std::uint64_t calls = 0;  ///< every composed evaluation
  double covgen_s = 0.0;
  double pmap_s = 0.0;
  double cholesky_s = 0.0;
  double solve_s = 0.0;
  double exec_wall_s = 0.0;  ///< factorization graph wall (ExecutionReport)
  double busy_s = 0.0;       ///< summed task time of those graphs
  double critical_s = 0.0;   ///< obs/critical_path length
  double flops = 0.0;        ///< POTRF/TRSM/SYRK/GEMM, from tile shapes
  std::map<std::string, KernelTotals> kernels;
  std::uint64_t escalations = 0;
  std::uint64_t breakdowns = 0;
  std::uint64_t opcache_hits = 0;
  std::uint64_t opcache_misses = 0;
  /// Tiles per precision (FP64, FP32, FP16_32, FP16), summed over the
  /// factorizations' maps.
  std::array<std::uint64_t, 4> pmap_tiles{};
  std::size_t threads = 0;
};

class ComposedEvaluator {
 public:
  /// `options` must run fully resident on a dedicated pool (no session, no
  /// out-of-core, one rank) — the configuration every workload times.
  ComposedEvaluator(const mpgeo::Covariance& cov,
                    const mpgeo::LocationSet& locs, std::span<const double> z,
                    const mpgeo::MleOptions& options, Tracer& tracer,
                    LayerTotals& totals, mpgeo::MetricsRegistry& metrics);

  /// The log-likelihood at theta (-1e100 when the factorization breaks
  /// down, like mp_log_likelihood). Structural checks of the run go to
  /// errors().
  double operator()(std::span<const double> theta, std::uint64_t op);

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  const mpgeo::Covariance& cov_;
  const mpgeo::LocationSet& locs_;
  std::vector<double> z_;
  mpgeo::MleOptions opts_;
  Tracer& tracer_;
  LayerTotals& totals_;
  mpgeo::MetricsRegistry& metrics_;
  std::shared_ptr<const mpgeo::TileGeometry> geometry_;
  mpgeo::TileMatrix sigma_;
  std::vector<std::string> errors_;
};

/// Per-layer metrics of the evaluation path, keyed by name, from the
/// totals plus the executor counters in `metrics`.
std::map<std::string, double> evaluation_layers(
    const LayerTotals& t, const mpgeo::MetricsRegistry& metrics);

}  // namespace e2e
