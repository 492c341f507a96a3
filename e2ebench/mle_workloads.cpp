// mle_fit and loglik_n1600: the optimizer, covariance-generation and
// kernel layers, one fit or one evaluation at a time on a dedicated pool.
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/mle.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "optim/optimizer.hpp"
#include "reference.hpp"
#include "stats/field.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace mpgeo;

constexpr double kFailedLogLik = -1e100;

struct Dataset {
  std::string label;
  Covariance cov{CovKind::SqExp};
  LocationSet locs;
  std::vector<double> truth;
  std::vector<double> z;
  MleOptions opts;
  /// The paper's 2D-sqexp fit: it fails on every input today (CHANGES.md
  /// names the fault), so its failure is counted, not reported as wrong.
  bool known_fault = false;
};

/// A fixed station network (its own seed) with fresh observations drawn
/// from `seed`: the network sets the precision maps and so the work per
/// evaluation, the observations set where the optimizer goes.
Dataset make_dataset(std::string label, CovKind kind, std::size_t n,
                     std::vector<double> truth, std::uint64_t network_seed,
                     std::uint64_t seed, std::size_t threads) {
  Dataset d;
  d.label = std::move(label);
  d.cov = Covariance(kind);
  Rng net(network_seed);
  d.locs = generate_locations(n, 2, net);
  d.truth = std::move(truth);
  Rng rng(seed);
  d.z = sample_field(d.cov, d.locs, d.truth, rng);
  d.opts.num_threads = threads;
  return d;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Seeds of the fixed station networks, and of the seed-independent
/// observations of the paper's 2D-sqexp application.
constexpr std::uint64_t kNetworkSeed = 2023;
constexpr std::uint64_t kPaperSqExpSeed = 2023;

std::vector<Dataset> mle_datasets(std::uint64_t seed, std::size_t threads) {
  std::vector<Dataset> sets;
  for (std::uint64_t f = 0; f < 3; ++f) {
    Dataset d = make_dataset("matern" + std::to_string(f), CovKind::Matern, 400,
                             {1.0, 0.1, 0.5}, derive_seed(kNetworkSeed, f),
                             derive_seed(seed, f), threads);
    d.opts.u_req = 1e-9;
    d.opts.tile = 50;
    d.opts.fp16_32_rule_eps = 1e-6;
    sets.push_back(std::move(d));
  }
  Dataset d = make_dataset("sqexp-paper", CovKind::SqExp, 400, {1.0, 0.1},
                           kPaperSqExpSeed, kPaperSqExpSeed, threads);
  d.opts.u_req = 1e-4;
  d.opts.tile = 50;
  d.opts.fp16_32_rule_eps = 1.22e-4;
  d.known_fault = true;
  sets.push_back(std::move(d));
  return sets;
}

struct FitRecord {
  std::size_t dataset = 0;
  MleResult result;
  double wall = 0.0;
  double cpu = 0.0;  ///< CPU seconds of every thread of the process
};

/// Checks of one fit against the benchmark's own FP64 likelihood; returns
/// the failures (empty = the fit is right).
std::vector<std::string> check_mle_fit(const Dataset& d, const MleResult& r) {
  std::vector<std::string> errs;
  const auto add = [&](std::string e) {
    if (!e.empty()) errs.push_back(std::move(e));
  };
  add(check_fit(d.label, r.converged, r.theta, d.opts.lower_bound,
                d.opts.upper_bound));
  const double at_hat =
      reference_loglik(d.cov.kind(), d.locs.coords, r.theta, d.z, d.opts.nugget);
  const double at_truth =
      reference_loglik(d.cov.kind(), d.locs.coords, d.truth, d.z, d.opts.nugget);
  const double tol = loglik_tolerance(d.z.size(), d.opts.u_req, at_hat);
  add(check_close(d.label + " loglik at theta-hat", r.loglik, at_hat, tol));
  add(check_not_below_truth(d.label, at_hat, at_truth, tol));
  return errs;
}

}  // namespace

RunResult run_mle_fit(const RunConfig& cfg) {
  RunResult out;
  const std::vector<Dataset> sets = mle_datasets(cfg.seed, cfg.threads);
  out.end_setup();

  Tracer tracer;
  MetricsRegistry registry;        // Matérn fits' composed evaluations
  MetricsRegistry known_registry;  // the 2D-sqexp fit's
  LayerTotals totals, known_totals;
  double objective_s = 0.0, minimize_s = 0.0;
  std::vector<FitRecord> fits;
  const double t0 = now_s();
  do {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const Dataset& d = sets[i];
      const std::uint64_t op = fits.size() + 1;
      FitRecord rec;
      rec.dataset = i;
      {
        auto span = tracer.span("fit_mle", "core/mle", op);
        const double a = now_s(), c = cpu_s();
        rec.result = fit_mle(d.cov, d.locs, d.z, d.opts);
        rec.wall = now_s() - a;
        rec.cpu = cpu_s() - c;
      }
      if (cfg.trace) {
        // The same fit composed from public calls: minimize() over the
        // traced evaluation. Its call count and optimum must match fit_mle.
        ComposedEvaluator eval(d.cov, d.locs, d.z, d.opts, tracer,
                               d.known_fault ? known_totals : totals,
                               d.known_fault ? known_registry : registry);
        std::uint64_t calls = 0;
        double in_objective = 0.0;
        const Objective objective = [&](std::span<const double> theta) {
          ++calls;
          auto s = tracer.span("objective", "e2ebench", op);
          const double v = -eval(theta, op);
          in_objective += s.elapsed();
          return v;
        };
        const std::size_t p = d.cov.num_params();
        const std::vector<double> lo(p, d.opts.lower_bound);
        const std::vector<double> hi(p, d.opts.upper_bound);
        const std::vector<double> start(p, d.opts.lower_bound + 1e-3);
        OptimResult o;
        double wall = 0.0;
        {
          auto s = tracer.span("minimize", "optim", op);
          o = minimize(objective, start, lo, hi, d.opts.optim);
          wall = s.elapsed();
        }
        out.check(check_count(d.label + " objective calls vs evaluations",
                              calls, std::uint64_t(rec.result.evaluations)));
        out.check(check_bitwise(d.label + " composed theta-hat", o.x,
                                rec.result.theta));
        const double ll = -o.fx;
        out.check(check_bitwise(d.label + " composed loglik", {&ll, 1},
                                {&rec.result.loglik, 1}));
        for (const std::string& e : eval.errors()) out.check(d.label + ": " + e);
        if (!d.known_fault) {
          objective_s += in_objective;
          minimize_s += wall;
        }
      }
      fits.push_back(std::move(rec));
    }
  } while (now_s() - t0 < cfg.seconds);
  out.values["peak_rss_mib"] = peak_rss_mib();

  // Checks: the first round against the FP64 reference, every later round
  // bit for bit against the first.
  std::vector<double> matern_walls, eval_ms;
  double matern_evals = 0.0, matern_cpu = 0.0;
  std::vector<bool> first_failed(sets.size());
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const FitRecord& f = fits[i];
    const Dataset& d = sets[f.dataset];
    ++out.attempted;
    std::vector<std::string> errs;
    bool failed = false;
    if (i < sets.size()) {
      errs = check_mle_fit(d, f.result);
      failed = first_failed[i] = !errs.empty();
    } else {
      const MleResult& first = fits[f.dataset].result;
      if (!same_bits(f.result.loglik, first.loglik) ||
          !check_bitwise("", f.result.theta, first.theta).empty()) {
        errs.push_back(d.label + ": repeated fit differs from the first");
      }
      failed = first_failed[f.dataset] || !errs.empty();
    }
    if (failed) ++out.failed;
    if (!d.known_fault) {
      for (const std::string& e : errs) out.check(e);
      matern_walls.push_back(f.wall);
      matern_evals += f.result.evaluations;
      matern_cpu += f.cpu;
      eval_ms.push_back(f.wall / f.result.evaluations * 1e3);
    }
  }

  double total = 0.0;
  for (double w : matern_walls) total += w;
  const double count = double(matern_walls.size());
  out.values["cpu_ms_per_op"] = matern_cpu / count * 1e3;
  // Wall-clock figures, printed on stderr only: they are not gated
  // (README, "Steadiness and bounds").
  out.values["ref.fit_s"] = total / count;
  out.values["ref.eval_ms"] = median(eval_ms);
  out.values["ref.cpu_ms_per_eval"] = matern_cpu / matern_evals * 1e3;

  if (cfg.trace) {
    for (const auto& [k, v] : evaluation_layers(totals, registry)) {
      out.values[k] = v;
    }
    out.values["optim.evals_per_fit"] = matern_evals / count;
    out.values["optim.self_ms_per_fit"] =
        (minimize_s - objective_s) / count * 1e3;
    out.values["trace.overhead_pct"] =
        (minimize_s / total - 1.0) * 100.0;
    tracer.write_chrome_trace(cfg.out_dir + "/mle_fit-spans.json");
  }
  return out;
}

RunResult run_loglik(const RunConfig& cfg) {
  RunResult out;
  Dataset d = make_dataset("loglik", CovKind::Matern, 1600, {1.0, 0.05, 0.5},
                           derive_seed(kNetworkSeed, 100),
                           derive_seed(cfg.seed, 100), cfg.threads);
  d.opts.u_req = 1e-9;
  d.opts.tile = 100;
  d.opts.fp16_32_rule_eps = 1e-6;
  // A fixed cycle of parameters around the generating ones, nu = 0.5 (the
  // closed-form covariance path) throughout. At beta = 0.05 the precision
  // map is about 43% FP64, 29% FP32, 26% FP16_32 and 1% FP16 tiles.
  const std::vector<std::vector<double>> cycle = {
      {1.0, 0.05, 0.5}, {0.8, 0.05, 0.5}, {1.0, 0.04, 0.5}, {1.2, 0.06, 0.5}};

  // Warm-up: one pass over the cycle. The first few evaluations of a
  // process run about three times slower than the rest.
  MleWorkspace ws;
  for (const std::vector<double>& theta : cycle) {
    mp_log_likelihood(d.cov, d.locs, theta, d.z, d.opts, ws);
  }
  out.end_setup();

  Tracer tracer;
  MetricsRegistry registry;
  LayerTotals totals;
  ComposedEvaluator composed(d.cov, d.locs, d.z, d.opts, tracer, totals,
                             registry);
  std::vector<double> values, walls, cpus;
  const double t0 = now_s();
  do {
    for (const std::vector<double>& theta : cycle) {
      const std::uint64_t op = values.size() + 1;
      const double a = now_s(), c = cpu_s();
      const double v = cfg.trace ? composed(theta, op)
                                 : mp_log_likelihood(d.cov, d.locs, theta, d.z,
                                                     d.opts, ws);
      walls.push_back(now_s() - a);
      cpus.push_back((cpu_s() - c) * 1e3);
      values.push_back(v);
    }
  } while (now_s() - t0 < cfg.seconds);
  out.values["peak_rss_mib"] = peak_rss_mib();

  const std::size_t k = cycle.size();
  out.attempted = values.size();
  for (double v : values) {
    if (v <= kFailedLogLik) ++out.failed;
  }
  if (out.failed) out.check(std::to_string(out.failed) + " evaluations failed");
  for (std::size_t i = k; i < values.size(); ++i) {
    if (!same_bits(values[i], values[i % k])) {
      out.check("evaluation " + std::to_string(i) +
                " differs from the same parameters' first evaluation");
      break;
    }
  }
  // Dense FP64 references, one parameter vector per thread.
  std::vector<double> refs(k);
  {
    std::vector<std::jthread> pool;
    for (std::size_t i = 0; i < k; ++i) {
      pool.emplace_back([&, i] {
        refs[i] = reference_loglik(d.cov.kind(), d.locs.coords, cycle[i], d.z,
                                   d.opts.nugget);
      });
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    out.check(check_close("loglik at cycle point " + std::to_string(i),
                          values[i], refs[i],
                          loglik_tolerance(d.z.size(), d.opts.u_req, refs[i])));
  }
  // The composed evaluation against mp_log_likelihood, bit for bit, with the
  // structural checks of its factorization.
  for (std::size_t i = 0; i < k; ++i) {
    const double plain =
        mp_log_likelihood(d.cov, d.locs, cycle[i], d.z, d.opts, ws);
    const double comp = cfg.trace ? values[i] : composed(cycle[i], 0);
    out.check(check_bitwise("composed evaluation " + std::to_string(i),
                            {&comp, 1}, {&plain, 1}));
  }
  for (const std::string& e : composed.errors()) out.check(e);
  out.check(check_mixed(totals.pmap_tiles[1] + totals.pmap_tiles[2] +
                        totals.pmap_tiles[3]));

  std::vector<double> ms;
  for (double w : walls) ms.push_back(w * 1e3);
  out.values["cpu_ms_per_op"] = median(cpus);
  out.values["ref.eval_ms"] = median(ms);
  out.values["ref.eval_p95_ms"] = percentile(ms, 95);

  if (cfg.trace) {
    for (const auto& [name, v] : evaluation_layers(totals, registry)) {
      out.values[name] = v;
    }
    tracer.write_chrome_trace(cfg.out_dir + "/loglik_n1600-spans.json");
  }
  return out;
}

}  // namespace e2e
