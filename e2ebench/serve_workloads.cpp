// serve_open and serve_paged: the serving, executor-session and shared
// pager layers. Both replay the same seeded request pool through one
// FitServer; serve_open as an open loop of Poisson arrivals with resident
// memory, serve_paged as closed bursts under a global residency budget.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/mle.hpp"
#include "core/mp_cholesky.hpp"
#include "core/shared_pager.hpp"
#include "core/tiled_covariance.hpp"
#include "linalg/tile_codec.hpp"
#include "obs/metrics.hpp"
#include "serve/fit_server.hpp"
#include "stats/field.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace mpgeo;

constexpr std::size_t kSlots = 4;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kRequestsPerTenant = 8;
/// One round: every request of the pool once, in a seeded order.
constexpr std::size_t kRound = kTenants * kRequestsPerTenant;
constexpr std::size_t kTile = 16;

struct Tenant {
  CovKind kind = CovKind::SqExp;
  std::shared_ptr<const LocationSet> locations;
  std::vector<double> truth;
  std::string name;
};

struct Request {
  std::size_t tenant = 0;
  std::vector<double> z;
};

struct Pool {
  std::vector<Tenant> tenants;
  std::vector<Request> requests;  ///< kRound of them, tenant-major
};

/// Small serving-tier fits: loose accuracy, small tiles, a bounded
/// optimizer budget, so a fit is a few dozen evaluations of tiny graphs.
MleOptions serve_options(std::size_t threads) {
  MleOptions o;
  o.u_req = 1e-4;
  o.tile = kTile;
  o.num_threads = threads;
  o.optim.max_evaluations = 30;
  o.optim.tolerance = 1e-3;
  return o;
}

/// Eight tenants over four fixed station networks (n = 40..64): tenants i
/// and i + 4 share a network, so the geometry registry is exercised. SqExp
/// with a PowExp share; each request is a fresh field realization drawn
/// from the seed.
Pool make_pool(std::uint64_t seed) {
  constexpr std::size_t kSizes[] = {40, 48, 56, 64};
  constexpr std::uint64_t kNetworkSeed = 2023;
  std::vector<std::shared_ptr<const LocationSet>> networks;
  for (std::size_t j = 0; j < std::size(kSizes); ++j) {
    Rng rng(derive_seed(kNetworkSeed, 100 + j));
    networks.push_back(std::make_shared<const LocationSet>(
        generate_locations(kSizes[j], 2, rng)));
  }
  Pool p;
  for (std::size_t i = 0; i < kTenants; ++i) {
    Tenant t;
    t.kind = i % 4 == 3 ? CovKind::PowExp : CovKind::SqExp;
    t.locations = networks[i % networks.size()];
    t.truth = t.kind == CovKind::SqExp ? std::vector<double>{1.0, 0.1}
                                       : std::vector<double>{1.0, 0.1, 1.0};
    t.name = "tenant" + std::to_string(i);
    p.tenants.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < kTenants; ++i) {
    for (std::size_t r = 0; r < kRequestsPerTenant; ++r) {
      const Tenant& t = p.tenants[i];
      Rng rng(derive_seed(seed, 200 + i * kRequestsPerTenant + r));
      p.requests.push_back(
          {i, sample_field(Covariance(t.kind), *t.locations, t.truth, rng)});
    }
  }
  return p;
}

/// The arrival trace — each round's request order and the open loop's
/// arrival gaps — is one fixed replay; the seed draws the observations.
/// Tenants differ in size and kernel, so with a seeded order the queueing
/// at one rate moved with the seed, not with the program.
constexpr std::uint64_t kTraceSeed = 2023;

/// Request indices of round `round`: a fixed permutation of the pool.
std::vector<std::size_t> round_order(std::size_t round) {
  std::vector<std::size_t> order(kRound);
  for (std::size_t i = 0; i < kRound; ++i) order[i] = i;
  Rng rng(derive_seed(kTraceSeed, 300 + round));
  for (std::size_t i = kRound - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  }
  return order;
}

FitRequest to_fit_request(const Pool& p, std::size_t r, std::size_t threads) {
  const Tenant& t = p.tenants[p.requests[r].tenant];
  FitRequest req;
  req.kind = t.kind;
  req.locations = t.locations;
  req.observations = p.requests[r].z;
  req.options = serve_options(threads);
  req.tenant = t.name;
  return req;
}

/// FP64 lower-triangle bytes of one Sigma at tile size nb.
std::size_t sigma_bytes(std::size_t n, std::size_t nb) {
  const std::size_t nt = (n + nb - 1) / nb;
  std::size_t bytes = 0;
  for (std::size_t m = 0; m < nt; ++m) {
    for (std::size_t k = 0; k <= m; ++k) {
      bytes += std::min(nb, n - m * nb) * std::min(nb, n - k * nb) * 8;
    }
  }
  return bytes;
}

/// One measured fit: which request, its response, and its latency from
/// the moment it was due.
struct Served {
  std::size_t request = 0;
  FitResponse response;
  double latency_s = 0.0;
};

/// Warm the server's workspace pool and geometry registry with one fit per
/// tenant, the way a long-running server is warm.
void warm_up(FitServer& server, const Pool& p, std::size_t threads) {
  std::vector<std::future<FitResponse>> f;
  for (std::size_t i = 0; i < kTenants; ++i) {
    f.push_back(
        server.submit(to_fit_request(p, i * kRequestsPerTenant, threads)));
  }
  for (auto& x : f) x.get();
}

/// What every request must return: a serial fit_mle of it on one thread,
/// made during set-up. The library's numerics do not depend on the pool
/// (its scheduler-independence contract), so the server's fits must equal
/// these bit for bit. The loop's pace is the serial reference figure.
std::vector<MleResult> serial_fits(RunResult& out, const Pool& p) {
  std::vector<MleResult> v;
  const double a = now_s();
  for (const Request& r : p.requests) {
    const Tenant& t = p.tenants[r.tenant];
    v.push_back(
        fit_mle(Covariance(t.kind), *t.locations, r.z, serve_options(1)));
  }
  out.values["ref.serial_fits_per_s"] = double(v.size()) / (now_s() - a);
  return v;
}

/// Checks common to both serving workloads: every fit Ok and bitwise equal
/// to the serial fit of the same request.
void check_served(RunResult& out, const std::vector<Served>& served,
                  const std::vector<MleResult>& serial) {
  for (const Served& s : served) {
    ++out.attempted;
    const std::string label = "fit of request " + std::to_string(s.request);
    if (s.response.outcome != FitOutcome::Ok) {
      ++out.failed;
      out.check(label + ": outcome not Ok: " + s.response.error);
      continue;
    }
    const MleResult& want = serial[s.request];
    const MleResult& got = s.response.result;
    const std::string e =
        check_bitwise(label + " theta", got.theta, want.theta) +
        check_bitwise(label + " loglik", {&got.loglik, 1}, {&want.loglik, 1});
    if (!e.empty()) {
      ++out.failed;
      out.check(e + " (against serial fit_mle)");
    }
  }
}

/// Fits measured together: one closed burst, or the whole open loop.
struct Group {
  std::vector<Served> fits;
  double wall = 0.0;  ///< first due time to last completion
  double cpu = 0.0;   ///< CPU seconds of the process over the same span
};

std::vector<Served> all_fits(const std::vector<Group>& groups) {
  std::vector<Served> v;
  for (const Group& g : groups) v.insert(v.end(), g.fits.begin(), g.fits.end());
  return v;
}

/// End-to-end metrics common to both serving workloads: latency
/// percentiles, throughput and mean service time per group, each reported
/// as the median over groups, so one stalled burst does not decide a run;
/// per-fit figures pooled over all fits.
void serve_metrics(RunResult& out, const std::vector<Group>& groups) {
  std::vector<double> p50, p95, fit_s, fps, eval_ms, queue_ms, run_ms, cpu;
  double slowest = 0.0;
  for (const Group& g : groups) {
    std::vector<double> lat_ms;
    double run_total = 0.0;
    for (const Served& s : g.fits) {
      const FitResponse& r = s.response;
      lat_ms.push_back(s.latency_s * 1e3);
      queue_ms.push_back(r.queue_seconds * 1e3);
      run_ms.push_back(r.run_seconds * 1e3);
      run_total += r.run_seconds;
      if (r.result.evaluations > 0) {
        eval_ms.push_back(r.run_seconds / r.result.evaluations * 1e3);
      }
    }
    p50.push_back(median(lat_ms));
    p95.push_back(percentile(lat_ms, 95));
    fit_s.push_back(run_total / double(g.fits.size()));
    fps.push_back(double(g.fits.size()) / g.wall);
    cpu.push_back(g.cpu / double(g.fits.size()) * 1e3);
    slowest = std::max(slowest, g.wall);
  }
  out.values["cpu_ms_per_op"] = median(cpu);
  // Wall-clock figures, printed on stderr only: they are not gated
  // (README, "Steadiness and bounds").
  out.values["ref.latency_p50_ms"] = median(p50);
  out.values["ref.latency_p95_ms"] = median(p95);
  out.values["ref.fit_s"] = median(fit_s);
  out.values["ref.fits_per_s"] = median(fps);
  out.values["ref.eval_ms"] = median(eval_ms);
  out.values["serve.queue_ms_p50"] = median(queue_ms);
  out.values["serve.run_ms_p50"] = median(run_ms);
  out.values["ref.slowest_group_s"] = slowest;
}

/// Per-layer figures of the server's own counters, per fit (serve_open's
/// warm-up fits included, since the counters are).
void session_layers(RunResult& out, const MetricsRegistry& reg,
                    std::size_t fits) {
  const double n = double(fits);
  out.values["serve.geometry_hits"] =
      double(reg.counter_value("serve.geometry_hits")) / n;
  out.values["session.parks"] = double(reg.counter_value("executor.parks")) / n;
  out.values["session.steals"] =
      double(reg.counter_value("executor.steals")) / n;
  out.values["session.wakeups"] =
      double(reg.counter_value("executor.wakeups")) / n;
}

FitServerOptions server_options(MetricsRegistry* reg, const RunConfig& cfg,
                                std::size_t capacity) {
  FitServerOptions so;
  so.num_threads = cfg.threads;
  so.fit_slots = kSlots;
  so.queue_capacity = capacity;
  so.metrics = cfg.trace ? reg : nullptr;
  so.capture_fit_spans = cfg.trace;
  return so;
}

/// Closed bursts: a whole round is due at once, and the next round starts
/// when the last fit of this one returns; rounds repeat until `seconds`
/// have passed. `max_lag` is the longest a submission trailed its burst's
/// start.
std::vector<Group> run_bursts(FitServer& server, const Pool& pool,
                              const RunConfig& cfg, Tracer& tracer,
                              double& max_lag) {
  std::vector<Group> bursts;
  max_lag = 0.0;
  std::uint64_t op = 0;
  const double t0 = now_s();
  do {
    const std::vector<std::size_t> order = round_order(bursts.size());
    const double start = now_s(), cpu_start = cpu_s();
    std::vector<std::future<FitResponse>> futures;
    std::vector<double> lag;
    for (std::size_t r : order) {
      auto s = tracer.span("FitServer::submit", "serve", ++op);
      lag.push_back(now_s() - start);
      futures.push_back(server.submit(to_fit_request(pool, r, cfg.threads)));
    }
    Group g;
    for (std::size_t i = 0; i < order.size(); ++i) {
      Served s;
      s.request = order[i];
      s.response = futures[i].get();
      s.latency_s = lag[i] + s.response.total_seconds;
      g.fits.push_back(std::move(s));
    }
    g.wall = now_s() - start;
    g.cpu = cpu_s() - cpu_start;
    bursts.push_back(std::move(g));
    max_lag = std::max(max_lag, lag.back());
  } while (now_s() - t0 < cfg.seconds);
  return bursts;
}

}  // namespace

RunResult run_serve_open(const RunConfig& cfg) {
  RunResult out;
  const Pool pool = make_pool(cfg.seed);
  // Whole rounds covering `seconds` at the fixed rate; the arrival gaps are
  // exponential, scaled so the schedule spans exactly fits / rate seconds.
  const double rate = cfg.rate_hz > 0 ? cfg.rate_hz : 1.0;
  const std::size_t rounds = std::max<std::size_t>(
      1, std::size_t(std::llround(cfg.seconds * rate / double(kRound))));
  const std::size_t n = rounds * kRound;
  std::vector<double> due(n);
  {
    Rng rng(derive_seed(kTraceSeed, 400));
    double t = 0.0;
    for (double& d : due) {
      t += -std::log(1.0 - rng.uniform());
      d = t;
    }
    const double scale = double(n) / rate / t;
    for (double& d : due) d *= scale;
  }
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto o = round_order(r);
    order.insert(order.end(), o.begin(), o.end());
  }
  const std::vector<MleResult> serial = serial_fits(out, pool);
  MetricsRegistry reg;
  FitServer server(server_options(&reg, cfg, n));
  warm_up(server, pool, cfg.threads);
  out.end_setup();

  Tracer tracer;
  std::vector<Group> groups;
  double max_lateness = 0.0;
  if (cfg.rate_hz > 0) {
    std::vector<std::future<FitResponse>> futures;
    std::vector<double> lateness(n);
    const double t0 = now_s(), cpu_start = cpu_s();
    for (std::size_t i = 0; i < n; ++i) {
      const double wait = t0 + due[i] - now_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      lateness[i] = now_s() - (t0 + due[i]);
      auto s = tracer.span("FitServer::submit", "serve", i + 1);
      futures.push_back(
          server.submit(to_fit_request(pool, order[i], cfg.threads)));
    }
    Group g;
    g.fits.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      g.fits[i].request = order[i];
      g.fits[i].response = futures[i].get();
      g.fits[i].latency_s = lateness[i] + g.fits[i].response.total_seconds;
    }
    g.wall = now_s() - t0 - due.front();
    g.cpu = cpu_s() - cpu_start;
    groups.push_back(std::move(g));
    max_lateness = *std::max_element(lateness.begin(), lateness.end());
  } else {
    groups = run_bursts(server, pool, cfg, tracer, max_lateness);
  }
  out.values["peak_rss_mib"] = peak_rss_mib();

  const std::vector<Served> served = all_fits(groups);
  check_served(out, served, serial);
  serve_metrics(out, groups);
  if (cfg.trace) {
    session_layers(out, reg, served.size() + kTenants);
    out.values["serve.max_lateness_ms"] = max_lateness * 1e3;
    tracer.write_chrome_trace(cfg.out_dir + "/serve_open-spans.json");
    write_fit_spans_chrome_trace_file(server.fit_spans(),
                                      cfg.out_dir + "/serve_open-fits.json");
  }
  return out;
}

RunResult run_serve_paged(const RunConfig& cfg) {
  RunResult out;
  const Pool pool = make_pool(cfg.seed);
  std::size_t max_sigma = 0;
  for (const Tenant& t : pool.tenants) {
    max_sigma = std::max(max_sigma, sigma_bytes(t.locations->size(), kTile));
  }
  // 30% of the worst-case co-resident working set of the slots.
  const std::size_t budget = std::size_t(0.3 * double(kSlots * max_sigma));
  const std::size_t tile_bytes = kTile * kTile * sizeof(double);
  const std::vector<MleResult> serial = serial_fits(out, pool);
  MetricsRegistry reg;
  FitServerOptions so = server_options(&reg, cfg, kRound);
  so.global_resident_budget = budget;
  // No warm-up fits: they ran the pager-bound fits the bursts measure, and
  // their CPU time made set-up as unsteady as the bursts themselves. The
  // first, cold burst is one of the several the metrics take a median over.
  // Set-up is the request pool and the serial expected results.
  FitServer server(so);
  out.end_setup();

  Tracer tracer;
  double max_submit_lag = 0.0;
  const std::vector<Group> bursts =
      run_bursts(server, pool, cfg, tracer, max_submit_lag);
  out.values["peak_rss_mib"] = peak_rss_mib();
  const std::vector<Served> served = all_fits(bursts);

  check_served(out, served, serial);
  const SharedPagerStats ps = server.shared_pager()->stats();
  out.check(check_peak(ps.peak_resident_bytes, budget, tile_bytes));
  for (const Served& s : served) {
    const OocStats& o = s.response.result.ooc;
    out.check(check_faults("fit of request " + std::to_string(s.request),
                           o.demand_faults, o.uses));
  }
  serve_metrics(out, bursts);

  if (cfg.trace) {
    const std::size_t fits = served.size();
    session_layers(out, reg, fits);
    out.values["serve.max_lateness_ms"] = max_submit_lag * 1e3;
    const double n = double(fits);
    out.values["pager.demand_faults"] = double(ps.demand_faults) / n;
    out.values["pager.prefetches"] = double(ps.prefetches) / n;
    out.values["pager.write_installs"] = double(ps.write_installs) / n;
    out.values["pager.cold_evictions"] = double(ps.cold_evictions) / n;
    out.values["pager.urgent_served"] = double(ps.urgent_served) / n;
    out.values["pager.peak_resident_bytes"] = double(ps.peak_resident_bytes);
    // The spill tier's codec on what it stores: each tenant's factor tiles
    // at the generating parameters.
    std::size_t raw = 0, packed = 0;
    for (std::size_t i = 0; i < kTenants; ++i) {
      const Tenant& t = pool.tenants[i];
      TileMatrix a = build_tiled_covariance(Covariance(t.kind), *t.locations,
                                            t.truth, kTile);
      MpCholeskyOptions chol;
      chol.u_req = serve_options(cfg.threads).u_req;
      chol.num_threads = cfg.threads;
      mp_cholesky(a, chol);
      for (std::size_t m = 0; m < a.num_tiles(); ++m) {
        for (std::size_t k = 0; k <= m; ++k) {
          auto s = tracer.span("compress_tile", "linalg/tile_codec", i + 1);
          const CompressedBlob blob = compress_tile(a.tile(m, k));
          raw += blob.raw_bytes();
          packed += blob.size_bytes();
        }
      }
    }
    out.values["codec.ratio"] = double(raw) / double(packed);
    tracer.write_chrome_trace(cfg.out_dir + "/serve_paged-spans.json");
    write_fit_spans_chrome_trace_file(server.fit_spans(),
                                      cfg.out_dir + "/serve_paged-fits.json");
  }
  return out;
}

}  // namespace e2e
