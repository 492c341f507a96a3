// Self-tests of the benchmark's checks: every check passes on a good input
// and fails on a perturbed one, the closed-form task counts match an
// enumeration of the factorization loop, and the benchmark's own FP64
// likelihood agrees with the library's dense one. Exits 1 on any failure.
//
//   python3 e2ebench/run.py --selftest
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "reference.hpp"
#include "stats/field.hpp"

namespace {

using namespace e2e;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// `check` passes on the good input and fails on the perturbed one.
void pair(const std::string& what, const std::string& good,
          const std::string& bad) {
  expect(good.empty(), what + ": passes on the good input" +
                           (good.empty() ? "" : " (" + good + ")"));
  expect(!bad.empty(), what + ": fails on the perturbed input" +
                           (bad.empty() ? "" : " (" + bad + ")"));
}

double flip_lowest_bit(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

void test_checks() {
  const double ref = -429.598244393;
  const double tol = loglik_tolerance(400, 1e-9, ref);
  pair("loglik within tolerance", check_close("l", ref + 0.5 * tol, ref, tol),
       check_close("l", ref + 2.0 * tol, ref, tol));
  pair("loglik not finite", check_close("l", ref, ref, tol),
       check_close("l", std::nan(""), ref, tol));

  const std::vector<double> theta = {1.1, 0.08, 0.6};
  const std::vector<double> outside = {1.1, 0.0099, 0.6};
  pair("fit converged", check_fit("f", true, theta, 0.01, 2.0),
       check_fit("f", false, theta, 0.01, 2.0));
  pair("fit inside the box", check_fit("f", true, theta, 0.01, 2.0),
       check_fit("f", true, outside, 0.01, 2.0));
  pair("optimum not below truth", check_not_below_truth("f", ref, ref + tol, tol),
       check_not_below_truth("f", ref, ref + 2.0 * tol, tol));

  std::vector<double> server = theta;
  server[1] = flip_lowest_bit(server[1]);
  pair("server theta bitwise equal to serial", check_bitwise("t", theta, theta),
       check_bitwise("t", server, theta));

  pair("objective calls equal evaluations", check_count("c", 524, 524),
       check_count("c", 525, 524));

  auto counts = cholesky_task_counts(16);
  auto off = counts;
  off[3] -= 1;
  pair("task counts", check_task_counts(counts, 16), check_task_counts(off, 16));

  pair("busy <= threads x wall", check_busy(0.4, 4, 0.1),
       check_busy(0.401, 4, 0.1));
  pair("some tile below FP64", check_mixed(1), check_mixed(0));
  pair("peak <= budget + one tile", check_peak(49152 + 2048, 49152, 2048),
       check_peak(49152 + 2048 + 1, 49152, 2048));
  pair("demand faults <= uses", check_faults("f", 96, 96),
       check_faults("f", 97, 96));
}

/// The closed forms against the loop nest of the right-looking tile
/// Cholesky: POTRF(k); TRSM(m,k) for m > k; SYRK(m,k) for m > k;
/// GEMM(m,n,k) for k < n < m.
void test_closed_form_counts() {
  bool ok = true;
  for (std::uint64_t nt = 1; nt <= 24; ++nt) {
    std::array<std::uint64_t, 4> c{};
    for (std::uint64_t k = 0; k < nt; ++k) {
      ++c[0];
      for (std::uint64_t m = k + 1; m < nt; ++m) {
        ++c[1];
        ++c[2];
        for (std::uint64_t n = k + 1; n < m; ++n) ++c[3];
      }
    }
    ok &= c == cholesky_task_counts(nt);
  }
  expect(ok, "closed-form task counts match the loop nest for nt = 1..24");
}

/// The benchmark's reference against the library's dense FP64 likelihood:
/// two independent implementations of the same formula.
void test_reference() {
  using mpgeo::CovKind;
  mpgeo::Rng rng(7);
  const mpgeo::LocationSet locs = mpgeo::generate_locations(300, 2, rng);
  struct Case {
    const char* name;
    CovKind kind;
    std::vector<double> theta;
  };
  const std::vector<Case> cases = {
      {"sqexp", CovKind::SqExp, {1.0, 0.01}},
      {"matern nu=0.5", CovKind::Matern, {1.0, 0.1, 0.5}},
      {"matern nu=1.3", CovKind::Matern, {0.9, 0.05, 1.3}},
      {"powexp", CovKind::PowExp, {1.0, 0.1, 1.0}},
  };
  for (const Case& c : cases) {
    const mpgeo::Covariance cov(c.kind);
    const std::vector<double> z = mpgeo::sample_field(cov, locs, c.theta, rng);
    const double lib = mpgeo::exact_log_likelihood(cov, locs, c.theta, z, 1e-8);
    const double own = reference_loglik(c.kind, locs.coords, c.theta, z, 1e-8);
    const double tol = 1e-8 * std::max(1.0, std::abs(lib));
    expect(std::abs(own - lib) <= tol,
           std::string("reference loglik matches the library's dense one: ") +
               c.name);
  }
}

void test_percentile() {
  expect(percentile({4, 1, 3, 2}, 50) == 2.5 && percentile({1, 2, 3}, 100) == 3,
         "percentile interpolates between closest ranks");
}

}  // namespace

int main() {
  test_checks();
  test_closed_form_counts();
  test_reference();
  test_percentile();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS", g_failures);
  return g_failures ? 1 : 0;
}
