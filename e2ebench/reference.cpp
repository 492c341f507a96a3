#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace e2e {
namespace {

double covariance(mpgeo::CovKind kind, double h,
                  std::span<const double> theta) {
  const double sigma2 = theta[0];
  const double beta = theta[1];
  switch (kind) {
    case mpgeo::CovKind::SqExp:
      return sigma2 * std::exp(-h * h / beta);
    case mpgeo::CovKind::PowExp:
      return h == 0.0 ? sigma2 : sigma2 * std::exp(-std::pow(h / beta, theta[2]));
    case mpgeo::CovKind::Matern: {
      if (h == 0.0) return sigma2;
      const double nu = theta[2];
      const double r = h / beta;
      return sigma2 * std::pow(2.0, 1.0 - nu) / std::tgamma(nu) *
             std::pow(r, nu) * std::cyl_bessel_k(nu, r);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Four independent partial sums, so the compiler keeps the loop in
/// registers without reassociating one long chain.
double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

double reference_loglik(mpgeo::CovKind kind, std::span<const double> coords,
                        std::span<const double> theta,
                        std::span<const double> z, double nugget) {
  const std::size_t n = z.size();
  // Row-major lower triangle; row i holds L(i, 0..i).
  std::vector<double> l(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double dx = coords[2 * i] - coords[2 * j];
      const double dy = coords[2 * i + 1] - coords[2 * j + 1];
      l[i * n + j] = covariance(kind, std::sqrt(dx * dx + dy * dy), theta);
    }
    l[i * n + i] += nugget * theta[0];
  }
  // Cholesky–Crout by rows: L(i, j) = (A(i, j) - L(i, :j) . L(j, :j)) / L(j, j).
  double logdet = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double* li = &l[i * n];
    for (std::size_t j = 0; j < i; ++j) {
      li[j] = (li[j] - dot(li, &l[j * n], j)) / l[j * n + j];
    }
    const double d = li[i] - dot(li, li, i);
    if (!(d > 0.0)) return std::numeric_limits<double>::quiet_NaN();
    li[i] = std::sqrt(d);
    logdet += 2.0 * std::log(li[i]);
  }
  double quad = 0.0;
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (z[i] - dot(&l[i * n], y.data(), i)) / l[i * n + i];
    quad += y[i] * y[i];
  }
  const double log_2pi = std::log(2.0 * std::acos(-1.0));
  return -0.5 * double(n) * log_2pi - 0.5 * logdet - 0.5 * quad;
}

double loglik_tolerance(std::size_t n, double u_req, double reference) {
  return double(n) * u_req * std::max(1.0, std::abs(reference));
}

}  // namespace e2e
