// The benchmark's own dense FP64 Gaussian log-likelihood, computed apart
// from the library: its own covariance formulas (Matérn through
// std::cyl_bessel_k), its own Cholesky and its own triangular solve. The
// library's outputs are checked against this, never against themselves.
#pragma once

#include <span>
#include <vector>

#include "stats/covariance.hpp"

namespace e2e {

/// l(theta) = -n/2 log(2 pi) - 1/2 log|Sigma| - 1/2 z^T Sigma^{-1} z with
/// Sigma_ij = C(||s_i - s_j||; theta) + nugget * sigma2 * [i == j], over
/// 2D coordinates (x0, y0, x1, y1, ...). Returns NaN when Sigma is not
/// numerically positive definite.
double reference_loglik(mpgeo::CovKind kind, std::span<const double> coords,
                        std::span<const double> theta,
                        std::span<const double> z, double nugget);

/// Tolerance of a mixed-precision log-likelihood against the FP64 value:
/// the Higham–Mary rule bounds the backward error of the factorization by
/// u_req * ||Sigma||, and the log-determinant and quadratic form gather it
/// over n pivots, so |l_mp - l| <= n * u_req * max(1, |l|).
double loglik_tolerance(std::size_t n, double u_req, double reference);

}  // namespace e2e
