#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace e2e {
namespace {

std::string fmt(const char* format, double a, double b, double c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

}  // namespace

std::string check_close(const std::string& what, double got, double reference,
                        double tolerance) {
  if (std::isfinite(got) && std::isfinite(reference) &&
      std::abs(got - reference) <= tolerance) {
    return "";
  }
  return what + fmt(": %.17g differs from reference %.17g by more than %.3g",
                    got, reference, tolerance);
}

std::string check_fit(const std::string& what, bool converged,
                      std::span<const double> theta, double lo, double hi) {
  if (!converged) return what + ": optimizer did not converge";
  for (double t : theta) {
    if (!(t >= lo && t <= hi)) {
      return what + fmt(": parameter %.17g outside [%g, %g]", t, lo, hi);
    }
  }
  return "";
}

std::string check_not_below_truth(const std::string& what, double at_hat,
                                  double at_truth, double tolerance) {
  if (std::isfinite(at_hat) && std::isfinite(at_truth) &&
      at_hat >= at_truth - tolerance) {
    return "";
  }
  return what + fmt(": exact loglik at the optimum %.17g is below the one at "
                    "the generating parameters %.17g by more than %.3g",
                    at_hat, at_truth, tolerance);
}

std::string check_bitwise(const std::string& what, std::span<const double> got,
                          std::span<const double> want) {
  if (got.size() == want.size() &&
      (got.empty() ||
       std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0)) {
    return "";
  }
  return what + ": not bitwise equal";
}

std::string check_count(const std::string& what, std::uint64_t got,
                        std::uint64_t want) {
  if (got == want) return "";
  return what + ": " + std::to_string(got) + " != " + std::to_string(want);
}

std::array<std::uint64_t, 4> cholesky_task_counts(std::uint64_t nt) {
  const std::uint64_t pairs = nt * (nt - 1) / 2;
  const std::uint64_t triples = nt >= 2 ? nt * (nt - 1) * (nt - 2) / 6 : 0;
  return {nt, pairs, pairs, triples};
}

std::string check_task_counts(const std::array<std::uint64_t, 4>& got,
                              std::uint64_t nt) {
  static const char* kinds[] = {"POTRF", "TRSM", "SYRK", "GEMM"};
  const auto want = cholesky_task_counts(nt);
  for (std::size_t i = 0; i < 4; ++i) {
    if (got[i] != want[i]) {
      return std::string(kinds[i]) + " tasks: " + std::to_string(got[i]) +
             " != closed form " + std::to_string(want[i]) + " for nt " +
             std::to_string(nt);
    }
  }
  return "";
}

std::string check_busy(double busy_seconds, std::size_t threads,
                       double wall_seconds) {
  // One microsecond of slack for the two clocks' rounding.
  if (busy_seconds <= double(threads) * wall_seconds + 1e-6) return "";
  return fmt("kernel busy %.6f s exceeds %.0f threads x wall %.6f s",
             busy_seconds, double(threads), wall_seconds);
}

std::string check_mixed(std::uint64_t tiles_below_fp64) {
  if (tiles_below_fp64 > 0) return "";
  return "precision map: no tile below FP64";
}

std::string check_peak(std::uint64_t peak_bytes, std::uint64_t budget,
                       std::uint64_t tile_bytes) {
  if (peak_bytes <= budget + tile_bytes) return "";
  return fmt("shared pager peak %.0f B exceeds budget %.0f B + one tile "
             "%.0f B",
             double(peak_bytes), double(budget), double(tile_bytes));
}

std::string check_faults(const std::string& what, std::uint64_t demand_faults,
                         std::uint64_t uses) {
  if (demand_faults <= uses) return "";
  return what + ": " + std::to_string(demand_faults) +
         " demand faults exceed " + std::to_string(uses) + " uses";
}

}  // namespace e2e
