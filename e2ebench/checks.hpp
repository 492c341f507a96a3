// The benchmark's output checks, as pure functions of the values a run
// observed, so selftest.cpp can show each one failing on a perturbed input.
// Each returns "" on pass and a one-line reason on failure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace e2e {

/// |got - reference| <= tolerance, and both finite.
std::string check_close(const std::string& what, double got, double reference,
                        double tolerance);

/// A converged fit with every parameter inside [lo, hi].
std::string check_fit(const std::string& what, bool converged,
                      std::span<const double> theta, double lo, double hi);

/// The optimum is no worse than the generating parameters, up to tolerance:
/// l(theta_hat) >= l(theta_true) - tolerance (both exact FP64 values).
std::string check_not_below_truth(const std::string& what, double at_hat,
                                  double at_truth, double tolerance);

/// Same bits, element for element.
std::string check_bitwise(const std::string& what, std::span<const double> got,
                          std::span<const double> want);

std::string check_count(const std::string& what, std::uint64_t got,
                        std::uint64_t want);

/// POTRF, TRSM, SYRK, GEMM task counts of one right-looking tile Cholesky
/// over nt x nt tiles: nt, nt(nt-1)/2, nt(nt-1)/2, nt(nt-1)(nt-2)/6.
std::array<std::uint64_t, 4> cholesky_task_counts(std::uint64_t nt);
std::string check_task_counts(const std::array<std::uint64_t, 4>& got,
                              std::uint64_t nt);

/// Busy time summed over tasks cannot exceed threads x wall time.
std::string check_busy(double busy_seconds, std::size_t threads,
                       double wall_seconds);

/// At least one lower-triangle tile runs below FP64.
std::string check_mixed(std::uint64_t tiles_below_fp64);

/// Shared-pager peak residency <= budget + one tile of urgent-admission
/// slack.
std::string check_peak(std::uint64_t peak_bytes, std::uint64_t budget,
                       std::uint64_t tile_bytes);

/// Per-fit starvation bound of the shared pager: each managed access faults
/// at most once.
std::string check_faults(const std::string& what, std::uint64_t demand_faults,
                         std::uint64_t uses);

}  // namespace e2e
