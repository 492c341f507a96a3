// The benchmark's workloads. Each makes its inputs from the seed, times its
// operations for at least `seconds` in whole rounds, checks every output,
// and fills RunResult::values with the end-to-end metrics (and, on a traced
// run, the per-layer ones). See README.md for what each one measures.
#pragma once

#include "bench.hpp"

namespace e2e {

RunResult run_mle_fit(const RunConfig& cfg);
RunResult run_loglik(const RunConfig& cfg);
RunResult run_serve_open(const RunConfig& cfg);
RunResult run_serve_paged(const RunConfig& cfg);

}  // namespace e2e
