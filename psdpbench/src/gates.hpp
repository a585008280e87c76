// Correctness gates: every certificate a job returns is re-checked through a
// code path independent of the solver's Taylor/sketch pipeline.
//
//   packing (dense or factorized): lower <= upper, x >= 0, sum(x) == lower,
//     and x feasible -- lambda_max(sum_i x_i A_i) <= 1 -- by a dense
//     Jacobi eigensolve of the assembled sum where the dimension allows
//     it, otherwise by power iteration on the factor operator;
//   covering: lower_bound <= objective, Y PSD, A_i . Y >= b_i.
#pragma once

#include <string>

#include "core/instance.hpp"
#include "core/optimize.hpp"

namespace psdpbench {

/// Empty string when the certificate holds, else what failed.
std::string check_packing(const psdp::core::FactorizedPackingInstance& instance,
                          const psdp::core::PackingOptimum& result);
std::string check_packing(const psdp::core::PackingInstance& instance,
                          const psdp::core::PackingOptimum& result);
std::string check_covering(const psdp::core::CoveringProblem& problem,
                           const psdp::core::CoveringOptimum& result);

/// The cheap part of the packing gate, applicable to every served payload:
/// 0 < lower <= upper.
std::string check_bracket(double lower, double upper);

}  // namespace psdpbench
