#include "gates.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eig.hpp"
#include "linalg/power.hpp"
#include "util/common.hpp"

namespace psdpbench {

using psdp::Index;
using psdp::Real;
using psdp::str;

namespace {

/// Feasibility slack: the solvers rescale by a certified (inflated) upper
/// bound on lambda_max, so an exact check sits at or below 1; the power
/// iteration converges from below and gets the same slack.
constexpr Real kFeasibleSlack = 1e-6;

/// Largest dimension checked by a dense Jacobi eigensolve (cubic cost per
/// sweep); above it, power iteration on the implicit sum checks feasibility.
constexpr Index kDenseCheckMaxDim = 64;

std::string check_weights(const psdp::linalg::Vector& x, Real lower,
                          Index n) {
  if (x.size() != n) {
    return str("best_x has ", x.size(), " entries for ", n, " constraints");
  }
  Real total = 0;
  for (Index i = 0; i < n; ++i) {
    if (!(x[i] >= 0) || !std::isfinite(x[i])) {
      return str("best_x[", i, "] = ", x[i], " is not a finite weight >= 0");
    }
    total += x[i];
  }
  if (std::abs(total - lower) > 1e-9 * std::max<Real>(1, lower)) {
    return str("sum(best_x) = ", total, " but lower = ", lower);
  }
  return "";
}

std::string check_lambda(Real lambda) {
  if (!(lambda <= 1 + kFeasibleSlack)) {
    return str("best_x infeasible: lambda_max(sum x_i A_i) = ", lambda);
  }
  return "";
}

}  // namespace

std::string check_bracket(double lower, double upper) {
  if (!(lower > 0) || !(upper >= lower * (1 - 1e-12)) ||
      !std::isfinite(upper)) {
    return str("bad bracket [", lower, ", ", upper, "]");
  }
  return "";
}

std::string check_packing(const psdp::core::FactorizedPackingInstance& instance,
                          const psdp::core::PackingOptimum& result) {
  if (std::string why = check_bracket(result.lower, result.upper); !why.empty())
    return why;
  const psdp::linalg::Vector& x = result.best_x;
  if (std::string why = check_weights(x, result.lower, instance.size());
      !why.empty())
    return why;
  const Index dim = instance.dim();
  Real lambda = 0;
  if (dim <= kDenseCheckMaxDim) {
    psdp::linalg::Matrix total(dim, dim);
    for (Index i = 0; i < instance.size(); ++i) {
      if (x[i] == 0) continue;
      total.add_scaled(instance.set()[i].to_dense(), x[i]);
    }
    lambda = psdp::linalg::lambda_max_exact(total);
  } else {
    const psdp::sparse::FactorizedSet& set = instance.set();
    const psdp::linalg::SymmetricOp op = [&](const psdp::linalg::Vector& v,
                                             psdp::linalg::Vector& y) {
      set.weighted_apply(x, v, y);
    };
    psdp::linalg::PowerOptions options;
    options.max_iterations = 20000;
    options.tol = 1e-9;
    const psdp::linalg::PowerResult power =
        psdp::linalg::power_iteration(op, dim, options);
    // An unconverged estimate is low (the Rayleigh quotient rises towards
    // lambda_max), so it could pass an infeasible x: fail the gate instead.
    if (!power.converged) {
      return str("feasibility check did not converge in ", power.iterations,
                 " power iterations (lambda_max >= ", power.lambda_max, ")");
    }
    lambda = power.lambda_max;
  }
  return check_lambda(lambda);
}

std::string check_packing(const psdp::core::PackingInstance& instance,
                          const psdp::core::PackingOptimum& result) {
  if (std::string why = check_bracket(result.lower, result.upper); !why.empty())
    return why;
  const psdp::linalg::Vector& x = result.best_x;
  if (std::string why = check_weights(x, result.lower, instance.size());
      !why.empty())
    return why;
  psdp::linalg::Matrix total(instance.dim(), instance.dim());
  for (Index i = 0; i < instance.size(); ++i) {
    if (x[i] != 0) total.add_scaled(instance[i], x[i]);
  }
  return check_lambda(psdp::linalg::lambda_max_exact(total));
}

std::string check_covering(const psdp::core::CoveringProblem& problem,
                           const psdp::core::CoveringOptimum& result) {
  if (!(result.lower_bound > 0) ||
      !(result.objective >= result.lower_bound * (1 - 1e-9)) ||
      !std::isfinite(result.objective)) {
    return str("bad covering bracket [", result.lower_bound, ", ",
               result.objective, "]");
  }
  const psdp::linalg::Matrix& y = result.y;
  if (y.rows() != problem.dim() || y.cols() != problem.dim()) {
    return "covering Y has the wrong shape";
  }
  psdp::linalg::Matrix negated = y;
  negated.scale(-1);
  const Real most_negative = psdp::linalg::lambda_max_exact(negated);
  if (most_negative > 1e-9 * std::max<Real>(1, psdp::linalg::trace(y))) {
    return str("covering Y not PSD: lambda_min = ", -most_negative);
  }
  for (Index i = 0; i < problem.size(); ++i) {
    const Real dot = psdp::linalg::frobenius_dot(problem.constraints[i], y);
    if (dot < problem.rhs[i] * (1 - 1e-6)) {
      return str("covering constraint ", i, " violated: A_i . Y = ", dot,
                 " < b_i = ", problem.rhs[i]);
    }
  }
  const Real objective = psdp::linalg::frobenius_dot(problem.objective, y);
  if (std::abs(objective - result.objective) >
      1e-6 * std::max<Real>(1, std::abs(result.objective))) {
    return str("covering objective ", result.objective, " but C . Y = ",
               objective);
  }
  return "";
}

}  // namespace psdpbench
