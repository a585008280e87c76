// Dense matrix exponential, two independent implementations:
//
//  * expm_eig:  exact for symmetric input, via the sym_eig decomposition.
//    This is the reference the solvers' dense path uses (the paper's
//    "compute exp(Phi)" primitive) and what tests compare against.
//  * expm_pade: scaling-and-squaring with a [6/6] diagonal Pade
//    approximant. Works for any square matrix; cross-validates expm_eig.
//
// The *nearly-linear-work* exponential of Theorem 4.1 never forms exp(Phi);
// see taylor.hpp and core/bigdotexp.hpp.
#pragma once

#include "linalg/eig.hpp"
#include "linalg/matrix.hpp"

namespace psdp::linalg {

/// exp(A) for symmetric A via eigendecomposition.
Matrix expm_eig(const Matrix& a);

/// exp(A) from a precomputed eigendecomposition (lets callers reuse the
/// decomposition for both exp(A) and exp(A/2)).
Matrix expm_from_eig(const EigResult& eig, Real scale = 1);

/// exp(A) via [6/6] Pade with scaling and squaring.
Matrix expm_pade(const Matrix& a);

}  // namespace psdp::linalg
