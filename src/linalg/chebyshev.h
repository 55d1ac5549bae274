// Preconditioned Chebyshev iteration.
//
// The paper's recursive solver (Section 6, Lemma 6.7) is "preconditioned
// Chebyshev": at chain level i it runs a degree-√κᵢ Chebyshev polynomial in
// B⁺A, where the preconditioner solve B⁺ is realized recursively.  Chebyshev
// needs explicit spectral bounds [lmin, lmax] on the preconditioned operator
// — exactly the Aᵢ ≼ Bᵢ ≼ κᵢAᵢ guarantee of Definition 6.3.
#pragma once

#include <type_traits>

#include "linalg/iterative.h"

namespace parsdd {

struct ChebyshevOptions {
  /// Lower/upper bounds on the spectrum of precond∘A (restricted to the
  /// image).  For a chain level with A ≼ B ≼ κA these are 1/κ and 1.
  double lambda_min = 0.0;
  double lambda_max = 1.0;
  std::uint32_t iterations = 10;
  bool project_constant = false;
};

/// Runs `iterations` preconditioned Chebyshev steps on A X = B for k
/// columns, updating X; a null `precond` is the identity.  The recurrence
/// scalars depend only on the spectral bounds, so all columns share them and
/// every step is one SpMM plus one block preconditioner application; column
/// c reproduces a k = 1 run on B[:,c] exactly (columns with a zero RHS stay
/// at their initial value, which callers set to zero).  Instantiated for
/// double and float; the scalars are computed in double and rounded to T.
template <typename T>
std::vector<IterStats> chebyshev_block(
    const std::type_identity_t<BasicBlockLinOp<T>>& a,
    const BasicMultiVec<T>& b, BasicMultiVec<T>& x,
    const ChebyshevOptions& opts,
    const std::type_identity_t<BasicBlockLinOp<T>>* precond = nullptr,
    std::type_identity_t<BasicBlockScratch<T>>* scratch = nullptr);

}  // namespace parsdd
