// Shared types for iterative solvers.
#pragma once

#include <cstdint>
#include <functional>

#include "linalg/multivec.h"
#include "linalg/vector_ops.h"

namespace parsdd {

/// A linear operator: out = Op(in).  Out is pre-sized by the caller.
using LinOp = std::function<void(const Vec&, Vec&)>;

/// A linear operator applied column-wise to a block of k vectors; the block
/// form lets implementations (SpMM, batched elimination folds) stream their
/// structure once for all k columns.  Generic over the element type like
/// BasicMultiVec; BlockLinOp is the double form.
template <typename T>
using BasicBlockLinOp =
    std::function<void(const BasicMultiVec<T>&, BasicMultiVec<T>&)>;
using BlockLinOp = BasicBlockLinOp<double>;

struct IterStats {
  std::uint32_t iterations = 0;
  /// ||b - A x|| / ||b|| at exit.
  double relative_residual = 0.0;
  bool converged = false;
};

/// Reusable iteration buffers for the block solvers.  A caller that solves
/// repeatedly (the recursive chain visits each level once per outer
/// iteration) passes the same scratch back in so steady-state solves do no
/// allocation; each concurrent solve owns its own scratch.
template <typename T>
struct BasicBlockScratch {
  BasicMultiVec<T> r, z, p, ap, r_prev;
  /// Per-column scalars of block CG and block Chebyshev (one entry per
  /// column).
  std::vector<T> minus_one, bnorm, rnorm, pap, rz, rz_next, num, alpha,
      neg_alpha, beta;
  ColMask alive;
};
using BlockScratch = BasicBlockScratch<double>;

}  // namespace parsdd
