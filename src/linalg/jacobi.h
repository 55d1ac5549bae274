// The Jacobi (diagonal) preconditioner — the simplest classical baseline
// preconditioner (Jacobi-PCG, E8 bench).
#pragma once

#include "linalg/csr_matrix.h"
#include "linalg/iterative.h"

namespace parsdd {

/// The diagonal (Jacobi) preconditioner of A: scales every column of the
/// block by the inverse diagonal (A's diagonal must be positive).
BlockLinOp jacobi_preconditioner_block(const CsrMatrix& a);

}  // namespace parsdd
