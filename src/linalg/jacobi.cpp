#include "linalg/jacobi.h"

#include <stdexcept>

#include "parallel/primitives.h"

namespace parsdd {

BlockLinOp jacobi_preconditioner_block(const CsrMatrix& a) {
  Vec d = a.diagonal();
  for (double& v : d) {
    if (!(v > 0.0)) throw std::domain_error("jacobi: non-positive diagonal");
  }
  return [d](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    std::size_t k = in.cols();
    parallel_for(0, in.rows(), [&](std::size_t i) {
      const double* ir = in.row(i);
      double* orow = out.row(i);
      for (std::size_t c = 0; c < k; ++c) orow[c] = ir[c] / d[i];
    });
  };
}

}  // namespace parsdd
