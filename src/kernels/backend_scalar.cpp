// The portable backend: the reference operation sequence, built entirely
// from the templates in backend_detail.h.  Always available; the AVX
// backends must match it bit-for-bit (test_kernels enforces this through
// whole solves).
#include "kernels/backend_detail.h"

namespace parsdd::kernels::detail {

const Backend& scalar_backend() {
  static const Backend be{
      /*name=*/"scalar",
      /*level=*/SimdLevel::kScalar,
      /*f64=*/scalar_block_ops<double>(),
      /*f32=*/scalar_block_ops<float>(),
  };
  return be;
}

}  // namespace parsdd::kernels::detail
