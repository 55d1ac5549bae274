// The scalar table: backend_detail.h's entries built for the baseline
// ISA, with the runtime-width loop for blocks wider than kNarrowMaxWidth.
// Always available.  Its loops are the reference IEEE sequence; the
// per-ISA tables compile the same entries, and test_kernels checks every
// table against plain per-column loops and through whole solves.
#include "kernels/backend_detail.h"

namespace parsdd::kernels::detail {
namespace {
PARSDD_BACKEND_OPS(ScalarOps, /*attrs=*/, /*kGrouped=*/false);
}  // namespace

const Backend& scalar_backend() {
  static const Backend be{
      /*name=*/"scalar",
      /*level=*/SimdLevel::kScalar,
      /*f64=*/block_ops<double, ScalarOps>(),
      /*f32=*/block_ops<float, ScalarOps>(),
  };
  return be;
}

}  // namespace parsdd::kernels::detail
