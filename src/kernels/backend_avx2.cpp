// The AVX2 table: backend_detail.h's entries compiled under
// __attribute__((target("avx2"))), with register groups for blocks of 8
// columns or more.  This file is built WITHOUT -mavx2, so it is safe to
// link into a binary that must still run on non-AVX hardware: the
// dispatcher (kernels.cpp) only takes this table after
// __builtin_cpu_supports("avx2") says yes.  The loops are the scalar
// table's, vectorized across independent columns by the compiler (plain
// mul/add/div; the library is built with -ffp-contract=off, so no FMA).
#include "kernels/backend_detail.h"

#if defined(__x86_64__) || defined(__i386__)

namespace parsdd::kernels::detail {
namespace {
PARSDD_BACKEND_OPS(Avx2Ops, __attribute__((target("avx2"))), true);
}  // namespace

bool avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

const Backend& avx2_backend() {
  static const Backend be{
      /*name=*/"avx2",
      /*level=*/SimdLevel::kAvx2,
      /*f64=*/block_ops<double, Avx2Ops>(),
      /*f32=*/block_ops<float, Avx2Ops>(),
  };
  return be;
}

}  // namespace parsdd::kernels::detail

#else  // non-x86: the scalar backend is the only implementation.

namespace parsdd::kernels::detail {
bool avx2_supported() { return false; }
const Backend& avx2_backend() { return scalar_backend(); }
}  // namespace parsdd::kernels::detail

#endif
