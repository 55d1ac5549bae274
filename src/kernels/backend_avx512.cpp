// The AVX-512 table: backend_detail.h's entries compiled under
// __attribute__((target("avx512f"))), with register groups for blocks of
// 8 columns or more.  Same build and bitwise contract as the AVX2 table
// (backend_avx2.cpp).
#include "kernels/backend_detail.h"

#if defined(__x86_64__) || defined(__i386__)

namespace parsdd::kernels::detail {
namespace {
PARSDD_BACKEND_OPS(Avx512Ops, __attribute__((target("avx512f"))), true);
}  // namespace

bool avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
}

const Backend& avx512_backend() {
  static const Backend be{
      /*name=*/"avx512",
      /*level=*/SimdLevel::kAvx512,
      /*f64=*/block_ops<double, Avx512Ops>(),
      /*f32=*/block_ops<float, Avx512Ops>(),
  };
  return be;
}

}  // namespace parsdd::kernels::detail

#else  // non-x86: the scalar backend is the only implementation.

namespace parsdd::kernels::detail {
bool avx512_supported() { return false; }
const Backend& avx512_backend() { return scalar_backend(); }
}  // namespace parsdd::kernels::detail

#endif
