// AVX-512 backend (avx512f).  Same structure and bitwise contract as the
// AVX2 backend (see backend_avx2.cpp): function multiversioning via target
// attributes, vectors across independent columns only, plain mul/add/div
// (never FMA).  8 f64 lanes / 16 f32 lanes per register — a fold/backsub
// column chunk (kColChunk = 8) is exactly one f64 register.  Narrower
// blocks (k <= 7, every serving batch and every Vec kernel) run the
// compile-time-width loops of backend_detail.h, inlined here so they
// compile for AVX-512.
#include "kernels/backend_detail.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define PARSDD_TARGET_AVX512 __attribute__((target("avx512f")))

namespace parsdd::kernels::detail {
namespace {

// ---- column kernels f64 ----

PARSDD_TARGET_AVX512 void axpy_cols_avx512(const double* a, const double* x,
                                           double* y, std::size_t rows,
                                           std::size_t k) {
  if (run_narrow<AxpyCols<>>(k, a, x, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    double* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      __m512d vy = _mm512_loadu_pd(yr + c);
      vy = _mm512_add_pd(vy, _mm512_mul_pd(_mm512_loadu_pd(a + c),
                                           _mm512_loadu_pd(xr + c)));
      _mm512_storeu_pd(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] += a[c] * xr[c];
  }
}

PARSDD_TARGET_AVX512 void xpay_cols_avx512(const double* x, const double* a,
                                           double* y, std::size_t rows,
                                           std::size_t k) {
  if (run_narrow<XpayCols<>>(k, x, a, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    double* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      __m512d vy = _mm512_mul_pd(_mm512_loadu_pd(a + c),
                                 _mm512_loadu_pd(yr + c));
      vy = _mm512_add_pd(_mm512_loadu_pd(xr + c), vy);
      _mm512_storeu_pd(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] = xr[c] + a[c] * yr[c];
  }
}

PARSDD_TARGET_AVX512 void scale_cols_avx512(const double* a, double* x,
                                            std::size_t rows, std::size_t k) {
  if (run_narrow<ScaleCols<>>(k, a, x, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    double* xr = x + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      _mm512_storeu_pd(xr + c, _mm512_mul_pd(_mm512_loadu_pd(xr + c),
                                             _mm512_loadu_pd(a + c)));
    }
    for (; c < k; ++c) xr[c] *= a[c];
  }
}

PARSDD_TARGET_AVX512 void sub_cols_avx512(const double* m, double* x,
                                          std::size_t rows, std::size_t k) {
  if (run_narrow<SubCols<>>(k, m, x, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    double* xr = x + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      _mm512_storeu_pd(xr + c, _mm512_sub_pd(_mm512_loadu_pd(xr + c),
                                             _mm512_loadu_pd(m + c)));
    }
    for (; c < k; ++c) xr[c] -= m[c];
  }
}

PARSDD_TARGET_AVX512 PARSDD_LANE_REDUCTION void dot_cols_acc_avx512(
    const double* x, const double* y, std::size_t rows, std::size_t k,
    double* acc) {
  if (run_narrow<DotColsAcc>(k, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m512d vacc = _mm512_loadu_pd(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm512_add_pd(vacc, _mm512_mul_pd(_mm512_loadu_pd(x + r * k + c),
                                               _mm512_loadu_pd(y + r * k + c)));
    }
    _mm512_storeu_pd(acc + c, vacc);
  }
  for (; c < k; ++c) {
    double a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c] * y[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX512 PARSDD_LANE_REDUCTION void dot_diff_cols_acc_avx512(
    const double* z, const double* x, const double* y, std::size_t rows,
    std::size_t k, double* acc) {
  if (run_narrow<DotDiffColsAcc>(k, z, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m512d vacc = _mm512_loadu_pd(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      __m512d d = _mm512_sub_pd(_mm512_loadu_pd(x + r * k + c),
                                _mm512_loadu_pd(y + r * k + c));
      vacc = _mm512_add_pd(vacc,
                           _mm512_mul_pd(_mm512_loadu_pd(z + r * k + c), d));
    }
    _mm512_storeu_pd(acc + c, vacc);
  }
  for (; c < k; ++c) {
    double a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) {
      a0 += z[r * k + c] * (x[r * k + c] - y[r * k + c]);
    }
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX512 PARSDD_LANE_REDUCTION void sum_cols_acc_avx512(
    const double* x, std::size_t rows, std::size_t k, double* acc) {
  if (run_narrow<SumColsAcc>(k, x, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m512d vacc = _mm512_loadu_pd(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm512_add_pd(vacc, _mm512_loadu_pd(x + r * k + c));
    }
    _mm512_storeu_pd(acc + c, vacc);
  }
  for (; c < k; ++c) {
    double a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX512 void spmm_rows_avx512(const std::size_t* off,
                                           const std::uint32_t* col,
                                           const double* val, const double* x,
                                           double* y, std::size_t r0,
                                           std::size_t r1, std::size_t k) {
  if (run_narrow<SpmmRows>(k, off, col, val, x, y, r0, r1)) return;
  for (std::size_t i = r0; i < r1; ++i) {
    double* yr = y + i * k;
    std::size_t p0 = off[i], p1 = off[i + 1];
    std::size_t c = 0;
    for (; c + 16 <= k; c += 16) {
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      for (std::size_t p = p0; p < p1; ++p) {
        __m512d v = _mm512_set1_pd(val[p]);
        const double* xr = x + static_cast<std::size_t>(col[p]) * k + c;
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(v, _mm512_loadu_pd(xr)));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(v, _mm512_loadu_pd(xr + 8)));
      }
      _mm512_storeu_pd(yr + c, acc0);
      _mm512_storeu_pd(yr + c + 8, acc1);
    }
    for (; c + 8 <= k; c += 8) {
      __m512d acc0 = _mm512_setzero_pd();
      for (std::size_t p = p0; p < p1; ++p) {
        __m512d v = _mm512_set1_pd(val[p]);
        acc0 = _mm512_add_pd(
            acc0, _mm512_mul_pd(
                      v, _mm512_loadu_pd(
                             x + static_cast<std::size_t>(col[p]) * k + c)));
      }
      _mm512_storeu_pd(yr + c, acc0);
    }
    for (; c < k; ++c) {
      double acc = 0.0;
      for (std::size_t p = p0; p < p1; ++p) {
        acc += val[p] * x[static_cast<std::size_t>(col[p]) * k + c];
      }
      yr[c] = acc;
    }
  }
}

PARSDD_TARGET_AVX512 inline void fold_update_avx512(double f, const double* fv,
                                                    double* fu, std::size_t c0,
                                                    std::size_t c1) {
  __m512d vf = _mm512_set1_pd(f);
  std::size_t c = c0;
  for (; c + 8 <= c1; c += 8) {
    __m512d u = _mm512_loadu_pd(fu + c);
    u = _mm512_add_pd(u, _mm512_mul_pd(vf, _mm512_loadu_pd(fv + c)));
    _mm512_storeu_pd(fu + c, u);
  }
  for (; c < c1; ++c) fu[c] += f * fv[c];
}

PARSDD_TARGET_AVX512 void fold_cols_avx512(const ElimStep* steps,
                                           std::size_t nsteps, double* folded,
                                           std::size_t k, std::size_t c0,
                                           std::size_t c1) {
  if (run_narrow<FoldCols>(c1 - c0, steps, nsteps, folded + c0, k)) return;
  for (std::size_t s_idx = 0; s_idx < nsteps; ++s_idx) {
    const ElimStep& s = steps[s_idx];
    const double* fv = folded + static_cast<std::size_t>(s.v) * k;
    if (s.degree >= 1) {
      fold_update_avx512(s.w1 / s.pivot, fv,
                         folded + static_cast<std::size_t>(s.u1) * k, c0, c1);
    }
    if (s.degree == 2) {
      fold_update_avx512(s.w2 / s.pivot, fv,
                         folded + static_cast<std::size_t>(s.u2) * k, c0, c1);
    }
  }
}

PARSDD_TARGET_AVX512 void backsub_cols_avx512(const ElimStep* steps,
                                              std::size_t nsteps,
                                              const double* folded, double* x,
                                              std::size_t k, std::size_t c0,
                                              std::size_t c1) {
  if (run_narrow<BacksubCols>(c1 - c0, steps, nsteps, folded + c0, x + c0,
                              k)) {
    return;
  }
  for (std::size_t s_idx = nsteps; s_idx-- > 0;) {
    const ElimStep& s = steps[s_idx];
    double* xv = x + static_cast<std::size_t>(s.v) * k;
    const double* fb = folded + static_cast<std::size_t>(s.v) * k;
    if (s.degree == 0) {
      std::size_t c = c0;
      __m512d z = _mm512_setzero_pd();
      for (; c + 8 <= c1; c += 8) _mm512_storeu_pd(xv + c, z);
      for (; c < c1; ++c) xv[c] = 0.0;
    } else if (s.degree == 1) {
      const double* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      __m512d piv = _mm512_set1_pd(s.pivot);
      std::size_t c = c0;
      for (; c + 8 <= c1; c += 8) {
        __m512d t = _mm512_div_pd(_mm512_loadu_pd(fb + c), piv);
        _mm512_storeu_pd(xv + c, _mm512_add_pd(t, _mm512_loadu_pd(xu1 + c)));
      }
      for (; c < c1; ++c) xv[c] = fb[c] / s.pivot + xu1[c];
    } else {
      const double* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      const double* xu2 = x + static_cast<std::size_t>(s.u2) * k;
      __m512d piv = _mm512_set1_pd(s.pivot);
      __m512d w1 = _mm512_set1_pd(s.w1);
      __m512d w2 = _mm512_set1_pd(s.w2);
      std::size_t c = c0;
      for (; c + 8 <= c1; c += 8) {
        __m512d t = _mm512_add_pd(
            _mm512_loadu_pd(fb + c),
            _mm512_mul_pd(w1, _mm512_loadu_pd(xu1 + c)));
        t = _mm512_add_pd(t, _mm512_mul_pd(w2, _mm512_loadu_pd(xu2 + c)));
        _mm512_storeu_pd(xv + c, _mm512_div_pd(t, piv));
      }
      for (; c < c1; ++c) {
        xv[c] = (fb[c] + s.w1 * xu1[c] + s.w2 * xu2[c]) / s.pivot;
      }
    }
  }
}

// ---- f32 op table (16 lanes) ----

PARSDD_TARGET_AVX512 void axpy_cols_avx512_f32(const float* a, const float* x,
                                               float* y, std::size_t rows,
                                               std::size_t k) {
  if (run_narrow<AxpyCols<>>(k, a, x, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    float* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 16 <= k; c += 16) {
      __m512 vy = _mm512_loadu_ps(yr + c);
      vy = _mm512_add_ps(vy, _mm512_mul_ps(_mm512_loadu_ps(a + c),
                                           _mm512_loadu_ps(xr + c)));
      _mm512_storeu_ps(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] += a[c] * xr[c];
  }
}

PARSDD_TARGET_AVX512 void xpay_cols_avx512_f32(const float* x, const float* a,
                                               float* y, std::size_t rows,
                                               std::size_t k) {
  if (run_narrow<XpayCols<>>(k, x, a, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    float* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 16 <= k; c += 16) {
      __m512 vy = _mm512_mul_ps(_mm512_loadu_ps(a + c),
                                _mm512_loadu_ps(yr + c));
      vy = _mm512_add_ps(_mm512_loadu_ps(xr + c), vy);
      _mm512_storeu_ps(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] = xr[c] + a[c] * yr[c];
  }
}

PARSDD_TARGET_AVX512 void scale_cols_avx512_f32(const float* a, float* x,
                                                std::size_t rows,
                                                std::size_t k) {
  run_any_width<ScaleCols<>>(k, a, x, rows);
}

PARSDD_TARGET_AVX512 void sub_cols_avx512_f32(const float* m, float* x,
                                              std::size_t rows,
                                              std::size_t k) {
  if (run_narrow<SubCols<>>(k, m, x, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    float* xr = x + r * k;
    std::size_t c = 0;
    for (; c + 16 <= k; c += 16) {
      _mm512_storeu_ps(xr + c, _mm512_sub_ps(_mm512_loadu_ps(xr + c),
                                             _mm512_loadu_ps(m + c)));
    }
    for (; c < k; ++c) xr[c] -= m[c];
  }
}

PARSDD_TARGET_AVX512 PARSDD_LANE_REDUCTION void dot_cols_acc_avx512_f32(
    const float* x, const float* y, std::size_t rows, std::size_t k,
    float* acc) {
  if (run_narrow<DotColsAcc>(k, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 16 <= k; c += 16) {
    __m512 vacc = _mm512_loadu_ps(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm512_add_ps(vacc, _mm512_mul_ps(_mm512_loadu_ps(x + r * k + c),
                                               _mm512_loadu_ps(y + r * k + c)));
    }
    _mm512_storeu_ps(acc + c, vacc);
  }
  for (; c < k; ++c) {
    float a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c] * y[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX512 PARSDD_LANE_REDUCTION void dot_diff_cols_acc_avx512_f32(
    const float* z, const float* x, const float* y, std::size_t rows,
    std::size_t k, float* acc) {
  if (run_narrow<DotDiffColsAcc>(k, z, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 16 <= k; c += 16) {
    __m512 vacc = _mm512_loadu_ps(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      __m512 d = _mm512_sub_ps(_mm512_loadu_ps(x + r * k + c),
                               _mm512_loadu_ps(y + r * k + c));
      vacc = _mm512_add_ps(vacc,
                           _mm512_mul_ps(_mm512_loadu_ps(z + r * k + c), d));
    }
    _mm512_storeu_ps(acc + c, vacc);
  }
  for (; c < k; ++c) {
    float a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) {
      a0 += z[r * k + c] * (x[r * k + c] - y[r * k + c]);
    }
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX512 PARSDD_LANE_REDUCTION void sum_cols_acc_avx512_f32(
    const float* x, std::size_t rows, std::size_t k, float* acc) {
  if (run_narrow<SumColsAcc>(k, x, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 16 <= k; c += 16) {
    __m512 vacc = _mm512_loadu_ps(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm512_add_ps(vacc, _mm512_loadu_ps(x + r * k + c));
    }
    _mm512_storeu_ps(acc + c, vacc);
  }
  for (; c < k; ++c) {
    float a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX512 void spmm_rows_avx512_f32(const std::size_t* off,
                                               const std::uint32_t* col,
                                               const float* val,
                                               const float* x, float* y,
                                               std::size_t r0, std::size_t r1,
                                               std::size_t k) {
  if (run_narrow<SpmmRows>(k, off, col, val, x, y, r0, r1)) return;
  for (std::size_t i = r0; i < r1; ++i) {
    float* yr = y + i * k;
    std::size_t p0 = off[i], p1 = off[i + 1];
    std::size_t c = 0;
    for (; c + 16 <= k; c += 16) {
      __m512 acc0 = _mm512_setzero_ps();
      for (std::size_t p = p0; p < p1; ++p) {
        __m512 v = _mm512_set1_ps(val[p]);
        acc0 = _mm512_add_ps(
            acc0, _mm512_mul_ps(
                      v, _mm512_loadu_ps(
                             x + static_cast<std::size_t>(col[p]) * k + c)));
      }
      _mm512_storeu_ps(yr + c, acc0);
    }
    for (; c < k; ++c) {
      float acc = 0.0f;
      for (std::size_t p = p0; p < p1; ++p) {
        acc += val[p] * x[static_cast<std::size_t>(col[p]) * k + c];
      }
      yr[c] = acc;
    }
  }
}

// Fold/backsub chunks are at most 8 columns wide (kColChunk), under the
// 16-lane f32 register: the portable loops, compiled for this ISA, cover
// every width.
PARSDD_TARGET_AVX512 void fold_cols_avx512_f32(const ElimStep* steps,
                                               std::size_t nsteps,
                                               float* folded, std::size_t k,
                                               std::size_t c0,
                                               std::size_t c1) {
  run_any_width<FoldCols>(c1 - c0, steps, nsteps, folded + c0, k);
}

PARSDD_TARGET_AVX512 void backsub_cols_avx512_f32(const ElimStep* steps,
                                                  std::size_t nsteps,
                                                  const float* folded,
                                                  float* x, std::size_t k,
                                                  std::size_t c0,
                                                  std::size_t c1) {
  run_any_width<BacksubCols>(c1 - c0, steps, nsteps, folded + c0, x + c0, k);
}

}  // namespace

bool avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0;
}

const Backend& avx512_backend() {
  static const Backend be{
      /*name=*/"avx512",
      /*level=*/SimdLevel::kAvx512,
      /*f64=*/{
          /*axpy_cols=*/&axpy_cols_avx512,
          /*xpay_cols=*/&xpay_cols_avx512,
          /*scale_cols=*/&scale_cols_avx512,
          /*copy_cols=*/&copy_cols_t<double>,
          /*sub_cols=*/&sub_cols_avx512,
          /*dot_cols_acc=*/&dot_cols_acc_avx512,
          /*dot_diff_cols_acc=*/&dot_diff_cols_acc_avx512,
          /*sum_cols_acc=*/&sum_cols_acc_avx512,
          /*spmm_rows=*/&spmm_rows_avx512,
          /*fold_cols=*/&fold_cols_avx512,
          /*backsub_cols=*/&backsub_cols_avx512,
      },
      /*f32=*/{
          /*axpy_cols=*/&axpy_cols_avx512_f32,
          /*xpay_cols=*/&xpay_cols_avx512_f32,
          /*scale_cols=*/&scale_cols_avx512_f32,
          /*copy_cols=*/&copy_cols_t<float>,
          /*sub_cols=*/&sub_cols_avx512_f32,
          /*dot_cols_acc=*/&dot_cols_acc_avx512_f32,
          /*dot_diff_cols_acc=*/&dot_diff_cols_acc_avx512_f32,
          /*sum_cols_acc=*/&sum_cols_acc_avx512_f32,
          /*spmm_rows=*/&spmm_rows_avx512_f32,
          /*fold_cols=*/&fold_cols_avx512_f32,
          /*backsub_cols=*/&backsub_cols_avx512_f32,
      },
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
