// AVX2 backend.  Compiled WITHOUT -mavx2: every vector function carries
// __attribute__((target("avx2"))) (function multiversioning), so this TU is
// safe to link into a binary that must still run on non-AVX hardware — the
// dispatcher (kernels.cpp) only takes these pointers after
// __builtin_cpu_supports("avx2") says yes.
//
// Bitwise contract: vectors run ACROSS the k independent columns; each lane
// executes the exact scalar operation sequence with plain mul/add/div —
// never FMA, never a reassociated horizontal reduction.  Plain copies reuse
// the scalar templates.  Blocks narrower than 8 columns (every serving
// batch, and every Vec kernel at k = 1) run the compile-time-width loops of
// backend_detail.h, inlined here so they compile for AVX2; the intrinsics
// below handle 8 columns and up.
#include "kernels/backend_detail.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define PARSDD_TARGET_AVX2 __attribute__((target("avx2")))

namespace parsdd::kernels::detail {
namespace {

// ---- column kernels f64 (vector across columns within each row) ----

PARSDD_TARGET_AVX2 void axpy_cols_avx2(const double* a, const double* x,
                                       double* y, std::size_t rows,
                                       std::size_t k) {
  if (run_narrow<AxpyCols<>>(k, a, x, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    double* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      __m256d vy = _mm256_loadu_pd(yr + c);
      vy = _mm256_add_pd(vy, _mm256_mul_pd(_mm256_loadu_pd(a + c),
                                           _mm256_loadu_pd(xr + c)));
      _mm256_storeu_pd(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] += a[c] * xr[c];
  }
}

PARSDD_TARGET_AVX2 void xpay_cols_avx2(const double* x, const double* a,
                                       double* y, std::size_t rows,
                                       std::size_t k) {
  if (run_narrow<XpayCols<>>(k, x, a, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    double* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      __m256d vy = _mm256_mul_pd(_mm256_loadu_pd(a + c),
                                 _mm256_loadu_pd(yr + c));
      vy = _mm256_add_pd(_mm256_loadu_pd(xr + c), vy);
      _mm256_storeu_pd(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] = xr[c] + a[c] * yr[c];
  }
}

PARSDD_TARGET_AVX2 void scale_cols_avx2(const double* a, double* x,
                                        std::size_t rows, std::size_t k) {
  if (run_narrow<ScaleCols<>>(k, a, x, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    double* xr = x + r * k;
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      _mm256_storeu_pd(xr + c, _mm256_mul_pd(_mm256_loadu_pd(xr + c),
                                             _mm256_loadu_pd(a + c)));
    }
    for (; c < k; ++c) xr[c] *= a[c];
  }
}

PARSDD_TARGET_AVX2 void sub_cols_avx2(const double* m, double* x,
                                      std::size_t rows, std::size_t k) {
  if (run_narrow<SubCols<>>(k, m, x, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    double* xr = x + r * k;
    std::size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      _mm256_storeu_pd(xr + c, _mm256_sub_pd(_mm256_loadu_pd(xr + c),
                                             _mm256_loadu_pd(m + c)));
    }
    for (; c < k; ++c) xr[c] -= m[c];
  }
}

// Reductions hold a register of column accumulators across the whole row
// range (k-dimension blocking): each column still accumulates rows in
// increasing order, so lane c is bit-identical to the scalar chain.

PARSDD_TARGET_AVX2 PARSDD_LANE_REDUCTION void dot_cols_acc_avx2(
    const double* x, const double* y, std::size_t rows, std::size_t k,
    double* acc) {
  if (run_narrow<DotColsAcc>(k, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256d vacc = _mm256_loadu_pd(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm256_add_pd(vacc, _mm256_mul_pd(_mm256_loadu_pd(x + r * k + c),
                                               _mm256_loadu_pd(y + r * k + c)));
    }
    _mm256_storeu_pd(acc + c, vacc);
  }
  for (; c < k; ++c) {
    double a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c] * y[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX2 PARSDD_LANE_REDUCTION void dot_diff_cols_acc_avx2(
    const double* z, const double* x, const double* y, std::size_t rows,
    std::size_t k, double* acc) {
  if (run_narrow<DotDiffColsAcc>(k, z, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256d vacc = _mm256_loadu_pd(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + r * k + c),
                                _mm256_loadu_pd(y + r * k + c));
      vacc = _mm256_add_pd(vacc,
                           _mm256_mul_pd(_mm256_loadu_pd(z + r * k + c), d));
    }
    _mm256_storeu_pd(acc + c, vacc);
  }
  for (; c < k; ++c) {
    double a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) {
      a0 += z[r * k + c] * (x[r * k + c] - y[r * k + c]);
    }
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX2 PARSDD_LANE_REDUCTION void sum_cols_acc_avx2(
    const double* x, std::size_t rows, std::size_t k, double* acc) {
  if (run_narrow<SumColsAcc>(k, x, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    __m256d vacc = _mm256_loadu_pd(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm256_add_pd(vacc, _mm256_loadu_pd(x + r * k + c));
    }
    _mm256_storeu_pd(acc + c, vacc);
  }
  for (; c < k; ++c) {
    double a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c];
    acc[c] = a0;
  }
}

// ---- CSR SpMM: per row, column-chunked accumulators live in registers
//      across the nonzero walk (8-wide, then 4-wide, then scalar tail) ----

PARSDD_TARGET_AVX2 void spmm_rows_avx2(const std::size_t* off,
                                       const std::uint32_t* col,
                                       const double* val, const double* x,
                                       double* y, std::size_t r0,
                                       std::size_t r1, std::size_t k) {
  if (run_narrow<SpmmRows>(k, off, col, val, x, y, r0, r1)) return;
  for (std::size_t i = r0; i < r1; ++i) {
    double* yr = y + i * k;
    std::size_t p0 = off[i], p1 = off[i + 1];
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (std::size_t p = p0; p < p1; ++p) {
        __m256d v = _mm256_set1_pd(val[p]);
        const double* xr = x + static_cast<std::size_t>(col[p]) * k + c;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v, _mm256_loadu_pd(xr)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v, _mm256_loadu_pd(xr + 4)));
      }
      _mm256_storeu_pd(yr + c, acc0);
      _mm256_storeu_pd(yr + c + 4, acc1);
    }
    for (; c + 4 <= k; c += 4) {
      __m256d acc0 = _mm256_setzero_pd();
      for (std::size_t p = p0; p < p1; ++p) {
        __m256d v = _mm256_set1_pd(val[p]);
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(
                      v, _mm256_loadu_pd(
                             x + static_cast<std::size_t>(col[p]) * k + c)));
      }
      _mm256_storeu_pd(yr + c, acc0);
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

// ---- elimination fold / back-substitution over columns [c0, c1) ----

PARSDD_TARGET_AVX2 inline void fold_update_avx2(double f, const double* fv,
                                                double* fu, std::size_t c0,
                                                std::size_t c1) {
  __m256d vf = _mm256_set1_pd(f);
  std::size_t c = c0;
  for (; c + 4 <= c1; c += 4) {
    __m256d u = _mm256_loadu_pd(fu + c);
    u = _mm256_add_pd(u, _mm256_mul_pd(vf, _mm256_loadu_pd(fv + c)));
    _mm256_storeu_pd(fu + c, u);
  }
  for (; c < c1; ++c) fu[c] += f * fv[c];
}

PARSDD_TARGET_AVX2 void fold_cols_avx2(const ElimStep* steps,
                                       std::size_t nsteps, double* folded,
                                       std::size_t k, std::size_t c0,
                                       std::size_t c1) {
  if (run_narrow<FoldCols>(c1 - c0, steps, nsteps, folded + c0, k)) return;
  for (std::size_t s_idx = 0; s_idx < nsteps; ++s_idx) {
    const ElimStep& s = steps[s_idx];
    const double* fv = folded + static_cast<std::size_t>(s.v) * k;
    if (s.degree >= 1) {
      fold_update_avx2(s.w1 / s.pivot, fv,
                       folded + static_cast<std::size_t>(s.u1) * k, c0, c1);
    }
    if (s.degree == 2) {
      fold_update_avx2(s.w2 / s.pivot, fv,
                       folded + static_cast<std::size_t>(s.u2) * k, c0, c1);
    }
  }
}

PARSDD_TARGET_AVX2 void backsub_cols_avx2(const ElimStep* steps,
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
      __m256d z = _mm256_setzero_pd();
      for (; c + 4 <= c1; c += 4) _mm256_storeu_pd(xv + c, z);
      for (; c < c1; ++c) xv[c] = 0.0;
    } else if (s.degree == 1) {
      const double* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      __m256d piv = _mm256_set1_pd(s.pivot);
      std::size_t c = c0;
      for (; c + 4 <= c1; c += 4) {
        __m256d t = _mm256_div_pd(_mm256_loadu_pd(fb + c), piv);
        _mm256_storeu_pd(xv + c, _mm256_add_pd(t, _mm256_loadu_pd(xu1 + c)));
      }
      for (; c < c1; ++c) xv[c] = fb[c] / s.pivot + xu1[c];
    } else {
      const double* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      const double* xu2 = x + static_cast<std::size_t>(s.u2) * k;
      __m256d piv = _mm256_set1_pd(s.pivot);
      __m256d w1 = _mm256_set1_pd(s.w1);
      __m256d w2 = _mm256_set1_pd(s.w2);
      std::size_t c = c0;
      for (; c + 4 <= c1; c += 4) {
        __m256d t = _mm256_add_pd(
            _mm256_loadu_pd(fb + c),
            _mm256_mul_pd(w1, _mm256_loadu_pd(xu1 + c)));
        t = _mm256_add_pd(t, _mm256_mul_pd(w2, _mm256_loadu_pd(xu2 + c)));
        _mm256_storeu_pd(xv + c, _mm256_div_pd(t, piv));
      }
      for (; c < c1; ++c) {
        xv[c] = (fb[c] + s.w1 * xu1[c] + s.w2 * xu2[c]) / s.pivot;
      }
    }
  }
}

// ---- f32 op table (8 lanes; the mixed-precision chain has no bitwise
//      contract, but the lane-wise structure is kept identical anyway) ----

PARSDD_TARGET_AVX2 void axpy_cols_avx2_f32(const float* a, const float* x,
                                           float* y, std::size_t rows,
                                           std::size_t k) {
  if (run_narrow<AxpyCols<>>(k, a, x, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    float* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      __m256 vy = _mm256_loadu_ps(yr + c);
      vy = _mm256_add_ps(vy, _mm256_mul_ps(_mm256_loadu_ps(a + c),
                                           _mm256_loadu_ps(xr + c)));
      _mm256_storeu_ps(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] += a[c] * xr[c];
  }
}

PARSDD_TARGET_AVX2 void xpay_cols_avx2_f32(const float* x, const float* a,
                                           float* y, std::size_t rows,
                                           std::size_t k) {
  if (run_narrow<XpayCols<>>(k, x, a, y, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    float* yr = y + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      __m256 vy = _mm256_mul_ps(_mm256_loadu_ps(a + c),
                                _mm256_loadu_ps(yr + c));
      vy = _mm256_add_ps(_mm256_loadu_ps(xr + c), vy);
      _mm256_storeu_ps(yr + c, vy);
    }
    for (; c < k; ++c) yr[c] = xr[c] + a[c] * yr[c];
  }
}

PARSDD_TARGET_AVX2 void scale_cols_avx2_f32(const float* a, float* x,
                                            std::size_t rows, std::size_t k) {
  run_any_width<ScaleCols<>>(k, a, x, rows);
}

PARSDD_TARGET_AVX2 void sub_cols_avx2_f32(const float* m, float* x,
                                          std::size_t rows, std::size_t k) {
  if (run_narrow<SubCols<>>(k, m, x, rows)) return;
  for (std::size_t r = 0; r < rows; ++r) {
    float* xr = x + r * k;
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      _mm256_storeu_ps(xr + c, _mm256_sub_ps(_mm256_loadu_ps(xr + c),
                                             _mm256_loadu_ps(m + c)));
    }
    for (; c < k; ++c) xr[c] -= m[c];
  }
}

PARSDD_TARGET_AVX2 PARSDD_LANE_REDUCTION void dot_cols_acc_avx2_f32(
    const float* x, const float* y, std::size_t rows, std::size_t k,
    float* acc) {
  if (run_narrow<DotColsAcc>(k, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m256 vacc = _mm256_loadu_ps(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm256_add_ps(vacc, _mm256_mul_ps(_mm256_loadu_ps(x + r * k + c),
                                               _mm256_loadu_ps(y + r * k + c)));
    }
    _mm256_storeu_ps(acc + c, vacc);
  }
  for (; c < k; ++c) {
    float a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c] * y[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX2 PARSDD_LANE_REDUCTION void dot_diff_cols_acc_avx2_f32(
    const float* z, const float* x, const float* y, std::size_t rows,
    std::size_t k, float* acc) {
  if (run_narrow<DotDiffColsAcc>(k, z, x, y, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m256 vacc = _mm256_loadu_ps(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      __m256 d = _mm256_sub_ps(_mm256_loadu_ps(x + r * k + c),
                               _mm256_loadu_ps(y + r * k + c));
      vacc = _mm256_add_ps(vacc, _mm256_mul_ps(_mm256_loadu_ps(z + r * k + c), d));
    }
    _mm256_storeu_ps(acc + c, vacc);
  }
  for (; c < k; ++c) {
    float a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) {
      a0 += z[r * k + c] * (x[r * k + c] - y[r * k + c]);
    }
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX2 PARSDD_LANE_REDUCTION void sum_cols_acc_avx2_f32(
    const float* x, std::size_t rows, std::size_t k, float* acc) {
  if (run_narrow<SumColsAcc>(k, x, rows, acc)) return;
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    __m256 vacc = _mm256_loadu_ps(acc + c);
    for (std::size_t r = 0; r < rows; ++r) {
      vacc = _mm256_add_ps(vacc, _mm256_loadu_ps(x + r * k + c));
    }
    _mm256_storeu_ps(acc + c, vacc);
  }
  for (; c < k; ++c) {
    float a0 = acc[c];
    for (std::size_t r = 0; r < rows; ++r) a0 += x[r * k + c];
    acc[c] = a0;
  }
}

PARSDD_TARGET_AVX2 void spmm_rows_avx2_f32(const std::size_t* off,
                                           const std::uint32_t* col,
                                           const float* val, const float* x,
                                           float* y, std::size_t r0,
                                           std::size_t r1, std::size_t k) {
  if (run_narrow<SpmmRows>(k, off, col, val, x, y, r0, r1)) return;
  for (std::size_t i = r0; i < r1; ++i) {
    float* yr = y + i * k;
    std::size_t p0 = off[i], p1 = off[i + 1];
    std::size_t c = 0;
    for (; c + 8 <= k; c += 8) {
      __m256 acc0 = _mm256_setzero_ps();
      for (std::size_t p = p0; p < p1; ++p) {
        __m256 v = _mm256_set1_ps(val[p]);
        acc0 = _mm256_add_ps(
            acc0, _mm256_mul_ps(
                      v, _mm256_loadu_ps(
                             x + static_cast<std::size_t>(col[p]) * k + c)));
      }
      _mm256_storeu_ps(yr + c, acc0);
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

PARSDD_TARGET_AVX2 inline void fold_update_avx2_f32(float f, const float* fv,
                                                    float* fu, std::size_t c0,
                                                    std::size_t c1) {
  __m256 vf = _mm256_set1_ps(f);
  std::size_t c = c0;
  for (; c + 8 <= c1; c += 8) {
    __m256 u = _mm256_loadu_ps(fu + c);
    u = _mm256_add_ps(u, _mm256_mul_ps(vf, _mm256_loadu_ps(fv + c)));
    _mm256_storeu_ps(fu + c, u);
  }
  for (; c < c1; ++c) fu[c] += f * fv[c];
}

PARSDD_TARGET_AVX2 void fold_cols_avx2_f32(const ElimStep* steps,
                                           std::size_t nsteps, float* folded,
                                           std::size_t k, std::size_t c0,
                                           std::size_t c1) {
  if (run_narrow<FoldCols>(c1 - c0, steps, nsteps, folded + c0, k)) return;
  for (std::size_t s_idx = 0; s_idx < nsteps; ++s_idx) {
    const ElimStep& s = steps[s_idx];
    const float* fv = folded + static_cast<std::size_t>(s.v) * k;
    if (s.degree >= 1) {
      fold_update_avx2_f32(static_cast<float>(s.w1 / s.pivot), fv,
                           folded + static_cast<std::size_t>(s.u1) * k, c0, c1);
    }
    if (s.degree == 2) {
      fold_update_avx2_f32(static_cast<float>(s.w2 / s.pivot), fv,
                           folded + static_cast<std::size_t>(s.u2) * k, c0, c1);
    }
  }
}

PARSDD_TARGET_AVX2 void backsub_cols_avx2_f32(const ElimStep* steps,
                                              std::size_t nsteps,
                                              const float* folded, float* x,
                                              std::size_t k, std::size_t c0,
                                              std::size_t c1) {
  if (run_narrow<BacksubCols>(c1 - c0, steps, nsteps, folded + c0, x + c0,
                              k)) {
    return;
  }
  for (std::size_t s_idx = nsteps; s_idx-- > 0;) {
    const ElimStep& s = steps[s_idx];
    float* xv = x + static_cast<std::size_t>(s.v) * k;
    const float* fb = folded + static_cast<std::size_t>(s.v) * k;
    float piv = static_cast<float>(s.pivot);
    if (s.degree == 0) {
      std::size_t c = c0;
      __m256 z = _mm256_setzero_ps();
      for (; c + 8 <= c1; c += 8) _mm256_storeu_ps(xv + c, z);
      for (; c < c1; ++c) xv[c] = 0.0f;
    } else if (s.degree == 1) {
      const float* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      __m256 vpiv = _mm256_set1_ps(piv);
      std::size_t c = c0;
      for (; c + 8 <= c1; c += 8) {
        __m256 t = _mm256_div_ps(_mm256_loadu_ps(fb + c), vpiv);
        _mm256_storeu_ps(xv + c, _mm256_add_ps(t, _mm256_loadu_ps(xu1 + c)));
      }
      for (; c < c1; ++c) xv[c] = fb[c] / piv + xu1[c];
    } else {
      float w1 = static_cast<float>(s.w1);
      float w2 = static_cast<float>(s.w2);
      const float* xu1 = x + static_cast<std::size_t>(s.u1) * k;
      const float* xu2 = x + static_cast<std::size_t>(s.u2) * k;
      __m256 vpiv = _mm256_set1_ps(piv);
      __m256 vw1 = _mm256_set1_ps(w1);
      __m256 vw2 = _mm256_set1_ps(w2);
      std::size_t c = c0;
      for (; c + 8 <= c1; c += 8) {
        __m256 t = _mm256_add_ps(
            _mm256_loadu_ps(fb + c), _mm256_mul_ps(vw1, _mm256_loadu_ps(xu1 + c)));
        t = _mm256_add_ps(t, _mm256_mul_ps(vw2, _mm256_loadu_ps(xu2 + c)));
        _mm256_storeu_ps(xv + c, _mm256_div_ps(t, vpiv));
      }
      for (; c < c1; ++c) {
        xv[c] = (fb[c] + w1 * xu1[c] + w2 * xu2[c]) / piv;
      }
    }
  }
}

}  // namespace

bool avx2_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

const Backend& avx2_backend() {
  static const Backend be{
      /*name=*/"avx2",
      /*level=*/SimdLevel::kAvx2,
      /*f64=*/{
          /*axpy_cols=*/&axpy_cols_avx2,
          /*xpay_cols=*/&xpay_cols_avx2,
          /*scale_cols=*/&scale_cols_avx2,
          /*copy_cols=*/&copy_cols_t<double>,
          /*sub_cols=*/&sub_cols_avx2,
          /*dot_cols_acc=*/&dot_cols_acc_avx2,
          /*dot_diff_cols_acc=*/&dot_diff_cols_acc_avx2,
          /*sum_cols_acc=*/&sum_cols_acc_avx2,
          /*spmm_rows=*/&spmm_rows_avx2,
          /*fold_cols=*/&fold_cols_avx2,
          /*backsub_cols=*/&backsub_cols_avx2,
      },
      /*f32=*/{
          /*axpy_cols=*/&axpy_cols_avx2_f32,
          /*xpay_cols=*/&xpay_cols_avx2_f32,
          /*scale_cols=*/&scale_cols_avx2_f32,
          /*copy_cols=*/&copy_cols_t<float>,
          /*sub_cols=*/&sub_cols_avx2_f32,
          /*dot_cols_acc=*/&dot_cols_acc_avx2_f32,
          /*dot_diff_cols_acc=*/&dot_diff_cols_acc_avx2_f32,
          /*sum_cols_acc=*/&sum_cols_acc_avx2_f32,
          /*spmm_rows=*/&spmm_rows_avx2_f32,
          /*fold_cols=*/&fold_cols_avx2_f32,
          /*backsub_cols=*/&backsub_cols_avx2_f32,
      },
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
