// Internal to src/kernels/: the portable reference implementations (templates
// over float/double) and the per-ISA backend factories.  The scalar templates
// define the IEEE operation sequence every vector backend must reproduce
// bit-for-bit per column; the AVX files call back into them for plain
// copies and for every block narrower than a register (k <= 7, see
// "block kernels" below), which includes every Vec kernel (k = 1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "kernels/kernels.h"

namespace parsdd::kernels::detail {

// ---- block kernels: one loop body per kernel, at a compile-time width ----
//
// Every BlockOps kernel is written once, as Kernel::run<K>(w, ...), where w
// is the block width (the column count k, or the fold/backsub chunk width
// c1 - c0).  K > 0 instantiates the loop for exactly K lanes; K == 0 is the
// runtime-width loop, which is the reference IEEE sequence.  run_narrow()
// maps w = 1..kNarrowMaxWidth onto K with one switch per call.  The scalar
// table runs run_any_width() (narrow, else K == 0); the AVX tables inline
// run_narrow() into their target("avx2"/"avx512f") functions, so the same
// loops are vectorized across the K lanes for that ISA, and keep their
// intrinsics for blocks of a register or more.
//
// Serving batches are 1-4 columns wide, below one AVX-512 f64 register, so
// without the narrow path every serving kernel ran the runtime-k remainder
// loop.  The narrow path changes no bits: each lane still executes its own
// column's scalar chain in the reference order (rows ascending, nonzeros
// ascending, steps in record order), the library is built with
// -ffp-contract=off, and nothing is reassociated (DESIGN.md §9).

#define PARSDD_ALWAYS_INLINE __attribute__((always_inline)) inline

// The column reductions are in-order chains down the rows, so the only legal
// vectorization runs across lanes.  GCC's loop vectorizer would otherwise
// emit an in-order "fold-left" reduction over pairs of rows: bitwise the
// same, but 2-3x slower than K independent lane chains.  Applied to the
// reduction entry points of every table (clang does not vectorize ordered
// FP reductions and has no such attribute).
#if defined(__clang__)
#define PARSDD_LANE_REDUCTION
#else
#define PARSDD_LANE_REDUCTION \
  __attribute__((optimize("no-tree-loop-vectorize")))
#endif

/// Widest block with a compile-time-width instantiation: one below the
/// AVX-512 f64 register, where the intrinsics take over.
inline constexpr std::size_t kNarrowMaxWidth = 7;

/// A K-lane segment of one row.  K > 0: a local copy that commit() writes
/// back, so every load precedes every store and the compiler can keep the
/// lanes in registers without alias checks.  K == 0: a view of the row
/// itself, of runtime width (the reference loop shape).
template <std::size_t K, typename T>
class Lanes {
 public:
  using V = std::remove_const_t<T>;
  PARSDD_ALWAYS_INLINE Lanes(T* p, std::size_t /*w*/) : p_(p) {
    for (std::size_t c = 0; c < K; ++c) v_[c] = p[c];
  }
  static constexpr std::size_t size() { return K; }
  PARSDD_ALWAYS_INLINE V& operator[](std::size_t c) { return v_[c]; }
  PARSDD_ALWAYS_INLINE const V& operator[](std::size_t c) const {
    return v_[c];
  }
  PARSDD_ALWAYS_INLINE void commit() {
    for (std::size_t c = 0; c < K; ++c) p_[c] = v_[c];
  }

 private:
  V v_[K];
  T* p_;
};

template <typename T>
class Lanes<0, T> {
 public:
  PARSDD_ALWAYS_INLINE Lanes(T* p, std::size_t w) : p_(p), w_(w) {}
  PARSDD_ALWAYS_INLINE std::size_t size() const { return w_; }
  PARSDD_ALWAYS_INLINE T& operator[](std::size_t c) const { return p_[c]; }
  PARSDD_ALWAYS_INLINE void commit() {}

 private:
  T* p_;
  std::size_t w_;
};

/// Which columns an update touches: every column, or (kMasked) those with
/// mask[c] != 0.  A masked-off lane is stored back with its own bits.
template <std::size_t K, bool kMasked>
class ColGate {
 public:
  PARSDD_ALWAYS_INLINE ColGate(const std::uint8_t* mask, std::size_t w)
      : m_(mask, w) {}
  PARSDD_ALWAYS_INLINE bool operator()(std::size_t c) const {
    return m_[c] != 0;
  }

 private:
  Lanes<K, const std::uint8_t> m_;
};

template <std::size_t K>
class ColGate<K, false> {
 public:
  PARSDD_ALWAYS_INLINE ColGate(const std::uint8_t*, std::size_t) {}
  PARSDD_ALWAYS_INLINE constexpr bool operator()(std::size_t) const {
    return true;
  }
};

/// Runs Kernel::run<w>(w, args...) when 1 <= w <= kNarrowMaxWidth; returns
/// false (nothing run) otherwise.
template <class Kernel, typename... Args>
PARSDD_ALWAYS_INLINE bool run_narrow(std::size_t w, Args... args) {
  switch (w) {
    case 1: Kernel::template run<1>(w, args...); return true;
    case 2: Kernel::template run<2>(w, args...); return true;
    case 3: Kernel::template run<3>(w, args...); return true;
    case 4: Kernel::template run<4>(w, args...); return true;
    case 5: Kernel::template run<5>(w, args...); return true;
    case 6: Kernel::template run<6>(w, args...); return true;
    case 7: Kernel::template run<7>(w, args...); return true;
    default: return false;
  }
}
static_assert(kNarrowMaxWidth == 7, "run_narrow: one case per width");

/// The runtime-width loop, out of line: compiled into the same function as
/// the seven narrow instantiations, GCC made it 20-30% slower at k = 8 and
/// 16 (SpMM, 4096 rows).  Being a separate function also keeps
/// PARSDD_LANE_REDUCTION off it: its inner loop over the columns is one the
/// loop vectorizer handles well.
template <class Kernel, typename... Args>
__attribute__((noinline)) void run_wide(std::size_t w, Args... args) {
  Kernel::template run<0>(w, args...);
}

/// The narrow instantiation for w <= kNarrowMaxWidth, else run_wide().
template <class Kernel, typename... Args>
PARSDD_ALWAYS_INLINE void run_any_width(std::size_t w, Args... args) {
  if (!run_narrow<Kernel>(w, args...)) run_wide<Kernel>(w, args...);
}

// ---- column kernels over a rows x k row-major range (w == k).  The
//      kMasked forms serve the layer-2 masked entry points. ----

template <bool kMasked = false>
struct AxpyCols {  // y[r,c] += a[c] * x[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* a, const T* x,
                                       T* y, std::size_t rows,
                                       const std::uint8_t* mask = nullptr) {
    const ColGate<K, kMasked> on(mask, k);
    const Lanes<K, const T> av(a, k);
    for (std::size_t r = 0; r < rows; ++r) {
      const Lanes<K, const T> xr(x + r * k, k);
      Lanes<K, T> yr(y + r * k, k);
      for (std::size_t c = 0; c < yr.size(); ++c) {
        if (on(c)) yr[c] += av[c] * xr[c];
      }
      yr.commit();
    }
  }
};

template <bool kMasked = false>
struct XpayCols {  // y[r,c] = x[r,c] + a[c] * y[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* x, const T* a,
                                       T* y, std::size_t rows,
                                       const std::uint8_t* mask = nullptr) {
    const ColGate<K, kMasked> on(mask, k);
    const Lanes<K, const T> av(a, k);
    for (std::size_t r = 0; r < rows; ++r) {
      const Lanes<K, const T> xr(x + r * k, k);
      Lanes<K, T> yr(y + r * k, k);
      for (std::size_t c = 0; c < yr.size(); ++c) {
        if (on(c)) yr[c] = xr[c] + av[c] * yr[c];
      }
      yr.commit();
    }
  }
};

template <bool kMasked = false>
struct ScaleCols {  // x[r,c] *= a[c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* a, T* x,
                                       std::size_t rows,
                                       const std::uint8_t* mask = nullptr) {
    const ColGate<K, kMasked> on(mask, k);
    const Lanes<K, const T> av(a, k);
    for (std::size_t r = 0; r < rows; ++r) {
      Lanes<K, T> xr(x + r * k, k);
      for (std::size_t c = 0; c < xr.size(); ++c) {
        if (on(c)) xr[c] *= av[c];
      }
      xr.commit();
    }
  }
};

template <bool kMasked = false>
struct SubCols {  // x[r,c] -= m[c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* m, T* x,
                                       std::size_t rows,
                                       const std::uint8_t* mask = nullptr) {
    const ColGate<K, kMasked> on(mask, k);
    const Lanes<K, const T> mv(m, k);
    for (std::size_t r = 0; r < rows; ++r) {
      Lanes<K, T> xr(x + r * k, k);
      for (std::size_t c = 0; c < xr.size(); ++c) {
        if (on(c)) xr[c] -= mv[c];
      }
      xr.commit();
    }
  }
};

template <bool kMasked = false>
struct CopyCols {  // dst[r,c] = src[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* src, T* dst,
                                       std::size_t rows,
                                       const std::uint8_t* mask = nullptr) {
    if constexpr (!kMasked) {
      // Unmasked, the block is one flat range of rows * k entries.
      const std::size_t n = rows * (K ? K : k);
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    } else {
      const ColGate<K, kMasked> on(mask, k);
      for (std::size_t r = 0; r < rows; ++r) {
        const Lanes<K, const T> sr(src + r * k, k);
        Lanes<K, T> dr(dst + r * k, k);
        for (std::size_t c = 0; c < dr.size(); ++c) {
          if (on(c)) dr[c] = sr[c];
        }
        dr.commit();
      }
    }
  }
};

// Reductions ACCUMULATE into acc[k]; each lane runs down the rows in order.

struct DotColsAcc {  // acc[c] += sum_r x[r,c] * y[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* x, const T* y,
                                       std::size_t rows, T* acc) {
    Lanes<K, T> s(acc, k);
    for (std::size_t r = 0; r < rows; ++r) {
      const Lanes<K, const T> xr(x + r * k, k);
      const Lanes<K, const T> yr(y + r * k, k);
      for (std::size_t c = 0; c < s.size(); ++c) s[c] += xr[c] * yr[c];
    }
    s.commit();
  }
};

struct DotDiffColsAcc {  // acc[c] += sum_r z[r,c] * (x[r,c] - y[r,c])
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* z, const T* x,
                                       const T* y, std::size_t rows, T* acc) {
    Lanes<K, T> s(acc, k);
    for (std::size_t r = 0; r < rows; ++r) {
      const Lanes<K, const T> zr(z + r * k, k);
      const Lanes<K, const T> xr(x + r * k, k);
      const Lanes<K, const T> yr(y + r * k, k);
      for (std::size_t c = 0; c < s.size(); ++c) {
        s[c] += zr[c] * (xr[c] - yr[c]);
      }
    }
    s.commit();
  }
};

struct SumColsAcc {  // acc[c] += sum_r x[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* x,
                                       std::size_t rows, T* acc) {
    Lanes<K, T> s(acc, k);
    for (std::size_t r = 0; r < rows; ++r) {
      const Lanes<K, const T> xr(x + r * k, k);
      for (std::size_t c = 0; c < s.size(); ++c) s[c] += xr[c];
    }
    s.commit();
  }
};

// ---- CSR SpMM over rows [r0, r1): each output lane starts at +0.0 and adds
//      the row's nonzeros in CSR order ----

struct SpmmRows {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const std::size_t* off,
                                       const std::uint32_t* col, const T* val,
                                       const T* x, T* y, std::size_t r0,
                                       std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      Lanes<K, T> yr(y + i * k, k);
      for (std::size_t c = 0; c < yr.size(); ++c) yr[c] = T(0);
      for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
        const T v = val[p];
        const Lanes<K, const T> xr(x + static_cast<std::size_t>(col[p]) * k,
                                   k);
        for (std::size_t c = 0; c < yr.size(); ++c) yr[c] += v * xr[c];
      }
      yr.commit();
    }
  }
};

// ---- elimination fold / back-substitution over one column chunk: `folded`
//      and `x` point at the chunk's first column, rows have stride k, and
//      w = c1 - c0 is the chunk width ----

struct FoldCols {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t w, const ElimStep* steps,
                                       std::size_t nsteps, T* folded,
                                       std::size_t k) {
    for (std::size_t s_idx = 0; s_idx < nsteps; ++s_idx) {
      const ElimStep& s = steps[s_idx];
      const Lanes<K, const T> fv(folded + static_cast<std::size_t>(s.v) * k,
                                 w);
      if (s.degree >= 1) {
        const T f = static_cast<T>(s.w1 / s.pivot);
        Lanes<K, T> fu(folded + static_cast<std::size_t>(s.u1) * k, w);
        for (std::size_t c = 0; c < fu.size(); ++c) fu[c] += f * fv[c];
        fu.commit();
      }
      if (s.degree == 2) {
        const T f = static_cast<T>(s.w2 / s.pivot);
        Lanes<K, T> fu(folded + static_cast<std::size_t>(s.u2) * k, w);
        for (std::size_t c = 0; c < fu.size(); ++c) fu[c] += f * fv[c];
        fu.commit();
      }
    }
  }
};

struct BacksubCols {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t w, const ElimStep* steps,
                                       std::size_t nsteps, const T* folded,
                                       T* x, std::size_t k) {
    for (std::size_t s_idx = nsteps; s_idx-- > 0;) {
      const ElimStep& s = steps[s_idx];
      Lanes<K, T> xv(x + static_cast<std::size_t>(s.v) * k, w);
      const Lanes<K, const T> fb(folded + static_cast<std::size_t>(s.v) * k,
                                 w);
      if (s.degree == 0) {
        for (std::size_t c = 0; c < xv.size(); ++c) xv[c] = T(0);
      } else if (s.degree == 1) {
        const T piv = static_cast<T>(s.pivot);
        const Lanes<K, const T> xu1(x + static_cast<std::size_t>(s.u1) * k, w);
        for (std::size_t c = 0; c < xv.size(); ++c) {
          xv[c] = fb[c] / piv + xu1[c];
        }
      } else {
        const T piv = static_cast<T>(s.pivot);
        const T w1 = static_cast<T>(s.w1);
        const T w2 = static_cast<T>(s.w2);
        const Lanes<K, const T> xu1(x + static_cast<std::size_t>(s.u1) * k, w);
        const Lanes<K, const T> xu2(x + static_cast<std::size_t>(s.u2) * k, w);
        for (std::size_t c = 0; c < xv.size(); ++c) {
          xv[c] = (fb[c] + w1 * xu1[c] + w2 * xu2[c]) / piv;
        }
      }
      xv.commit();
    }
  }
};

// ---- the portable table entries (BlockOps signatures) ----

template <typename T>
void axpy_cols_t(const T* a, const T* x, T* y, std::size_t rows,
                 std::size_t k) {
  run_any_width<AxpyCols<>>(k, a, x, y, rows);
}

template <typename T>
void xpay_cols_t(const T* x, const T* a, T* y, std::size_t rows,
                 std::size_t k) {
  run_any_width<XpayCols<>>(k, x, a, y, rows);
}

template <typename T>
void scale_cols_t(const T* a, T* x, std::size_t rows, std::size_t k) {
  run_any_width<ScaleCols<>>(k, a, x, rows);
}

template <typename T>
void copy_cols_t(const T* src, T* dst, std::size_t rows, std::size_t k) {
  run_any_width<CopyCols<>>(k, src, dst, rows);
}

template <typename T>
void sub_cols_t(const T* m, T* x, std::size_t rows, std::size_t k) {
  run_any_width<SubCols<>>(k, m, x, rows);
}

template <typename T>
PARSDD_LANE_REDUCTION void dot_cols_acc_t(const T* x, const T* y,
                                          std::size_t rows, std::size_t k,
                                          T* acc) {
  run_any_width<DotColsAcc>(k, x, y, rows, acc);
}

template <typename T>
PARSDD_LANE_REDUCTION void dot_diff_cols_acc_t(const T* z, const T* x,
                                               const T* y, std::size_t rows,
                                               std::size_t k, T* acc) {
  run_any_width<DotDiffColsAcc>(k, z, x, y, rows, acc);
}

template <typename T>
PARSDD_LANE_REDUCTION void sum_cols_acc_t(const T* x, std::size_t rows,
                                          std::size_t k, T* acc) {
  run_any_width<SumColsAcc>(k, x, rows, acc);
}

// ---- CSR ----

template <typename T>
void spmm_rows_t(const std::size_t* off, const std::uint32_t* col,
                 const T* val, const T* x, T* y, std::size_t r0,
                 std::size_t r1, std::size_t k) {
  run_any_width<SpmmRows>(k, off, col, val, x, y, r0, r1);
}

template <typename T>
void fold_cols_t(const ElimStep* steps, std::size_t nsteps, T* folded,
                 std::size_t k, std::size_t c0, std::size_t c1) {
  run_any_width<FoldCols>(c1 - c0, steps, nsteps, folded + c0, k);
}

template <typename T>
void backsub_cols_t(const ElimStep* steps, std::size_t nsteps, const T* folded,
                    T* x, std::size_t k, std::size_t c0, std::size_t c1) {
  run_any_width<BacksubCols>(c1 - c0, steps, nsteps, folded + c0, x + c0, k);
}

// The portable op table for one element type: the templates above, in
// BlockOps field order.  The scalar backend is two of these; the AVX
// backends override entries with their intrinsics.
template <typename T>
constexpr BlockOps<T> scalar_block_ops() {
  return BlockOps<T>{
      &axpy_cols_t<T>,
      &xpay_cols_t<T>,
      &scale_cols_t<T>,
      &copy_cols_t<T>,
      &sub_cols_t<T>,
      &dot_cols_acc_t<T>,
      &dot_diff_cols_acc_t<T>,
      &sum_cols_acc_t<T>,
      &spmm_rows_t<T>,
      &fold_cols_t<T>,
      &backsub_cols_t<T>,
  };
}

// ---- backend factories (backend_{scalar,avx2,avx512}.cpp) ----

const Backend& scalar_backend();
/// Only callable when the matching *_supported() is true; on non-x86 builds
/// these return the scalar backend and *_supported() is false.
const Backend& avx2_backend();
const Backend& avx512_backend();
bool avx2_supported();
bool avx512_supported();

}  // namespace parsdd::kernels::detail
