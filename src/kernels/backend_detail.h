// Internal to src/kernels/: the one source of every kernels::Backend table.
// Each BlockOps kernel is written once here, as a template over the element
// type and the lane count, and each table is one PARSDD_BACKEND_OPS
// expansion of the same entry functions: for the baseline ISA
// (backend_scalar.cpp) or under a target attribute (backend_avx2.cpp,
// backend_avx512.cpp).  So the tables cannot disagree on the IEEE
// operation sequence.
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
// c1 - c0).  K = 1..kNarrowMaxWidth instantiates the loop for exactly K
// lanes, K >= kChunkWidth for register groups, and K == 0 is the
// runtime-width loop, which is the reference IEEE sequence.  A table
// dispatches per call (run_table):
//
//   * w = 1..kNarrowMaxWidth (every serving batch, every Vec kernel):
//     the narrow instantiation, through one switch, in every table;
//   * wider blocks, scalar table: the K == 0 loop (run_wide);
//   * wider blocks, per-ISA tables: every full register group, then a
//     narrow tail (for fold/backsub, whose w is not the row stride, the
//     tail also serves narrow chunks).
//
// No dispatch changes bits: each lane executes its own column's scalar
// chain in the reference order (rows ascending, nonzeros ascending from
// +0.0, steps in record order), the library is built with
// -ffp-contract=off, and nothing is reassociated (DESIGN.md §9).

#define PARSDD_ALWAYS_INLINE __attribute__((always_inline)) inline

// The column reductions are in-order chains down the rows, so the only legal
// vectorization runs across lanes.  GCC's loop vectorizer would otherwise
// emit an in-order "fold-left" reduction over pairs of rows: bitwise the
// same, but 2-3x slower than K independent lane chains.  Applied to the
// reduction entries of every table (clang does not vectorize ordered FP
// reductions and has no such attribute).
#if defined(__clang__)
#define PARSDD_LANE_REDUCTION
#else
#define PARSDD_LANE_REDUCTION \
  __attribute__((optimize("no-tree-loop-vectorize")))
#endif

/// Widest block with its own compile-time-width instantiation.
inline constexpr std::size_t kNarrowMaxWidth = 7;
/// Register groups of the per-ISA tables: kGroupWidth<T> lanes of T (64
/// bytes: 8 f64 or 16 f32 lanes, two 32-byte vector packs).  A block of
/// f32 may also take one kChunkWidth-lane group, the fold/backsub column
/// chunk (kColChunk in layer 2).
template <typename T>
inline constexpr std::size_t kGroupWidth = 64 / sizeof(T);
inline constexpr std::size_t kChunkWidth = 8;

/// How many K-lane groups one Kernel::run<K> call over a width-w block
/// covers: every full group for K = kGroupWidth<T>, else one, at column 0
/// (a narrow or runtime-width call is one group of all w lanes).
template <std::size_t K, typename T>
PARSDD_ALWAYS_INLINE constexpr std::size_t groups(std::size_t w) {
  return K == kGroupWidth<std::remove_const_t<T>> ? w / K : 1;
}

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

/// A register group (K >= kChunkWidth lanes) held as GCC/Clang vectors of
/// 32 bytes (one AVX2 register; the AVX-512 table runs them as such too),
/// so each lane operation of a kernel body is one vector operation per
/// pack.  size() is the pack count and each element is a whole pack; a
/// scalar operand of a lane expression is broadcast, so the expression is
/// the same IEEE operation in every lane.  Only the per-ISA tables
/// instantiate it, inside their target-attributed entries.
template <std::size_t K, typename T>
  requires(K >= kChunkWidth)
class Lanes<K, T> {
 public:
  using E = std::remove_const_t<T>;
  static constexpr std::size_t kPackBytes = 32;
  static constexpr std::size_t kPacks = K * sizeof(E) / kPackBytes;
  typedef E V __attribute__((vector_size(kPackBytes)));
  // The same vector at element alignment, for unaligned loads and stores.
  typedef E U __attribute__((vector_size(kPackBytes), aligned(alignof(E)),
                             may_alias));
  PARSDD_ALWAYS_INLINE Lanes(T* p, std::size_t /*w*/) : p_(p) {
    for (std::size_t i = 0; i < kPacks; ++i) {
      v_[i] = reinterpret_cast<const U*>(p)[i];
    }
  }
  static constexpr std::size_t size() { return kPacks; }
  PARSDD_ALWAYS_INLINE V& operator[](std::size_t i) { return v_[i]; }
  PARSDD_ALWAYS_INLINE const V& operator[](std::size_t i) const {
    return v_[i];
  }
  PARSDD_ALWAYS_INLINE void commit() {
    for (std::size_t i = 0; i < kPacks; ++i) {
      reinterpret_cast<U*>(p_)[i] = v_[i];
    }
  }

 private:
  V v_[kPacks];
  T* p_;
};

/// +0.0 in one lane, or in every lane of a register group.
template <typename V>
PARSDD_ALWAYS_INLINE void set_zero(V& lane) {
  lane = V{};
}

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

/// A per-column scalar array (the a of axpy_cols, the m of sub_cols) as
/// the lanes of group c0.  A narrow or runtime-width call has one group,
/// at c0 = 0, and loads the array once, before its row loop.
template <std::size_t K, typename T>
class ColScalars {
 public:
  PARSDD_ALWAYS_INLINE ColScalars(const T* p, std::size_t w) : v_(p, w) {}
  PARSDD_ALWAYS_INLINE const Lanes<K, const T>& group(std::size_t) const {
    return v_;
  }

 private:
  const Lanes<K, const T> v_;
};

/// Register groups walk the block's groups inside the row loop (a row-major
/// block read group by group would stride through memory), so they reload
/// their column scalars in every row.
template <std::size_t K, typename T>
  requires(K >= kChunkWidth)
class ColScalars<K, T> {
 public:
  PARSDD_ALWAYS_INLINE ColScalars(const T* p, std::size_t w) : p_(p), w_(w) {}
  PARSDD_ALWAYS_INLINE Lanes<K, const T> group(std::size_t c0) const {
    return Lanes<K, const T>(p_ + c0, w_);
  }

 private:
  const T* p_;
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

/// Runs Kernel::run<lanes>(w, args...) when 1 <= lanes <= kNarrowMaxWidth;
/// returns false (nothing run) otherwise.
template <class Kernel, typename... Args>
PARSDD_ALWAYS_INLINE bool run_lanes(std::size_t lanes, std::size_t w,
                                    Args... args) {
  switch (lanes) {
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
static_assert(kNarrowMaxWidth == 7, "run_lanes: one case per width");

/// Runs Kernel::run<w>(w, args...) when 1 <= w <= kNarrowMaxWidth; returns
/// false (nothing run) otherwise.
template <class Kernel, typename... Args>
PARSDD_ALWAYS_INLINE bool run_narrow(std::size_t w, Args... args) {
  return run_lanes<Kernel>(w, w, args...);
}

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

/// A kernel argument moved to column c.  Every raw pointer a kernel takes
/// points at column 0 of a row-major block or of a per-column scalar array
/// (row-indexed data travels in CsrArrays / StepRecord), so the view of a
/// block's columns from c on is each pointer plus c.
template <typename A>
PARSDD_ALWAYS_INLINE A at_col(A arg, std::size_t c) {
  if constexpr (std::is_pointer_v<A>) {
    return arg + c;
  } else {
    return arg;
  }
}

/// Whether a kernel's block width w is also its row stride.  It is not for
/// fold/backsub, whose w is a column-chunk width (the stride k is passed
/// apart); specialized to false after their definitions.
template <class Kernel>
inline constexpr bool kWidthIsStride = true;

/// One table's dispatch of Kernel over a width-w block of T.  The scalar
/// table runs the narrow instantiation for w <= kNarrowMaxWidth, else the
/// out-of-line runtime-width loop.  A per-ISA table (kGrouped) runs every
/// full kGroupWidth<T> group in one run<kGroupWidth<T>> call, which walks
/// them in its own traversal order, then one kChunkWidth-lane group if a
/// narrower group fits, then a narrow tail.  Where w is the row stride, a
/// narrow block runs first, as its own instantiation: there the stride
/// equals the compile-time lane count, which a tail cannot share.
template <class Kernel, typename T, bool kGrouped, typename... Args>
PARSDD_ALWAYS_INLINE void run_table(std::size_t w, Args... args) {
  if constexpr (!kGrouped) {
    run_any_width<Kernel>(w, args...);
  } else {
    if constexpr (kWidthIsStride<Kernel>) {
      if (run_narrow<Kernel>(w, args...)) return;
    }
    constexpr std::size_t kG = kGroupWidth<T>;
    std::size_t c = 0;
    if (w >= kG) {
      Kernel::template run<kG>(w, args...);
      c = w - w % kG;
    }
    if constexpr (kG > kChunkWidth) {
      if (w - c >= kChunkWidth) {
        Kernel::template run<kChunkWidth>(w, at_col(args, c)...);
        c += kChunkWidth;
      }
    }
    run_lanes<Kernel>(w - c, w, at_col(args, c)...);
  }
}

// ---- column kernels over a rows x k row-major range (w == k).  The
//      kMasked forms serve the layer-2 masked entry points, which always
//      run narrow or at runtime width.  Groups run inside the row loop. ----

template <bool kMasked = false>
struct AxpyCols {  // y[r,c] += a[c] * x[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* a, const T* x,
                                       T* y, std::size_t rows,
                                       const std::uint8_t* mask = nullptr) {
    const ColGate<K, kMasked> on(mask, k);
    const ColScalars<K, T> as(a, k);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
        const std::size_t c0 = g * K;
        const auto& av = as.group(c0);
        const Lanes<K, const T> xr(x + r * k + c0, k);
        Lanes<K, T> yr(y + r * k + c0, k);
        for (std::size_t c = 0; c < yr.size(); ++c) {
          if (on(c)) yr[c] += av[c] * xr[c];
        }
        yr.commit();
      }
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
    const ColScalars<K, T> as(a, k);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
        const std::size_t c0 = g * K;
        const auto& av = as.group(c0);
        const Lanes<K, const T> xr(x + r * k + c0, k);
        Lanes<K, T> yr(y + r * k + c0, k);
        for (std::size_t c = 0; c < yr.size(); ++c) {
          if (on(c)) yr[c] = xr[c] + av[c] * yr[c];
        }
        yr.commit();
      }
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
    const ColScalars<K, T> as(a, k);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
        const std::size_t c0 = g * K;
        const auto& av = as.group(c0);
        Lanes<K, T> xr(x + r * k + c0, k);
        for (std::size_t c = 0; c < xr.size(); ++c) {
          if (on(c)) xr[c] *= av[c];
        }
        xr.commit();
      }
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
    const ColScalars<K, T> ms(m, k);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
        const std::size_t c0 = g * K;
        const auto& mv = ms.group(c0);
        Lanes<K, T> xr(x + r * k + c0, k);
        for (std::size_t c = 0; c < xr.size(); ++c) {
          if (on(c)) xr[c] -= mv[c];
        }
        xr.commit();
      }
    }
  }
};

/// Not per table: every table shares copy_cols_t below.
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
// A register group's accumulators stay in registers for its whole column
// sweep (groups outside the row loop).

struct DotColsAcc {  // acc[c] += sum_r x[r,c] * y[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* x, const T* y,
                                       std::size_t rows, T* acc) {
    for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
      const std::size_t c0 = g * K;
      Lanes<K, T> s(acc + c0, k);
      for (std::size_t r = 0; r < rows; ++r) {
        const Lanes<K, const T> xr(x + r * k + c0, k);
        const Lanes<K, const T> yr(y + r * k + c0, k);
        for (std::size_t c = 0; c < s.size(); ++c) s[c] += xr[c] * yr[c];
      }
      s.commit();
    }
  }
};

struct DotDiffColsAcc {  // acc[c] += sum_r z[r,c] * (x[r,c] - y[r,c])
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* z, const T* x,
                                       const T* y, std::size_t rows, T* acc) {
    for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
      const std::size_t c0 = g * K;
      Lanes<K, T> s(acc + c0, k);
      for (std::size_t r = 0; r < rows; ++r) {
        const Lanes<K, const T> zr(z + r * k + c0, k);
        const Lanes<K, const T> xr(x + r * k + c0, k);
        const Lanes<K, const T> yr(y + r * k + c0, k);
        for (std::size_t c = 0; c < s.size(); ++c) {
          s[c] += zr[c] * (xr[c] - yr[c]);
        }
      }
      s.commit();
    }
  }
};

struct SumColsAcc {  // acc[c] += sum_r x[r,c]
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* x,
                                       std::size_t rows, T* acc) {
    for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
      const std::size_t c0 = g * K;
      Lanes<K, T> s(acc + c0, k);
      for (std::size_t r = 0; r < rows; ++r) {
        const Lanes<K, const T> xr(x + r * k + c0, k);
        for (std::size_t c = 0; c < s.size(); ++c) s[c] += xr[c];
      }
      s.commit();
    }
  }
};

// ---- CSR SpMM over rows [r0, r1): each output lane starts at +0.0 and adds
//      the row's nonzeros in CSR order.  Groups run inside the row loop,
//      so a row's nonzeros are walked once per group while in L1. ----

/// The raw arrays of a CSR matrix (row-indexed, so not column-shifted).
template <typename T>
struct CsrArrays {
  const std::size_t* off;
  const std::uint32_t* col;
  const T* val;
};

struct SpmmRows {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, CsrArrays<T> a,
                                       const T* x, T* y, std::size_t r0,
                                       std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t g = 0; g < groups<K, T>(k); ++g) {
        const std::size_t c0 = g * K;
        Lanes<K, T> yr(y + i * k + c0, k);
        for (std::size_t c = 0; c < yr.size(); ++c) set_zero(yr[c]);
        for (std::size_t p = a.off[i]; p < a.off[i + 1]; ++p) {
          const T v = a.val[p];
          const Lanes<K, const T> xr(
              x + static_cast<std::size_t>(a.col[p]) * k + c0, k);
          for (std::size_t c = 0; c < yr.size(); ++c) yr[c] += v * xr[c];
        }
        yr.commit();
      }
    }
  }
};

// ---- elimination fold / back-substitution over one column chunk: `folded`
//      and `x` point at the chunk's first column, rows have stride k, and
//      w = c1 - c0 is the chunk width.  Groups run inside the step loop. ----

/// A GreedyElimination record (row-indexed, so not column-shifted).
struct StepRecord {
  const ElimStep* steps;
  std::size_t n;
};

struct FoldCols {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t w, StepRecord rec,
                                       T* folded, std::size_t k) {
    for (std::size_t s_idx = 0; s_idx < rec.n; ++s_idx) {
      const ElimStep& s = rec.steps[s_idx];
      for (std::size_t g = 0; g < groups<K, T>(w); ++g) {
        T* const f = folded + g * K;
        const Lanes<K, const T> fv(f + static_cast<std::size_t>(s.v) * k, w);
        if (s.degree >= 1) {
          const T m = static_cast<T>(s.w1 / s.pivot);
          Lanes<K, T> fu(f + static_cast<std::size_t>(s.u1) * k, w);
          for (std::size_t c = 0; c < fu.size(); ++c) fu[c] += m * fv[c];
          fu.commit();
        }
        if (s.degree == 2) {
          const T m = static_cast<T>(s.w2 / s.pivot);
          Lanes<K, T> fu(f + static_cast<std::size_t>(s.u2) * k, w);
          for (std::size_t c = 0; c < fu.size(); ++c) fu[c] += m * fv[c];
          fu.commit();
        }
      }
    }
  }
};

struct BacksubCols {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t w, StepRecord rec,
                                       const T* folded, T* x, std::size_t k) {
    for (std::size_t s_idx = rec.n; s_idx-- > 0;) {
      const ElimStep& s = rec.steps[s_idx];
      for (std::size_t g = 0; g < groups<K, T>(w); ++g) {
        const T* const f = folded + g * K;
        T* const xg = x + g * K;
        Lanes<K, T> xv(xg + static_cast<std::size_t>(s.v) * k, w);
        const Lanes<K, const T> fb(f + static_cast<std::size_t>(s.v) * k, w);
        if (s.degree == 0) {
          for (std::size_t c = 0; c < xv.size(); ++c) set_zero(xv[c]);
        } else if (s.degree == 1) {
          const T piv = static_cast<T>(s.pivot);
          const Lanes<K, const T> xu1(
              xg + static_cast<std::size_t>(s.u1) * k, w);
          for (std::size_t c = 0; c < xv.size(); ++c) {
            xv[c] = fb[c] / piv + xu1[c];
          }
        } else {
          const T piv = static_cast<T>(s.pivot);
          const T w1 = static_cast<T>(s.w1);
          const T w2 = static_cast<T>(s.w2);
          const Lanes<K, const T> xu1(
              xg + static_cast<std::size_t>(s.u1) * k, w);
          const Lanes<K, const T> xu2(
              xg + static_cast<std::size_t>(s.u2) * k, w);
          for (std::size_t c = 0; c < xv.size(); ++c) {
            xv[c] = (fb[c] + w1 * xu1[c] + w2 * xu2[c]) / piv;
          }
        }
        xv.commit();
      }
    }
  }
};

template <>
inline constexpr bool kWidthIsStride<FoldCols> = false;
template <>
inline constexpr bool kWidthIsStride<BacksubCols> = false;

// ---- the table entries (BlockOps signatures) ----

/// copy_cols is one flat loop over rows * k entries at any width, the same
/// function in every table.
template <typename T>
void copy_cols_t(const T* src, T* dst, std::size_t rows, std::size_t k) {
  run_any_width<CopyCols<>>(k, src, dst, rows);
}

/// Defines struct `Name`: the other BlockOps entries of one table, as
/// static member templates over the element type, each compiled with the
/// function attributes `attrs` (none for the scalar table, a target(...)
/// attribute for a per-ISA table) and dispatched by run_table<..., kGrouped>.
/// The narrow instantiations are inlined into the entries, so they compile
/// for each table's ISA.  The reduction entries also carry
/// PARSDD_LANE_REDUCTION.  A per-ISA file is built without -m flags, so its
/// table is safe to link into a binary for any x86 CPU; kernels.cpp takes
/// it only after the matching cpuid check.
#define PARSDD_BACKEND_OPS(Name, attrs, kGrouped)                             \
  struct Name {                                                               \
    template <typename T>                                                     \
    attrs static void axpy_cols(const T* a, const T* x, T* y,                 \
                                std::size_t rows, std::size_t k) {            \
      run_table<AxpyCols<>, T, kGrouped>(k, a, x, y, rows);                   \
    }                                                                         \
    template <typename T>                                                     \
    attrs static void xpay_cols(const T* x, const T* a, T* y,                 \
                                std::size_t rows, std::size_t k) {            \
      run_table<XpayCols<>, T, kGrouped>(k, x, a, y, rows);                   \
    }                                                                         \
    template <typename T>                                                     \
    attrs static void scale_cols(const T* a, T* x, std::size_t rows,          \
                                 std::size_t k) {                             \
      run_table<ScaleCols<>, T, kGrouped>(k, a, x, rows);                     \
    }                                                                         \
    template <typename T>                                                     \
    attrs static void sub_cols(const T* m, T* x, std::size_t rows,            \
                               std::size_t k) {                               \
      run_table<SubCols<>, T, kGrouped>(k, m, x, rows);                       \
    }                                                                         \
    template <typename T>                                                     \
    attrs PARSDD_LANE_REDUCTION static void dot_cols_acc(                     \
        const T* x, const T* y, std::size_t rows, std::size_t k, T* acc) {    \
      run_table<DotColsAcc, T, kGrouped>(k, x, y, rows, acc);                 \
    }                                                                         \
    template <typename T>                                                     \
    attrs PARSDD_LANE_REDUCTION static void dot_diff_cols_acc(                \
        const T* z, const T* x, const T* y, std::size_t rows, std::size_t k,  \
        T* acc) {                                                             \
      run_table<DotDiffColsAcc, T, kGrouped>(k, z, x, y, rows, acc);          \
    }                                                                         \
    template <typename T>                                                     \
    attrs PARSDD_LANE_REDUCTION static void sum_cols_acc(                     \
        const T* x, std::size_t rows, std::size_t k, T* acc) {                \
      run_table<SumColsAcc, T, kGrouped>(k, x, rows, acc);                    \
    }                                                                         \
    template <typename T>                                                     \
    attrs static void spmm_rows(const std::size_t* off,                       \
                                const std::uint32_t* col, const T* val,       \
                                const T* x, T* y, std::size_t r0,             \
                                std::size_t r1, std::size_t k) {              \
      run_table<SpmmRows, T, kGrouped>(k, CsrArrays<T>{off, col, val}, x, y,  \
                                       r0, r1);                               \
    }                                                                         \
    template <typename T>                                                     \
    attrs static void fold_cols(const ElimStep* steps, std::size_t nsteps,    \
                                T* folded, std::size_t k, std::size_t c0,     \
                                std::size_t c1) {                             \
      run_table<FoldCols, T, kGrouped>(c1 - c0, StepRecord{steps, nsteps},    \
                                       folded + c0, k);                       \
    }                                                                         \
    template <typename T>                                                     \
    attrs static void backsub_cols(const ElimStep* steps, std::size_t nsteps, \
                                   const T* folded, T* x, std::size_t k,      \
                                   std::size_t c0, std::size_t c1) {          \
      run_table<BacksubCols, T, kGrouped>(c1 - c0, StepRecord{steps, nsteps}, \
                                          folded + c0, x + c0, k);            \
    }                                                                         \
  }

/// The op table for one element type from entries Ops (a PARSDD_BACKEND_OPS
/// struct), in BlockOps field order.  Every Backend is two of these.
template <typename T, class Ops>
constexpr BlockOps<T> block_ops() {
  return BlockOps<T>{
      &Ops::template axpy_cols<T>,
      &Ops::template xpay_cols<T>,
      &Ops::template scale_cols<T>,
      &copy_cols_t<T>,
      &Ops::template sub_cols<T>,
      &Ops::template dot_cols_acc<T>,
      &Ops::template dot_diff_cols_acc<T>,
      &Ops::template sum_cols_acc<T>,
      &Ops::template spmm_rows<T>,
      &Ops::template fold_cols<T>,
      &Ops::template backsub_cols<T>,
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
