// The sanctioned kernel surface: every hot loop over Vec / MultiVec data
// routes through here (enforced by the determinism lint's multivec-raw rule).
//
// Two layers:
//
//   1. kernels::Backend — a table of C function pointers over flat row-major
//      ranges (BLAS-1 column kernels, CSR SpMM with k-dimension blocking,
//      elimination fold/backsub column chunks), selected once per
//      process from {scalar, avx2, avx512} via cpuid with a
//      PARSDD_SIMD=scalar|avx2|avx512|auto override.  The three tables are
//      three compilations of one set of kernel templates
//      (backend_detail.h): for the baseline ISA, and under
//      target("avx2") / target("avx512f").  The backend functions are
//      SERIAL over their range; parallelism stays in layer 2.
//   2. The parsdd::kernels:: free functions — the deterministic parallel
//      entry points the solvers call.  They own the GranularitySites and the
//      canonical block partition, and invoke the selected backend once per
//      block, so the reduction-tree shape (and therefore every bit of every
//      result) is identical across backends and pool sizes.
//
// Bitwise-SIMD contract (DESIGN.md §9): every table vectorizes only
// across independent lanes — the k columns of a row-major MultiVec — never
// along a serial reduction chain, and never with FMA contraction.  Each
// column therefore performs the exact IEEE operation sequence of the
// kernel templates, which is why PARSDD_SIMD=scalar and =avx512 solves are
// bitwise identical (test_kernels locks this in).  A Vec is an n x 1 block: its
// dot/sum and SpMV run the k = 1 column loops, one serial chain per block.
//
// Element types: the MultiVec entry points are generic over T, and the
// backend keeps one op table per element type (BlockOps<double>,
// BlockOps<float>).  The float instantiations power the opt-in
// mixed-precision preconditioner path (Precision::kF32Refined): same
// canonical-block determinism, but float arithmetic — documented as the
// relaxed-determinism mode in DESIGN.md §9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "linalg/multivec.h"

namespace parsdd::kernels {

/// One recorded GreedyElimination step (Lemma 6.5).  Defined here so the
/// fold/backsub backend kernels can walk the record without depending on
/// the solver layer; solver/greedy_elimination.h aliases it as
/// parsdd::EliminationStep.
struct ElimStep {
  std::uint32_t v = 0;       // eliminated vertex
  std::uint32_t degree = 0;  // 0, 1 or 2 at elimination time
  std::uint32_t u1 = 0, u2 = 0;
  double w1 = 0.0, w2 = 0.0;
  double pivot = 0.0;  // w1 + w2 (weighted degree of v)
};

/// Instruction-set tier of a backend implementation.
enum class SimdLevel : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The block-kernel op table for one element type: column BLAS-1, CSR
/// SpMM, and elimination fold/backsub over flat row-major ranges.  Every
/// backend fills one table per element type (Backend::f64, Backend::f32);
/// the generic layer-2 entry points pick the table for their T through
/// Backend::ops<T>().  All functions are serial over their range;
/// `rows`/`k` describe a row-major rows x k block.  Reduction kernels
/// ACCUMULATE into caller-zeroed acc[k] so the canonical block fold stays
/// in layer 2.
template <typename T>
struct BlockOps {
  // ---- column kernels over a rows x k row-major range ----
  void (*axpy_cols)(const T* a, const T* x, T* y, std::size_t rows,
                    std::size_t k);
  void (*xpay_cols)(const T* x, const T* a, T* y, std::size_t rows,
                    std::size_t k);
  void (*scale_cols)(const T* a, T* x, std::size_t rows, std::size_t k);
  void (*copy_cols)(const T* src, T* dst, std::size_t rows, std::size_t k);
  void (*sub_cols)(const T* m, T* x, std::size_t rows,
                   std::size_t k);  // x[r*k+c] -= m[c]
  void (*dot_cols_acc)(const T* x, const T* y, std::size_t rows,
                       std::size_t k, T* acc);
  void (*dot_diff_cols_acc)(const T* z, const T* x, const T* y,
                            std::size_t rows, std::size_t k, T* acc);
  void (*sum_cols_acc)(const T* x, std::size_t rows, std::size_t k, T* acc);

  // ---- CSR SpMM over row range [r0, r1) ----
  void (*spmm_rows)(const std::size_t* off, const std::uint32_t* col,
                    const T* val, const T* x, T* y, std::size_t r0,
                    std::size_t r1, std::size_t k);

  // ---- elimination fold/backsub over column range [c0, c1), stride k ----
  void (*fold_cols)(const ElimStep* steps, std::size_t nsteps, T* folded,
                    std::size_t k, std::size_t c0, std::size_t c1);
  void (*backsub_cols)(const ElimStep* steps, std::size_t nsteps,
                       const T* folded, T* x, std::size_t k, std::size_t c0,
                       std::size_t c1);
};

/// The dispatchable kernel table of one instruction-set tier: one BlockOps
/// table per element type.  Vec kernels are the k = 1 case of the f64 table.
struct Backend {
  const char* name = "";
  SimdLevel level = SimdLevel::kScalar;

  BlockOps<double> f64;
  BlockOps<float> f32;

  template <typename T>
  const BlockOps<T>& ops() const {
    if constexpr (std::is_same_v<T, double>) {
      return f64;
    } else {
      static_assert(std::is_same_v<T, float>, "block kernels: float|double");
      return f32;
    }
  }
};

/// The backend selected for this process: the best level the CPU supports,
/// overridden by PARSDD_SIMD=scalar|avx2|avx512|auto.  An explicit request
/// the CPU cannot honor falls back to the best supported level (with a
/// one-time stderr note) so a pinned env var never crashes on older
/// hardware.  Selection happens once, on first use, and is immutable after.
const Backend& backend();
/// Name of the selected backend: "scalar", "avx2", or "avx512".
const char* backend_name();

// ---------------------------------------------------------------------------
// Layer 2: deterministic parallel entry points (the sanctioned call surface).
// The MultiVec entry points are generic over the element type and explicitly
// instantiated for double and float in kernels.cpp; the double instances
// are the bitwise-deterministic solver path, the float instances carry the
// mixed-precision preconditioner chain.

// ---- Vec BLAS-1 (the f64 table's k = 1 column kernels) ----
void axpy(double a, const Vec& x, Vec& y);            // y += a x
void xpay(const Vec& x, double a, Vec& y);            // y = x + a y
double dot(const Vec& x, const Vec& y);
double norm2(const Vec& x);
void scale(double a, Vec& x);
Vec subtract(const Vec& x, const Vec& y);
double sum(const Vec& x);
void project_out_constant(Vec& x);

// ---- MultiVec column kernels.  `a` holds one scalar per column.  With a
//      mask, masked columns are bitwise untouched; the masked path runs
//      the same compile-time-width loops at the baseline ISA — it only
//      runs after a column freezes. ----
/// y[:,c] += a[c] * x[:,c]
template <typename T>
void axpy_cols(const std::vector<T>& a, const BasicMultiVec<T>& x,
               BasicMultiVec<T>& y, const ColMask* mask = nullptr);
/// y[:,c] = x[:,c] + a[c] * y[:,c]
template <typename T>
void xpay_cols(const BasicMultiVec<T>& x, const std::vector<T>& a,
               BasicMultiVec<T>& y, const ColMask* mask = nullptr);
/// Per-column inner products <x_c, y_c>.
template <typename T>
std::vector<T> dot_cols(const BasicMultiVec<T>& x, const BasicMultiVec<T>& y);
/// Per-column <z_c, x_c - y_c> (the flexible-CG Polak–Ribière numerator,
/// fused so no difference block is materialized).
template <typename T>
std::vector<T> dot_diff_cols(const BasicMultiVec<T>& z,
                             const BasicMultiVec<T>& x,
                             const BasicMultiVec<T>& y);
/// Per-column Euclidean norms.
template <typename T>
std::vector<T> norm2_cols(const BasicMultiVec<T>& x);
/// Per-column entry sums.
template <typename T>
std::vector<T> sum_cols(const BasicMultiVec<T>& x);
/// Out-parameter forms of the reductions above: `out` is resized to k and
/// overwritten, so a caller that keeps it across iterations allocates
/// nothing.  Same bits as the returning forms.
template <typename T>
void dot_cols(const BasicMultiVec<T>& x, const BasicMultiVec<T>& y,
              std::vector<T>& out);
template <typename T>
void dot_diff_cols(const BasicMultiVec<T>& z, const BasicMultiVec<T>& x,
                   const BasicMultiVec<T>& y, std::vector<T>& out);
template <typename T>
void norm2_cols(const BasicMultiVec<T>& x, std::vector<T>& out);
/// x[:,c] *= a[c]
template <typename T>
void scale_cols(const std::vector<T>& a, BasicMultiVec<T>& x,
                const ColMask* mask = nullptr);
/// dst[:,c] = src[:,c]
template <typename T>
void copy_cols(const BasicMultiVec<T>& src, BasicMultiVec<T>& dst,
               const ColMask* mask = nullptr);
/// Subtracts each column's mean (projection onto 1-perp per column).
template <typename T>
void project_out_constant_cols(BasicMultiVec<T>& x,
                               const ColMask* mask = nullptr);

// ---- CSR SpMV / SpMM (callers pass the raw CSR arrays; csr_matrix.h owns
//      the structure; the SpMM value array has the block's element type) ----
void spmv(const std::size_t* off, const std::uint32_t* col, const double* val,
          std::size_t n, std::size_t nnz, const Vec& x, Vec& y);
template <typename T>
void spmm(const std::size_t* off, const std::uint32_t* col, const T* val,
          std::size_t n, std::size_t nnz, const BasicMultiVec<T>& x,
          BasicMultiVec<T>& y);

// ---- elimination fold / back-substitution (parallel over column chunks;
//      `folded`/`x` are full-height blocks in the eliminated graph's
//      original numbering) ----
template <typename T>
void fold_steps(const ElimStep* steps, std::size_t nsteps,
                BasicMultiVec<T>& folded);
template <typename T>
void backsub_steps(const ElimStep* steps, std::size_t nsteps,
                   const BasicMultiVec<T>& folded, BasicMultiVec<T>& x);

// ---- row gather/scatter (component assembly, elimination relabeling) ----
/// dst.row(i) = src.row(index[i]) for i in [0, dst.rows()).
template <typename T>
void gather_rows(const BasicMultiVec<T>& src, const std::uint32_t* index,
                 BasicMultiVec<T>& dst);
/// dst.row(index[i]) = src.row(i) for i in [0, src.rows()).
template <typename T>
void scatter_rows(const BasicMultiVec<T>& src, const std::uint32_t* index,
                  BasicMultiVec<T>& dst);

/// Precision converters between the f64 outer iteration and the f32 chain.
void narrow(const MultiVec& src, BasicMultiVec<float>& dst);
void widen(const BasicMultiVec<float>& src, MultiVec& dst);

}  // namespace parsdd::kernels
