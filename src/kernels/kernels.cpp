// Backend selection + the deterministic parallel entry points.
//
// Layer-2 wrappers here reproduce the EXACT block structure the historic
// kernels in multivec.cpp / vector_ops.cpp / csr_matrix.cpp /
// greedy_elimination.cpp used: canonical_blocks partitions, per-block left
// folds combined in index order, and the same GranularitySite gating — so a
// solve is bitwise identical to the pre-backend code under every backend
// and every pool size.  The masked column variants (they run only after a
// column freezes) and the row gather/scatter are not per-ISA; they use the
// same kernel templates as the tables (backend_detail.h), dispatched like
// the scalar table and built for the baseline ISA.
#include "kernels/kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernels/backend_detail.h"
#include "parallel/primitives.h"

namespace parsdd::kernels {

namespace {

const Backend& best_supported() {
  if (detail::avx512_supported()) return detail::avx512_backend();
  if (detail::avx2_supported()) return detail::avx2_backend();
  return detail::scalar_backend();
}

const Backend& pick_backend() {
  const char* env = std::getenv("PARSDD_SIMD");
  const char* req = (env != nullptr && *env != '\0') ? env : "auto";
  if (std::strcmp(req, "scalar") == 0) return detail::scalar_backend();
  if (std::strcmp(req, "avx2") == 0) {
    if (detail::avx2_supported()) return detail::avx2_backend();
    const Backend& fb = best_supported();
    std::fprintf(stderr,
                 "parsdd: PARSDD_SIMD=avx2 not supported by this CPU; "
                 "using '%s' (results are bitwise identical)\n",
                 fb.name);
    return fb;
  }
  if (std::strcmp(req, "avx512") == 0) {
    if (detail::avx512_supported()) return detail::avx512_backend();
    const Backend& fb = best_supported();
    std::fprintf(stderr,
                 "parsdd: PARSDD_SIMD=avx512 not supported by this CPU; "
                 "using '%s' (results are bitwise identical)\n",
                 fb.name);
    return fb;
  }
  if (std::strcmp(req, "auto") != 0) {
    std::fprintf(stderr,
                 "parsdd: unknown PARSDD_SIMD value '%s' "
                 "(want scalar|avx2|avx512|auto); using auto\n",
                 req);
  }
  return best_supported();
}

// Column-chunk width for batched fold/backsub: a full cache line of doubles
// per chunk avoids false sharing between workers on the same row (same
// constant the pre-backend greedy_elimination.cpp used).
constexpr std::size_t kColChunk = 8;

GranularitySite& rowwise_site() {
  static GranularitySite site("multivec.rowwise");
  return site;
}
GranularitySite& reduce_site() {
  static GranularitySite site("multivec.reduce_cols");
  return site;
}
GranularitySite& vec_site() {
  static GranularitySite site("kernels.vec");
  return site;
}
GranularitySite& vec_reduce_site() {
  static GranularitySite site("kernels.vec_reduce");
  return site;
}
// One site per entry point, shared by the double and float instantiations
// (a function-local static inside the templates would split them).
GranularitySite& spmm_site() {
  static GranularitySite site("csr.spmm", /*init_ns_per_unit=*/2.0);
  return site;
}
GranularitySite& fold_site() {
  static GranularitySite site("greedy.fold_block", /*init_ns_per_unit=*/3.0);
  return site;
}
GranularitySite& backsub_site() {
  static GranularitySite site("greedy.backsub_block",
                              /*init_ns_per_unit=*/3.0);
  return site;
}
GranularitySite& gather_site() {
  static GranularitySite site("kernels.gather");
  return site;
}
GranularitySite& scatter_site() {
  static GranularitySite site("kernels.scatter");
  return site;
}

// Runs fn(s, e) over the canonical blocks of [0, n) on the pool, or as one
// serial fn(0, n) call.  Legal only for partition-independent bodies
// (elementwise / per-row-independent kernels): the split cannot change bits.
template <typename Fn>
void run_elementwise(GranularitySite& site, std::size_t n, std::uint64_t work,
                     std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (work == 0) work = n;
  std::size_t nb = canonical_blocks(n, grain);
  if (nb > 1 && site.should_parallelize(work)) {
    std::size_t g = grain ? grain : kDefaultGrain;
    ThreadPool::instance().run_blocks(nb, [&](std::size_t b) {
      std::size_t s = b * g;
      std::size_t e = std::min(n, s + g);
      fn(s, e);
    });
    return;
  }
  parsdd::detail::SeqTimer timer(site, work);
  fn(0, n);
}

// Canonical per-block column reduction: per-block partials accumulated by a
// backend kernel, folded in index order — the historic reduce_cols
// structure from multivec.cpp, bit for bit.  Overwrites out[0, k).
template <typename T, typename AccFn>
void reduce_cols_blocks(GranularitySite& site, std::size_t rows,
                        std::size_t k, T* out, AccFn&& accblock) {
  std::fill(out, out + k, T(0));
  if (k == 0 || rows == 0) return;
  std::uint64_t work = static_cast<std::uint64_t>(rows) * k;
  std::size_t nb = canonical_blocks(rows, 0);
  if (nb == 1) {
    parsdd::detail::SeqTimer timer(site, work);
    accblock(0, rows, out);
    return;
  }
  // The partials are one flat nb x k buffer, on the stack for serving
  // shapes, so a reduction over a tall block allocates nothing.
  constexpr std::size_t kStackPartials = 256;
  const std::size_t np = nb * k;
  T stack_partial[kStackPartials] = {};
  std::vector<T> heap_partial(np > kStackPartials ? np : 0);
  T* partial = np > kStackPartials ? heap_partial.data() : stack_partial;
  std::size_t g = kDefaultGrain;
  auto block_fold = [&](std::size_t b) {
    std::size_t s = b * g, e = std::min(rows, s + g);
    accblock(s, e, partial + b * k);
  };
  if (site.should_parallelize(work)) {
    ThreadPool::instance().run_blocks(nb, block_fold);
  } else {
    parsdd::detail::SeqTimer timer(site, work);
    for (std::size_t b = 0; b < nb; ++b) block_fold(b);
  }
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t c = 0; c < k; ++c) out[c] += partial[b * k + c];
  }
}

template <typename T>
void sum_cols_into(const BasicMultiVec<T>& x, T* out) {
  std::size_t k = x.cols();
  const BlockOps<T>& ops = backend().ops<T>();
  reduce_cols_blocks<T>(
      reduce_site(), x.rows(), k, out,
      [&](std::size_t s, std::size_t e, T* acc) {
        ops.sum_cols_acc(x.row(s), e - s, k, acc);
      });
}

}  // namespace

const Backend& backend() {
  static const Backend& be = pick_backend();
  return be;
}

const char* backend_name() { return backend().name; }

// ---------------------------------------------------------------------------
// Vec BLAS-1: a Vec is an n x 1 block, so each entry point runs the f64
// table's k = 1 column kernel on the Vec's own storage, over the same
// canonical blocks and reduction fold as the column entry points.

void axpy(double a, const Vec& x, Vec& y) {
  assert(x.size() == y.size());
  const BlockOps<double>& ops = backend().f64;
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.axpy_cols(&a, x.data() + s, y.data() + s, e - s, 1);
                  });
}

void xpay(const Vec& x, double a, Vec& y) {
  assert(x.size() == y.size());
  const BlockOps<double>& ops = backend().f64;
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.xpay_cols(x.data() + s, &a, y.data() + s, e - s, 1);
                  });
}

double dot(const Vec& x, const Vec& y) {
  assert(x.size() == y.size());
  const BlockOps<double>& ops = backend().f64;
  double out = 0.0;
  reduce_cols_blocks<double>(
      vec_reduce_site(), x.size(), 1, &out,
      [&](std::size_t s, std::size_t e, double* acc) {
        ops.dot_cols_acc(x.data() + s, y.data() + s, e - s, 1, acc);
      });
  return out;
}

double norm2(const Vec& x) { return std::sqrt(dot(x, x)); }

void scale(double a, Vec& x) {
  const BlockOps<double>& ops = backend().f64;
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.scale_cols(&a, x.data() + s, e - s, 1);
                  });
}

Vec subtract(const Vec& x, const Vec& y) {
  assert(x.size() == y.size());
  // out = x + (-1) * y: negation is exact, so this is x - y bit for bit.
  Vec out = y;
  const double minus_one = -1.0;
  const BlockOps<double>& ops = backend().f64;
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.xpay_cols(x.data() + s, &minus_one, out.data() + s,
                                  e - s, 1);
                  });
  return out;
}

double sum(const Vec& x) {
  const BlockOps<double>& ops = backend().f64;
  double out = 0.0;
  reduce_cols_blocks<double>(vec_reduce_site(), x.size(), 1, &out,
                             [&](std::size_t s, std::size_t e, double* acc) {
                               ops.sum_cols_acc(x.data() + s, e - s, 1, acc);
                             });
  return out;
}

void project_out_constant(Vec& x) {
  if (x.empty()) return;
  double mean = sum(x) / static_cast<double>(x.size());
  const BlockOps<double>& ops = backend().f64;
  run_elementwise(vec_site(), x.size(), 0, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.sub_cols(&mean, x.data() + s, e - s, 1);
                  });
}

// ---------------------------------------------------------------------------
// MultiVec column kernels

template <typename T>
void axpy_cols(const std::vector<T>& a, const BasicMultiVec<T>& x,
               BasicMultiVec<T>& y, const ColMask* mask) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  assert(a.size() == x.cols());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (mask != nullptr) {
    run_elementwise(rowwise_site(), x.rows(), work, 0,
                    [&](std::size_t s, std::size_t e) {
                      detail::run_any_width<detail::AxpyCols<true>>(
                          k, a.data(), x.row(s), y.row(s), e - s,
                          mask->data());
                    });
    return;
  }
  const BlockOps<T>& ops = backend().ops<T>();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.axpy_cols(a.data(), x.row(s), y.row(s), e - s, k);
                  });
}

template <typename T>
void xpay_cols(const BasicMultiVec<T>& x, const std::vector<T>& a,
               BasicMultiVec<T>& y, const ColMask* mask) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  assert(a.size() == x.cols());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (mask != nullptr) {
    run_elementwise(rowwise_site(), x.rows(), work, 0,
                    [&](std::size_t s, std::size_t e) {
                      detail::run_any_width<detail::XpayCols<true>>(
                          k, x.row(s), a.data(), y.row(s), e - s,
                          mask->data());
                    });
    return;
  }
  const BlockOps<T>& ops = backend().ops<T>();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.xpay_cols(x.row(s), a.data(), y.row(s), e - s, k);
                  });
}

template <typename T>
void dot_cols(const BasicMultiVec<T>& x, const BasicMultiVec<T>& y,
              std::vector<T>& out) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  std::size_t k = x.cols();
  out.resize(k);
  const BlockOps<T>& ops = backend().ops<T>();
  reduce_cols_blocks<T>(reduce_site(), x.rows(), k, out.data(),
                        [&](std::size_t s, std::size_t e, T* acc) {
                          ops.dot_cols_acc(x.row(s), y.row(s), e - s, k, acc);
                        });
}

template <typename T>
std::vector<T> dot_cols(const BasicMultiVec<T>& x, const BasicMultiVec<T>& y) {
  std::vector<T> out;
  kernels::dot_cols(x, y, out);
  return out;
}

template <typename T>
void dot_diff_cols(const BasicMultiVec<T>& z, const BasicMultiVec<T>& x,
                   const BasicMultiVec<T>& y, std::vector<T>& out) {
  assert(z.rows() == x.rows() && x.rows() == y.rows());
  assert(z.cols() == x.cols() && x.cols() == y.cols());
  std::size_t k = x.cols();
  out.resize(k);
  const BlockOps<T>& ops = backend().ops<T>();
  reduce_cols_blocks<T>(
      reduce_site(), x.rows(), k, out.data(),
      [&](std::size_t s, std::size_t e, T* acc) {
        ops.dot_diff_cols_acc(z.row(s), x.row(s), y.row(s), e - s, k, acc);
      });
}

template <typename T>
std::vector<T> dot_diff_cols(const BasicMultiVec<T>& z,
                             const BasicMultiVec<T>& x,
                             const BasicMultiVec<T>& y) {
  std::vector<T> out;
  kernels::dot_diff_cols(z, x, y, out);
  return out;
}

template <typename T>
void norm2_cols(const BasicMultiVec<T>& x, std::vector<T>& out) {
  kernels::dot_cols(x, x, out);
  for (T& v : out) v = std::sqrt(v);
}

template <typename T>
std::vector<T> norm2_cols(const BasicMultiVec<T>& x) {
  std::vector<T> out;
  kernels::norm2_cols(x, out);
  return out;
}

template <typename T>
std::vector<T> sum_cols(const BasicMultiVec<T>& x) {
  std::vector<T> out(x.cols());
  sum_cols_into(x, out.data());
  return out;
}

template <typename T>
void scale_cols(const std::vector<T>& a, BasicMultiVec<T>& x,
                const ColMask* mask) {
  assert(a.size() == x.cols());
  std::size_t k = x.cols();
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (mask != nullptr) {
    run_elementwise(rowwise_site(), x.rows(), work, 0,
                    [&](std::size_t s, std::size_t e) {
                      detail::run_any_width<detail::ScaleCols<true>>(
                          k, a.data(), x.row(s), e - s, mask->data());
                    });
    return;
  }
  const BlockOps<T>& ops = backend().ops<T>();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.scale_cols(a.data(), x.row(s), e - s, k);
                  });
}

template <typename T>
void copy_cols(const BasicMultiVec<T>& src, BasicMultiVec<T>& dst,
               const ColMask* mask) {
  assert(src.rows() == dst.rows() && src.cols() == dst.cols());
  std::size_t k = src.cols();
  std::uint64_t work = static_cast<std::uint64_t>(src.rows()) * k;
  if (mask != nullptr) {
    run_elementwise(rowwise_site(), src.rows(), work, 0,
                    [&](std::size_t s, std::size_t e) {
                      detail::run_any_width<detail::CopyCols<true>>(
                          k, src.row(s), dst.row(s), e - s, mask->data());
                    });
    return;
  }
  const BlockOps<T>& ops = backend().ops<T>();
  run_elementwise(rowwise_site(), src.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.copy_cols(src.row(s), dst.row(s), e - s, k);
                  });
}

template <typename T>
void project_out_constant_cols(BasicMultiVec<T>& x, const ColMask* mask) {
  if (x.empty()) return;
  std::size_t k = x.cols();
  // Serving widths fit the stack buffer: no allocation per projection.
  constexpr std::size_t kStackCols = 16;
  T stack_mean[kStackCols] = {};
  std::vector<T> heap_mean(k > kStackCols ? k : 0);
  T* mean = k > kStackCols ? heap_mean.data() : stack_mean;
  sum_cols_into(x, mean);
  // Divide (not multiply by a reciprocal): bitwise-matches the single-column
  // project_out_constant so batched and single solves stay in lockstep.
  for (std::size_t c = 0; c < k; ++c) mean[c] /= static_cast<T>(x.rows());
  std::uint64_t work = static_cast<std::uint64_t>(x.rows()) * k;
  if (mask != nullptr) {
    run_elementwise(rowwise_site(), x.rows(), work, 0,
                    [&](std::size_t s, std::size_t e) {
                      detail::run_any_width<detail::SubCols<true>>(
                          k, mean, x.row(s), e - s, mask->data());
                    });
    return;
  }
  const BlockOps<T>& ops = backend().ops<T>();
  run_elementwise(rowwise_site(), x.rows(), work, 0,
                  [&](std::size_t s, std::size_t e) {
                    ops.sub_cols(mean, x.row(s), e - s, k);
                  });
}

// ---------------------------------------------------------------------------
// CSR

void spmv(const std::size_t* off, const std::uint32_t* col, const double* val,
          std::size_t n, std::size_t nnz, const Vec& x, Vec& y) {
  assert(x.size() == n && y.size() == n);
  static GranularitySite site("csr.spmv", /*init_ns_per_unit=*/2.0);
  const BlockOps<double>& ops = backend().f64;
  run_elementwise(site, n, nnz, /*grain=*/512,
                  [&](std::size_t s, std::size_t e) {
                    ops.spmm_rows(off, col, val, x.data(), y.data(), s, e, 1);
                  });
}

template <typename T>
void spmm(const std::size_t* off, const std::uint32_t* col, const T* val,
          std::size_t n, std::size_t nnz, const BasicMultiVec<T>& x,
          BasicMultiVec<T>& y) {
  assert(x.rows() == n && y.rows() == n && x.cols() == y.cols());
  std::size_t k = x.cols();
  const BlockOps<T>& ops = backend().ops<T>();
  run_elementwise(spmm_site(), n, nnz * k, /*grain=*/512,
                  [&](std::size_t s, std::size_t e) {
                    ops.spmm_rows(off, col, val, x.data().data(),
                                  y.data().data(), s, e, k);
                  });
}

// ---------------------------------------------------------------------------
// Elimination fold / back-substitution

template <typename T>
void fold_steps(const ElimStep* steps, std::size_t nsteps,
                BasicMultiVec<T>& folded) {
  std::size_t k = folded.cols();
  std::size_t nchunks = (k + kColChunk - 1) / kColChunk;
  const BlockOps<T>& ops = backend().ops<T>();
  T* data = folded.data().data();
  run_elementwise(fold_site(), nchunks, nsteps * k, /*grain=*/1,
                  [&](std::size_t s, std::size_t e) {
                    for (std::size_t ch = s; ch < e; ++ch) {
                      std::size_t c0 = ch * kColChunk;
                      std::size_t c1 = std::min(k, c0 + kColChunk);
                      ops.fold_cols(steps, nsteps, data, k, c0, c1);
                    }
                  });
}

template <typename T>
void backsub_steps(const ElimStep* steps, std::size_t nsteps,
                   const BasicMultiVec<T>& folded, BasicMultiVec<T>& x) {
  std::size_t k = folded.cols();
  std::size_t nchunks = (k + kColChunk - 1) / kColChunk;
  const BlockOps<T>& ops = backend().ops<T>();
  const T* fdata = folded.data().data();
  T* xdata = x.data().data();
  run_elementwise(backsub_site(), nchunks, nsteps * k, /*grain=*/1,
                  [&](std::size_t s, std::size_t e) {
                    for (std::size_t ch = s; ch < e; ++ch) {
                      std::size_t c0 = ch * kColChunk;
                      std::size_t c1 = std::min(k, c0 + kColChunk);
                      ops.backsub_cols(steps, nsteps, fdata, xdata, k, c0, c1);
                    }
                  });
}

// ---------------------------------------------------------------------------
// Row gather/scatter

// dst row i = src row index[i] (gather), or dst row index[i] = src row i
// (scatter), for the n rows of one block.
template <bool kScatter>
struct IndexedRowCopy {
  template <std::size_t K, typename T>
  PARSDD_ALWAYS_INLINE static void run(std::size_t k, const T* src,
                                       const std::uint32_t* index, T* dst,
                                       std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t si = kScatter ? i : index[i];
      const std::size_t di = kScatter ? index[i] : i;
      const detail::Lanes<K, const T> s(src + si * k, k);
      detail::Lanes<K, T> d(dst + di * k, k);
      for (std::size_t c = 0; c < d.size(); ++c) d[c] = s[c];
      d.commit();
    }
  }
};

template <typename T>
void gather_rows(const BasicMultiVec<T>& src, const std::uint32_t* index,
                 BasicMultiVec<T>& dst) {
  assert(src.cols() == dst.cols());
  std::size_t k = dst.cols();
  run_elementwise(gather_site(), dst.rows(),
                  static_cast<std::uint64_t>(dst.rows()) * k, 0,
                  [&](std::size_t s, std::size_t e) {
                    detail::run_any_width<IndexedRowCopy<false>>(
                        k, src.data().data(), index + s, dst.row(s), e - s);
                  });
}

template <typename T>
void scatter_rows(const BasicMultiVec<T>& src, const std::uint32_t* index,
                  BasicMultiVec<T>& dst) {
  assert(src.cols() == dst.cols());
  std::size_t k = src.cols();
  run_elementwise(scatter_site(), src.rows(),
                  static_cast<std::uint64_t>(src.rows()) * k, 0,
                  [&](std::size_t s, std::size_t e) {
                    detail::run_any_width<IndexedRowCopy<true>>(
                        k, src.row(s), index + s, dst.data().data(), e - s);
                  });
}

// ---------------------------------------------------------------------------
// Precision conversion (mixed-precision chain boundary)

void narrow(const MultiVec& src, BasicMultiVec<float>& dst) {
  ensure_shape(dst, src.rows(), src.cols());
  std::size_t k = src.cols();
  static GranularitySite site("kernels.convert");
  parallel_for(
      site, 0, src.rows(),
      [&](std::size_t i) {
        const double* s = src.row(i);
        float* d = dst.row(i);
        for (std::size_t c = 0; c < k; ++c) d[c] = static_cast<float>(s[c]);
      },
      0, static_cast<std::uint64_t>(src.rows()) * k);
}

void widen(const BasicMultiVec<float>& src, MultiVec& dst) {
  ensure_shape(dst, src.rows(), src.cols());
  std::size_t k = src.cols();
  static GranularitySite site("kernels.convert");
  parallel_for(
      site, 0, src.rows(),
      [&](std::size_t i) {
        const float* s = src.row(i);
        double* d = dst.row(i);
        for (std::size_t c = 0; c < k; ++c) d[c] = static_cast<double>(s[c]);
      },
      0, static_cast<std::uint64_t>(src.rows()) * k);
}

// ---------------------------------------------------------------------------
// The element types the block entry points are built for.

#define PARSDD_KERNELS_INSTANTIATE(T)                                        \
  template void axpy_cols(const std::vector<T>&, const BasicMultiVec<T>&,    \
                          BasicMultiVec<T>&, const ColMask*);                \
  template void xpay_cols(const BasicMultiVec<T>&, const std::vector<T>&,    \
                          BasicMultiVec<T>&, const ColMask*);                \
  template std::vector<T> dot_cols(const BasicMultiVec<T>&,                  \
                                   const BasicMultiVec<T>&);                 \
  template std::vector<T> dot_diff_cols(const BasicMultiVec<T>&,             \
                                        const BasicMultiVec<T>&,             \
                                        const BasicMultiVec<T>&);            \
  template std::vector<T> norm2_cols(const BasicMultiVec<T>&);               \
  template std::vector<T> sum_cols(const BasicMultiVec<T>&);                 \
  template void dot_cols(const BasicMultiVec<T>&, const BasicMultiVec<T>&,   \
                         std::vector<T>&);                                   \
  template void dot_diff_cols(const BasicMultiVec<T>&,                       \
                              const BasicMultiVec<T>&,                       \
                              const BasicMultiVec<T>&, std::vector<T>&);     \
  template void norm2_cols(const BasicMultiVec<T>&, std::vector<T>&);        \
  template void scale_cols(const std::vector<T>&, BasicMultiVec<T>&,         \
                           const ColMask*);                                  \
  template void copy_cols(const BasicMultiVec<T>&, BasicMultiVec<T>&,        \
                          const ColMask*);                                   \
  template void project_out_constant_cols(BasicMultiVec<T>&, const ColMask*); \
  template void spmm(const std::size_t*, const std::uint32_t*, const T*,     \
                     std::size_t, std::size_t, const BasicMultiVec<T>&,      \
                     BasicMultiVec<T>&);                                     \
  template void fold_steps(const ElimStep*, std::size_t, BasicMultiVec<T>&); \
  template void backsub_steps(const ElimStep*, std::size_t,                  \
                              const BasicMultiVec<T>&, BasicMultiVec<T>&);   \
  template void gather_rows(const BasicMultiVec<T>&, const std::uint32_t*,   \
                            BasicMultiVec<T>&);                              \
  template void scatter_rows(const BasicMultiVec<T>&, const std::uint32_t*,  \
                             BasicMultiVec<T>&);

PARSDD_KERNELS_INSTANTIATE(double)
PARSDD_KERNELS_INSTANTIATE(float)
#undef PARSDD_KERNELS_INSTANTIATE

}  // namespace parsdd::kernels
