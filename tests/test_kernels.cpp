// Kernel backend API: dispatch, per-kernel correctness at awkward shapes,
// and the bitwise-SIMD contract (DESIGN.md §9).
//
// The correctness tests compare every layer-2 entry point against a naive
// serial reference at sizes that are NOT multiples of any vector width
// (rows = 257, k = 5), so remainder handling in the per-ISA tables is always
// exercised.  TableKernels.* call every op table the CPU supports directly,
// at every narrow width (k = 1..7, the compile-time-width path) and at the
// register-group shapes (k = 8..33), and run the Vec entry points (the
// tables' k = 1 kernels) once per table.  The contract tests re-execute
// this binary per PARSDD_SIMD value (the env var is read once per process —
// same subprocess pattern as test_granularity) and demand that a full
// default-options chain solve, single and batched (k = 3, 4, 16), is
// byte-identical across {scalar, avx2, avx512, auto}.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "file_test_util.h"
#include "graph/generators.h"
#include "kernels/backend_detail.h"
#include "kernels/kernels.h"
#include "linalg/csr_matrix.h"
#include "linalg/laplacian.h"
#include "parallel/granularity.h"
#include "parallel/rng.h"
#include "solver/solver_setup.h"

namespace parsdd {
namespace {

constexpr std::size_t kRows = 257;  // prime: never a vector-width multiple
constexpr std::size_t kCols = 5;    // odd k: exercises remainder columns

MultiVec filled(std::uint64_t seed, std::size_t rows = kRows,
                std::size_t cols = kCols) {
  Rng rng(seed);
  MultiVec m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = rng.uniform(i) - 0.5;
  }
  return m;
}

Vec filled_vec(std::uint64_t seed, std::size_t n = kRows) {
  Rng rng(seed);
  Vec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(i) - 0.5;
  return v;
}

TEST(BackendSelection, NameMatchesTableAndLevel) {
  const kernels::Backend& b = kernels::backend();
  std::string name = kernels::backend_name();
  EXPECT_STREQ(b.name, name.c_str());
  if (name == "scalar") {
    EXPECT_EQ(b.level, kernels::SimdLevel::kScalar);
  } else if (name == "avx2") {
    EXPECT_EQ(b.level, kernels::SimdLevel::kAvx2);
  } else if (name == "avx512") {
    EXPECT_EQ(b.level, kernels::SimdLevel::kAvx512);
  } else {
    FAIL() << "unknown backend name '" << name << "'";
  }
  // Every function pointer is populated: a partially filled table would
  // crash deep inside a solve instead of here.
  EXPECT_NE(b.f64.axpy_cols, nullptr);
  EXPECT_NE(b.f64.spmm_rows, nullptr);
  EXPECT_NE(b.f32.backsub_cols, nullptr);
  // ops<T>() hands the generic entry points the table for their type.
  EXPECT_EQ(&b.ops<double>(), &b.f64);
  EXPECT_EQ(&b.ops<float>(), &b.f32);
}

// ---------------------------------------------------------------------------
// Vec BLAS-1 against naive references.

TEST(VecKernels, MatchNaiveReference) {
  Vec x = filled_vec(1), y0 = filled_vec(2);

  Vec y = y0;
  kernels::axpy(0.75, x, y);
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(y[i], y0[i] + 0.75 * x[i]) << i;
  }

  y = y0;
  kernels::xpay(x, -1.25, y);
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(y[i], x[i] + -1.25 * y0[i]) << i;
  }

  double d = 0.0, s = 0.0;
  for (std::size_t i = 0; i < kRows; ++i) {
    d += x[i] * y0[i];  // serial chain: must match exactly, any backend
    s += x[i];
  }
  EXPECT_EQ(kernels::dot(x, y0), d);
  EXPECT_EQ(kernels::sum(x), s);
  EXPECT_EQ(kernels::norm2(x), std::sqrt(kernels::dot(x, x)));

  y = y0;
  kernels::scale(3.0, y);
  for (std::size_t i = 0; i < kRows; ++i) ASSERT_EQ(y[i], 3.0 * y0[i]) << i;

  Vec diff = kernels::subtract(x, y0);
  for (std::size_t i = 0; i < kRows; ++i) ASSERT_EQ(diff[i], x[i] - y0[i]);

  y = y0;
  kernels::project_out_constant(y);
  double mean = s / static_cast<double>(kRows);
  (void)mean;  // projection subtracts y's own mean, checked via sum ~ 0
  EXPECT_NEAR(kernels::sum(y), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Column kernels against naive references, with and without masks.

TEST(ColKernels, AxpyXpayScaleCopyMatchNaive) {
  MultiVec x = filled(10), y0 = filled(11);
  ColScalars a = {0.5, -2.0, 1.0 / 3.0, 0.0, 7.25};

  MultiVec y = y0;
  kernels::axpy_cols(a, x, y);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      ASSERT_EQ(y.at(i, c), y0.at(i, c) + a[c] * x.at(i, c)) << i << "," << c;
    }
  }

  y = y0;
  kernels::xpay_cols(x, a, y);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      ASSERT_EQ(y.at(i, c), x.at(i, c) + a[c] * y0.at(i, c)) << i << "," << c;
    }
  }

  y = y0;
  kernels::scale_cols(a, y);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      ASSERT_EQ(y.at(i, c), a[c] * y0.at(i, c));
    }
  }

  y.assign(kRows, kCols, 0.0);
  kernels::copy_cols(x, y);
  EXPECT_EQ(y.data(), x.data());
}

TEST(ColKernels, ReductionsMatchSerialChain) {
  MultiVec x = filled(20), y = filled(21), z = filled(22);
  ColScalars dot_ref(kCols, 0.0), diff_ref(kCols, 0.0), sum_ref(kCols, 0.0);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      dot_ref[c] += x.at(i, c) * y.at(i, c);
      diff_ref[c] += z.at(i, c) * (x.at(i, c) - y.at(i, c));
      sum_ref[c] += x.at(i, c);
    }
  }
  // kRows < kDefaultGrain: one canonical block, so the kernel's reduction
  // chain is the serial chain and equality is exact.
  EXPECT_EQ(kernels::dot_cols(x, y), dot_ref);
  EXPECT_EQ(kernels::dot_diff_cols(z, x, y), diff_ref);
  EXPECT_EQ(kernels::sum_cols(x), sum_ref);
  ColScalars n2 = kernels::norm2_cols(x);
  ColScalars self = kernels::dot_cols(x, x);
  for (std::size_t c = 0; c < kCols; ++c) {
    ASSERT_EQ(n2[c], std::sqrt(self[c]));
  }
}

TEST(ColKernels, MaskedColumnsBitwiseUntouched) {
  MultiVec x = filled(30), y0 = filled(31);
  ColScalars a = {1.5, 2.5, -0.5, 4.0, 0.125};
  ColMask mask = {1, 0, 1, 0, 1};

  MultiVec y = y0;
  kernels::axpy_cols(a, x, y, &mask);
  MultiVec y2 = y0;
  kernels::scale_cols(a, y2, &mask);
  MultiVec y3 = y0;
  kernels::project_out_constant_cols(y3, &mask);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      if (mask[c]) {
        ASSERT_EQ(y.at(i, c), y0.at(i, c) + a[c] * x.at(i, c));
      } else {
        // Bitwise untouched, not merely numerically equal.
        ASSERT_EQ(std::memcmp(&y.at(i, c), &y0.at(i, c), sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&y2.at(i, c), &y0.at(i, c), sizeof(double)), 0);
        ASSERT_EQ(std::memcmp(&y3.at(i, c), &y0.at(i, c), sizeof(double)), 0);
      }
    }
  }
}

TEST(ColKernels, ProjectOutConstantZeroesColumnMeans) {
  MultiVec x = filled(40);
  kernels::project_out_constant_cols(x);
  ColScalars sums = kernels::sum_cols(x);
  for (std::size_t c = 0; c < kCols; ++c) {
    EXPECT_NEAR(sums[c], 0.0, 1e-12) << c;
  }
}

// ---------------------------------------------------------------------------
// Every supported op table, both element types, every BlockOps kernel and
// the masked layer-2 variants, against plain per-column reference loops
// (the IEEE sequence DESIGN.md §9 fixes), compared byte for byte.

// The narrow widths 1..7, then the register-group shapes of the per-ISA
// tables: one half group (8), half group + tail (9, 12, 15), one full
// group (16) and its tail (17), full + half group (24) and full + half +
// tail (33).
const std::size_t kTableWidths[] = {1, 2,  3,  4,  5,  6,  7,  8,
                                    9, 12, 15, 16, 17, 24, 33};

std::vector<const kernels::Backend*> supported_tables() {
  std::vector<const kernels::Backend*> t = {
      &kernels::detail::scalar_backend()};
  if (kernels::detail::avx2_supported()) {
    t.push_back(&kernels::detail::avx2_backend());
  }
  if (kernels::detail::avx512_supported()) {
    t.push_back(&kernels::detail::avx512_backend());
  }
  return t;
}

template <typename T>
std::vector<T> table_data(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<T>(rng.uniform(i) - 0.5);
  }
  return v;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// A ragged CSR over kRows rows: 1-5 nonzeros per row, scattered columns.
struct TestCsr {
  std::vector<std::size_t> off{0};
  std::vector<std::uint32_t> col;
};
TestCsr test_csr() {
  TestCsr m;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j <= i % 5; ++j) {
      m.col.push_back(static_cast<std::uint32_t>((i * 7 + j * 53) % kRows));
    }
    m.off.push_back(m.col.size());
  }
  return m;
}

// Elimination records over kRows vertices: each step eliminates v = s and
// folds into 0, 1 or 2 later vertices (backsub reads them back).
std::vector<kernels::ElimStep> test_steps() {
  std::vector<kernels::ElimStep> steps;
  Rng rng(99);
  for (std::uint32_t v = 0; v + 2 < kRows; ++v) {
    kernels::ElimStep s;
    s.v = v;
    s.degree = v % 3;
    s.u1 = v + 1 + static_cast<std::uint32_t>(rng.uniform(2 * v) * 1.5);
    s.u2 = s.u1 + 1;
    if (s.degree >= 1) s.w1 = 0.25 + rng.uniform(2 * v + 1);
    if (s.degree == 2) s.w2 = 0.5 + rng.uniform(2 * v + 1);
    s.pivot = s.w1 + s.w2 + (s.degree == 0 ? 1.0 : 0.0);
    steps.push_back(s);
  }
  return steps;
}

template <typename T>
void check_table(const kernels::BlockOps<T>& ops, std::size_t k) {
  const std::size_t n = kRows * k;
  const std::vector<T> x = table_data<T>(1, n), y0 = table_data<T>(2, n),
                       z = table_data<T>(3, n), a = table_data<T>(4, k),
                       acc0 = table_data<T>(5, k);

  auto elementwise = [&](auto&& kernel, auto&& ref) {
    std::vector<T> got = y0, want = y0;
    kernel(got);
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < k; ++c) ref(want[r * k + c], r * k + c, c);
    }
    return same_bytes(got, want);
  };
  EXPECT_TRUE(elementwise(
      [&](std::vector<T>& v) {
        ops.axpy_cols(a.data(), x.data(), v.data(), kRows, k);
      },
      [&](T& v, std::size_t i, std::size_t c) { v += a[c] * x[i]; }))
      << "axpy_cols";
  EXPECT_TRUE(elementwise(
      [&](std::vector<T>& v) {
        ops.xpay_cols(x.data(), a.data(), v.data(), kRows, k);
      },
      [&](T& v, std::size_t i, std::size_t c) { v = x[i] + a[c] * v; }))
      << "xpay_cols";
  EXPECT_TRUE(elementwise(
      [&](std::vector<T>& v) { ops.scale_cols(a.data(), v.data(), kRows, k); },
      [&](T& v, std::size_t, std::size_t c) { v *= a[c]; }))
      << "scale_cols";
  EXPECT_TRUE(elementwise(
      [&](std::vector<T>& v) { ops.sub_cols(a.data(), v.data(), kRows, k); },
      [&](T& v, std::size_t, std::size_t c) { v -= a[c]; }))
      << "sub_cols";
  EXPECT_TRUE(elementwise(
      [&](std::vector<T>& v) { ops.copy_cols(x.data(), v.data(), kRows, k); },
      [&](T& v, std::size_t i, std::size_t) { v = x[i]; }))
      << "copy_cols";

  auto reduction = [&](auto&& kernel, auto&& term) {
    std::vector<T> got = acc0, want = acc0;
    kernel(got.data());
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < k; ++c) want[c] += term(r * k + c);
    }
    return same_bytes(got, want);
  };
  EXPECT_TRUE(reduction(
      [&](T* acc) { ops.dot_cols_acc(x.data(), y0.data(), kRows, k, acc); },
      [&](std::size_t i) { return x[i] * y0[i]; }))
      << "dot_cols_acc";
  EXPECT_TRUE(reduction(
      [&](T* acc) {
        ops.dot_diff_cols_acc(z.data(), x.data(), y0.data(), kRows, k, acc);
      },
      [&](std::size_t i) { return z[i] * (x[i] - y0[i]); }))
      << "dot_diff_cols_acc";
  EXPECT_TRUE(reduction(
      [&](T* acc) { ops.sum_cols_acc(x.data(), kRows, k, acc); },
      [&](std::size_t i) { return x[i]; }))
      << "sum_cols_acc";

  // SpMM over a row sub-range: rows outside [r0, kRows) keep their bytes.
  const TestCsr m = test_csr();
  const std::vector<T> val = table_data<T>(6, m.col.size());
  const std::size_t r0 = 3;
  std::vector<T> got = y0, want = y0;
  ops.spmm_rows(m.off.data(), m.col.data(), val.data(), x.data(), got.data(),
                r0, kRows, k);
  for (std::size_t i = r0; i < kRows; ++i) {
    for (std::size_t c = 0; c < k; ++c) {
      T acc = T(0);
      for (std::size_t p = m.off[i]; p < m.off[i + 1]; ++p) {
        acc += val[p] * x[m.col[p] * k + c];
      }
      want[i * k + c] = acc;
    }
  }
  EXPECT_TRUE(same_bytes(got, want)) << "spmm_rows";

  // Fold then back-substitute, in column chunks of 8 as layer 2 runs them,
  // so k = 9..15, 17 and 33 also exercise a narrow tail chunk.
  const std::vector<kernels::ElimStep> steps = test_steps();
  const std::size_t chunk = 8;
  std::vector<T> folded = y0, folded_ref = y0;
  for (std::size_t c0 = 0; c0 < k; c0 += chunk) {
    ops.fold_cols(steps.data(), steps.size(), folded.data(), k, c0,
                  std::min(k, c0 + chunk));
  }
  for (const kernels::ElimStep& s : steps) {
    for (std::size_t c = 0; c < k; ++c) {
      const T fv = folded_ref[s.v * k + c];
      if (s.degree >= 1) {
        folded_ref[s.u1 * k + c] += static_cast<T>(s.w1 / s.pivot) * fv;
      }
      if (s.degree == 2) {
        folded_ref[s.u2 * k + c] += static_cast<T>(s.w2 / s.pivot) * fv;
      }
    }
  }
  EXPECT_TRUE(same_bytes(folded, folded_ref)) << "fold_cols";

  std::vector<T> xs = z, xs_ref = z;
  for (std::size_t c0 = 0; c0 < k; c0 += chunk) {
    ops.backsub_cols(steps.data(), steps.size(), folded_ref.data(), xs.data(),
                     k, c0, std::min(k, c0 + chunk));
  }
  for (std::size_t si = steps.size(); si-- > 0;) {
    const kernels::ElimStep& s = steps[si];
    const T piv = static_cast<T>(s.pivot);
    for (std::size_t c = 0; c < k; ++c) {
      const T fb = folded_ref[s.v * k + c];
      T& xv = xs_ref[s.v * k + c];
      if (s.degree == 0) {
        xv = T(0);
      } else if (s.degree == 1) {
        xv = fb / piv + xs_ref[s.u1 * k + c];
      } else {
        xv = (fb + static_cast<T>(s.w1) * xs_ref[s.u1 * k + c] +
              static_cast<T>(s.w2) * xs_ref[s.u2 * k + c]) /
             piv;
      }
    }
  }
  EXPECT_TRUE(same_bytes(xs, xs_ref)) << "backsub_cols";
}

TEST(TableKernels, EveryTableMatchesReferenceAtEveryWidth) {
  for (const kernels::Backend* be : supported_tables()) {
    for (std::size_t k : kTableWidths) {
      SCOPED_TRACE(std::string(be->name) + " k=" + std::to_string(k));
      {
        SCOPED_TRACE("f64");
        check_table<double>(be->f64, k);
      }
      {
        SCOPED_TRACE("f32");
        check_table<float>(be->f32, k);
      }
    }
  }
}

// The masked column kernels, the projection and the row gather/scatter are
// layer-2 code (one implementation, not per table): same widths, both
// element types, a mask with live and frozen columns.
template <typename T>
void check_masked(std::size_t k) {
  auto block = [&](std::uint64_t seed) {
    BasicMultiVec<T> m(kRows, k);
    const std::vector<T> v = table_data<T>(seed, kRows * k);
    std::copy(v.begin(), v.end(), m.data().begin());
    return m;
  };
  const BasicMultiVec<T> x = block(11), y0 = block(12);
  const std::vector<T> a = table_data<T>(13, k);
  ColMask mask(k);
  for (std::size_t c = 0; c < k; ++c) mask[c] = (c % 3 != 1);
  std::vector<T> col_sum(k, T(0));
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < k; ++c) col_sum[c] += y0.at(r, c);
  }

  auto check = [&](const char* what, auto&& kernel, auto&& ref) {
    BasicMultiVec<T> got = y0;
    kernel(got);
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        T want = y0.at(r, c);
        if (mask[c]) ref(want, r, c);
        ASSERT_EQ(std::memcmp(got.row(r) + c, &want, sizeof(T)), 0)
            << what << " row " << r << " col " << c;
      }
    }
  };
  using Block = BasicMultiVec<T>;
  check("axpy_cols", [&](Block& v) { kernels::axpy_cols(a, x, v, &mask); },
        [&](T& v, std::size_t r, std::size_t c) { v += a[c] * x.at(r, c); });
  check("xpay_cols", [&](Block& v) { kernels::xpay_cols(x, a, v, &mask); },
        [&](T& v, std::size_t r, std::size_t c) { v = x.at(r, c) + a[c] * v; });
  check("scale_cols", [&](Block& v) { kernels::scale_cols(a, v, &mask); },
        [&](T& v, std::size_t, std::size_t c) { v *= a[c]; });
  check("copy_cols", [&](Block& v) { kernels::copy_cols(x, v, &mask); },
        [&](T& v, std::size_t r, std::size_t c) { v = x.at(r, c); });
  check("project_out_constant_cols",
        [&](Block& v) { kernels::project_out_constant_cols(v, &mask); },
        [&](T& v, std::size_t, std::size_t c) {
          v -= col_sum[c] / static_cast<T>(kRows);
        });

  std::vector<std::uint32_t> perm(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    perm[i] = static_cast<std::uint32_t>((i * 131) % kRows);
  }
  BasicMultiVec<T> gathered(kRows, k), back(kRows, k);
  kernels::gather_rows(x, perm.data(), gathered);
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(std::memcmp(gathered.row(i), x.row(perm[i]), k * sizeof(T)), 0)
        << "gather_rows row " << i;
  }
  kernels::scatter_rows(gathered, perm.data(), back);
  EXPECT_EQ(back.data(), x.data()) << "scatter_rows";
}

TEST(TableKernels, MaskedAndRowKernelsMatchReferenceAtEveryWidth) {
  for (std::size_t k : kTableWidths) {
    SCOPED_TRACE("k=" + std::to_string(k));
    check_masked<double>(k);
    check_masked<float>(k);
  }
}

// ---------------------------------------------------------------------------
// Sparse kernels against a naive triple loop.

TEST(SparseKernels, SpmvSpmmMatchNaive) {
  GeneratedGraph g = grid2d(13, 11);  // odd dims: ragged row lengths
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  const std::size_t* off = lap.offsets();
  const std::uint32_t* col = lap.cols();
  const double* val = lap.vals();

  Vec x = filled_vec(50, g.n);
  Vec y(g.n, 0.0);
  kernels::spmv(off, col, val, g.n, lap.num_nonzeros(), x, y);
  for (std::size_t i = 0; i < g.n; ++i) {
    double acc = 0.0;
    for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
      acc += val[p] * x[col[p]];
    }
    ASSERT_EQ(y[i], acc) << i;
  }

  MultiVec xm = filled(51, g.n, kCols);
  MultiVec ym(g.n, kCols, 0.0);
  kernels::spmm(off, col, val, g.n, lap.num_nonzeros(), xm, ym);
  for (std::size_t i = 0; i < g.n; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      double acc = 0.0;
      for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
        acc += val[p] * xm.at(col[p], c);
      }
      ASSERT_EQ(ym.at(i, c), acc) << i << "," << c;
    }
  }
}

TEST(RowKernels, GatherScatterRoundTrip) {
  MultiVec src = filled(60);
  // A fixed permutation: gather through it, scatter back, recover src.
  std::vector<std::uint32_t> perm(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    perm[i] = static_cast<std::uint32_t>((i * 131) % kRows);  // 131 coprime
  }
  MultiVec gathered(kRows, kCols);
  kernels::gather_rows(src, perm.data(), gathered);
  for (std::size_t i = 0; i < kRows; ++i) {
    ASSERT_EQ(std::memcmp(gathered.row(i), src.row(perm[i]),
                          kCols * sizeof(double)),
              0);
  }
  MultiVec back(kRows, kCols, 0.0);
  kernels::scatter_rows(gathered, perm.data(), back);
  EXPECT_EQ(back.data(), src.data());
}

// ---------------------------------------------------------------------------
// The float instantiations of the generic entry points.

TEST(F32Kernels, NarrowWidenRoundTripAndColOps) {
  MultiVec x64 = filled(70);
  BasicMultiVec<float> x32, y32;
  kernels::narrow(x64, x32);
  ASSERT_EQ(x32.rows(), kRows);
  ASSERT_EQ(x32.cols(), kCols);
  for (std::size_t i = 0; i < kRows * kCols; ++i) {
    ASSERT_EQ(x32.data()[i], static_cast<float>(x64.data()[i]));
  }
  MultiVec wide;
  kernels::widen(x32, wide);
  for (std::size_t i = 0; i < kRows * kCols; ++i) {
    ASSERT_EQ(wide.data()[i], static_cast<double>(x32.data()[i]));
  }

  y32.assign(kRows, kCols, 0.0f);
  kernels::copy_cols(x32, y32);
  EXPECT_EQ(y32.data(), x32.data());

  std::vector<float> a = {0.5f, -2.0f, 0.25f, 3.0f, -1.0f};
  BasicMultiVec<float> y0 = x32;
  kernels::axpy_cols(a, x32, y32);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      ASSERT_EQ(y32.row(i)[c], x32.row(i)[c] + a[c] * y0.row(i)[c]);
    }
  }

  std::vector<float> dots = kernels::dot_cols(x32, x32);
  std::vector<float> ref(kCols, 0.0f);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      ref[c] += x32.row(i)[c] * x32.row(i)[c];
    }
  }
  EXPECT_EQ(dots, ref);
}

TEST(F32Kernels, Spmm32MatchesNaive) {
  GeneratedGraph g = grid2d(9, 7);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  std::vector<float> val32(lap.vals(), lap.vals() + lap.num_nonzeros());
  MultiVec x64 = filled(80, g.n, kCols);
  BasicMultiVec<float> x32, y32;
  kernels::narrow(x64, x32);
  y32.assign(g.n, kCols, 0.0f);
  kernels::spmm(lap.offsets(), lap.cols(), val32.data(), g.n,
                lap.num_nonzeros(), x32, y32);
  for (std::size_t i = 0; i < g.n; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) {
      float acc = 0.0f;
      for (std::size_t p = lap.offsets()[i]; p < lap.offsets()[i + 1]; ++p) {
        acc += val32[p] * x32.row(lap.cols()[p])[c];
      }
      ASSERT_EQ(y32.row(i)[c], acc) << i << "," << c;
    }
  }
}

// ---------------------------------------------------------------------------
// The bitwise-SIMD contract: a full chain solve is byte-identical under
// every PARSDD_SIMD setting.  The env var is latched on first backend()
// use, so each configuration runs in a child process.

// Child mode: default-options chain solve on a fixed grid, raw solution
// bytes dumped to the env-named file.  Also a smoke test under plain ctest.
TEST(KernelsChild, SolveAndDump) {
  GeneratedGraph g = grid2d(24, 24);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  Vec b = random_unit_like(g.n, 777);
  kernels::project_out_constant(b);
  StatusOr<Vec> x = setup.solve(b);
  ASSERT_TRUE(x.ok()) << x.status().to_string();
  // The serving widths run the narrow-block kernels; k = 16 runs the
  // per-ISA tables' register groups.
  std::vector<MultiVec> batches;
  for (std::size_t k : {3, 4, 16}) {
    MultiVec bk(g.n, k);
    for (std::size_t c = 0; c < k; ++c) {
      Vec col = random_unit_like(g.n, 900 + 10 * k + c);
      kernels::project_out_constant(col);
      bk.set_column(c, col);
    }
    StatusOr<MultiVec> xk = setup.solve_batch(bk);
    ASSERT_TRUE(xk.ok()) << xk.status().to_string();
    batches.push_back(std::move(*xk));
  }

  const char* out = std::getenv("PARSDD_KERNELS_OUT");
  if (!out) return;
  std::FILE* f = std::fopen(out, "wb");
  ASSERT_NE(f, nullptr) << out;
  ASSERT_EQ(std::fwrite(x->data(), sizeof(double), x->size(), f), x->size());
  for (const MultiVec& xk : batches) {
    const std::size_t n = xk.data().size();
    ASSERT_EQ(std::fwrite(xk.data().data(), sizeof(double), n, f), n);
  }
  std::fclose(f);
}

std::string self_exe() {
  char buf[4096];
  ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(len, 0);
  buf[len > 0 ? len : 0] = '\0';
  return buf;
}

using test_util::file_bytes;

TEST(Kernels, BackendsBitwiseIdentical) {
  std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  std::string dir = ::testing::TempDir();
  // Explicit requests the CPU cannot honor fall back (with a stderr note)
  // to the best supported level, so every config runs everywhere — and the
  // contract says the bytes agree regardless of where each one lands.
  const char* configs[] = {"scalar", "avx2", "avx512", "auto"};
  std::vector<std::vector<std::uint8_t>> results;
  std::vector<std::string> paths;
  for (const char* simd : configs) {
    std::string out = dir + "parsdd_kern_" + std::to_string(::getpid()) +
                      "_" + simd + ".bin";
    paths.push_back(out);
    std::string cmd = std::string("PARSDD_SIMD=") + simd +
                      " PARSDD_KERNELS_OUT='" + out + "' '" + exe +
                      "' --gtest_filter=KernelsChild.SolveAndDump"
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    ASSERT_EQ(rc, 0) << "child PARSDD_SIMD=" << simd << " failed";
    results.push_back(file_bytes(out));
    ASSERT_FALSE(results.back().empty());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i])
        << "PARSDD_SIMD=" << configs[i]
        << " diverged bitwise from PARSDD_SIMD=scalar";
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// The Vec entry points are the f64 table's k = 1 column kernels.  Checked
// byte for byte against plain loops on every supported table, at a single
// entry, an odd length, and a length spanning three canonical blocks (where
// dot/sum fold per-block partials in block order).  The table is fixed per
// process, so the parent test re-runs this binary once per table.

const std::size_t kVecLengths[] = {1, kRows, 2 * kDefaultGrain + 3};

// The canonical reduction: a serial chain per kDefaultGrain block, the
// block partials folded in index order.
template <typename Term>
double blocked_sum(std::size_t n, Term&& term) {
  double acc = 0.0;
  for (std::size_t s = 0; s < n; s += kDefaultGrain) {
    double part = 0.0;
    for (std::size_t i = s; i < std::min(n, s + kDefaultGrain); ++i) {
      part += term(i);
    }
    acc += part;
  }
  return acc;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(VecKernelsChild, MatchPlainLoops) {
  const char* want = std::getenv("PARSDD_VEC_TABLE");
  if (want != nullptr) {
    ASSERT_STREQ(kernels::backend_name(), want);
  }
  for (std::size_t n : kVecLengths) {
    SCOPED_TRACE(std::string(kernels::backend_name()) +
                 " n=" + std::to_string(n));
    const Vec x = table_data<double>(21, n), y0 = table_data<double>(22, n);

    Vec y = y0, ref = y0;
    kernels::axpy(0.75, x, y);
    for (std::size_t i = 0; i < n; ++i) ref[i] += 0.75 * x[i];
    EXPECT_TRUE(same_bytes(y, ref)) << "axpy";

    y = y0;
    ref = y0;
    kernels::xpay(x, -1.25, y);
    for (std::size_t i = 0; i < n; ++i) ref[i] = x[i] + -1.25 * ref[i];
    EXPECT_TRUE(same_bytes(y, ref)) << "xpay";

    y = y0;
    ref = y0;
    kernels::scale(3.5, y);
    for (std::size_t i = 0; i < n; ++i) ref[i] *= 3.5;
    EXPECT_TRUE(same_bytes(y, ref)) << "scale";

    ref.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) ref[i] = x[i] - y0[i];
    EXPECT_TRUE(same_bytes(kernels::subtract(x, y0), ref)) << "subtract";

    const double d =
        blocked_sum(n, [&](std::size_t i) { return x[i] * y0[i]; });
    const double sx = blocked_sum(n, [&](std::size_t i) { return x[i]; });
    EXPECT_TRUE(same_double(kernels::dot(x, y0), d)) << "dot";
    EXPECT_TRUE(same_double(kernels::sum(x), sx)) << "sum";
    EXPECT_TRUE(same_double(kernels::norm2(x), std::sqrt(kernels::dot(x, x))))
        << "norm2";

    y = x;
    ref = x;
    kernels::project_out_constant(y);
    const double mean = sx / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) ref[i] -= mean;
    EXPECT_TRUE(same_bytes(y, ref)) << "project_out_constant";

    // A ragged CSR over n rows: 1-5 nonzeros per row, scattered columns.
    std::vector<std::size_t> off{0};
    std::vector<std::uint32_t> col;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i % 5; ++j) {
        col.push_back(static_cast<std::uint32_t>((i * 7 + j * 53) % n));
      }
      off.push_back(col.size());
    }
    const Vec val = table_data<double>(23, col.size());
    y.assign(n, 0.0);
    kernels::spmv(off.data(), col.data(), val.data(), n, col.size(), x, y);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t p = off[i]; p < off[i + 1]; ++p) {
        acc += val[p] * x[col[p]];
      }
      ref[i] = acc;
    }
    EXPECT_TRUE(same_bytes(y, ref)) << "spmv";
  }
}

TEST(TableKernels, VecEntryPointsMatchPlainLoopsOnEveryTable) {
  std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  for (const kernels::Backend* be : supported_tables()) {
    std::string cmd = std::string("PARSDD_SIMD=") + be->name +
                      " PARSDD_VEC_TABLE=" + be->name + " '" + exe +
                      "' --gtest_filter=VecKernelsChild.MatchPlainLoops"
                      " > /dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0)
        << "Vec entry points diverged on the " << be->name << " table";
  }
}

// ---------------------------------------------------------------------------
// Mixed precision: the opt-in path converges to the f64 tolerance, and the
// default path is untouched by its existence.

TEST(MixedPrecision, F32RefinedMeetsF64Tolerance) {
  GeneratedGraph g = grid2d(20, 20);
  SddSolverOptions opts;
  opts.precision = Precision::kF32Refined;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
  EXPECT_EQ(setup.precision(), Precision::kF32Refined);
  Vec b = random_unit_like(g.n, 99);
  kernels::project_out_constant(b);
  StatusOr<Vec> x = setup.solve(b);
  ASSERT_TRUE(x.ok()) << x.status().to_string();
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  double rel =
      kernels::norm2(kernels::subtract(lap.apply(*x), b)) / kernels::norm2(b);
  // The outer iteration is full fp64, so the f32 chain must still reach
  // the standard relative-residual target.
  EXPECT_LE(rel, 10 * opts.tolerance);
}

// SolverService coalesces requests on f32 handles too, so the batch ==
// single contract must hold bit for bit in mixed precision: column c of a
// k=3 solve_batch equals an independent solve of that column, under both
// inner methods of the fp32 chain.
TEST(MixedPrecision, BatchColumnsMatchSingleSolvesBitwise) {
  GeneratedGraph g = grid2d(20, 20);
  randomize_weights_log_uniform(g.edges, 50.0, 11);
  for (InnerMethod inner :
       {InnerMethod::kFlexibleCg, InnerMethod::kChebyshev}) {
    SddSolverOptions opts;
    opts.precision = Precision::kF32Refined;
    opts.recursion.inner = inner;
    SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
    constexpr std::size_t k = 3;
    std::vector<Vec> cols;
    for (std::size_t c = 0; c < k; ++c) {
      cols.push_back(random_unit_like(g.n, 300 + c));
    }
    StatusOr<MultiVec> batch = setup.solve_batch(MultiVec::from_columns(cols));
    ASSERT_TRUE(batch.ok()) << batch.status().to_string();
    for (std::size_t c = 0; c < k; ++c) {
      StatusOr<Vec> single = setup.solve(cols[c]);
      ASSERT_TRUE(single.ok()) << single.status().to_string();
      Vec col = batch->column(c);
      ASSERT_EQ(col.size(), single->size());
      EXPECT_EQ(std::memcmp(col.data(), single->data(),
                            col.size() * sizeof(double)),
                0)
          << "column " << c << ", inner method "
          << static_cast<int>(inner);
    }
  }
}

TEST(MixedPrecision, DefaultIsF64Bitwise) {
  SddSolverOptions opts;
  EXPECT_EQ(opts.precision, Precision::kF64Bitwise);
  GeneratedGraph g = grid2d(6, 6);
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges);
  EXPECT_EQ(setup.precision(), Precision::kF64Bitwise);
}

TEST(MixedPrecision, SnapshotRoundTripsPrecision) {
  GeneratedGraph g = grid2d(8, 8);
  SddSolverOptions opts;
  opts.precision = Precision::kF32Refined;
  SolverSetup setup = SolverSetup::for_laplacian(g.n, g.edges, opts);
  test_util::TempFile snap("kernels_precision");
  ASSERT_TRUE(setup.Save(snap.path()).ok());
  StatusOr<SolverSetup> loaded = SolverSetup::Load(snap.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->precision(), Precision::kF32Refined);
  // The reloaded setup solves through the f32 chain too.
  Vec b = random_unit_like(g.n, 5);
  kernels::project_out_constant(b);
  StatusOr<Vec> x = loaded->solve(b);
  ASSERT_TRUE(x.ok());
}

}  // namespace
}  // namespace parsdd
