// CG, flexible PCG, Chebyshev and Jacobi-PCG (the block solvers at k = 1),
// and pencil eigenvalue estimation.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "kernels/kernels.h"
#include "linalg/cg.h"
#include "linalg/chebyshev.h"
#include "linalg/dense_ldlt.h"
#include "linalg/eig.h"
#include "linalg/jacobi.h"
#include "linalg/laplacian.h"

namespace parsdd {
namespace {

LinOp op_of(const CsrMatrix& a) {
  return [&a](const Vec& in, Vec& out) {
    out.resize(in.size());
    a.multiply(in, out);
  };
}

// The Krylov solvers run on blocks; these tests drive them at k = 1, the
// shape every single right-hand side takes.
BlockLinOp block_op_of(const CsrMatrix& a) {
  return [&a](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    a.multiply(in, out);
  };
}

MultiVec one_col(const Vec& v) { return MultiVec::from_columns({v}); }

// The exact preconditioner L⁺ of a connected Laplacian, through its dense
// factor.
BlockLinOp dense_solve_op(const DenseLdlt& f) {
  return [&f](const MultiVec& in, MultiVec& out) {
    MultiVec t = in;
    kernels::project_out_constant_cols(t);
    f.solve_block(t, out);
  };
}

TEST(Cg, SolvesDiagonalSystem) {
  std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 4.0}};
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  MultiVec b = one_col({1.0, 1.0, 1.0});
  MultiVec x(3, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-12;
  BlockLinOp aop = block_op_of(a);
  IterStats st = block_conjugate_gradient(aop, b, x, o).at(0);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(x.at(1, 0), 0.5, 1e-9);
  EXPECT_NEAR(x.at(2, 0), 0.25, 1e-9);
}

TEST(Cg, ZeroRhsGivesZero) {
  CsrMatrix a = laplacian_from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  MultiVec b(3, 1, 0.0);
  MultiVec x = one_col({5.0, 5.0, 5.0});
  BlockLinOp aop = block_op_of(a);
  CgOptions o;
  IterStats st = block_conjugate_gradient(aop, b, x, o).at(0);
  EXPECT_TRUE(st.converged);
  EXPECT_DOUBLE_EQ(kernels::norm2(x.column(0)), 0.0);
}

TEST(Cg, LaplacianWithProjection) {
  GeneratedGraph g = grid2d(10, 10);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  Vec b = random_unit_like(g.n, 3);
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-10;
  o.project_constant = true;
  BlockLinOp aop = block_op_of(lap);
  IterStats st = block_conjugate_gradient(aop, one_col(b), x, o).at(0);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(kernels::norm2(kernels::subtract(lap.apply(x.column(0)), b)) / kernels::norm2(b), 0.0, 1e-8);
}

TEST(Cg, ExactPreconditionerConvergesInFewIterations) {
  GeneratedGraph g = grid2d(8, 8);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  DenseLdlt f = DenseLdlt::factor_laplacian(lap);
  BlockLinOp pre = dense_solve_op(f);
  MultiVec b = one_col(random_unit_like(g.n, 4));
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-10;
  o.project_constant = true;
  BlockLinOp aop = block_op_of(lap);
  IterStats st = block_conjugate_gradient(aop, b, x, o, &pre).at(0);
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.iterations, 3u);
}

TEST(Cg, FlexibleModeHandlesVariablePreconditioner) {
  GeneratedGraph g = grid2d(12, 12);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  Vec d = lap.diagonal();
  int call_count = 0;
  // Preconditioner whose scaling drifts between calls.
  BlockLinOp pre = [&](const MultiVec& in, MultiVec& out) {
    ensure_shape(out, in.rows(), in.cols());
    double s = 1.0 + 0.05 * ((call_count++) % 3);
    for (std::size_t i = 0; i < in.rows(); ++i) {
      out.at(i, 0) = s * in.at(i, 0) / d[i];
    }
  };
  MultiVec b = one_col(random_unit_like(g.n, 5));
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-8;
  o.project_constant = true;
  o.flexible = true;
  o.max_iterations = 2000;
  BlockLinOp aop = block_op_of(lap);
  IterStats st = block_conjugate_gradient(aop, b, x, o, &pre).at(0);
  EXPECT_TRUE(st.converged);
}

TEST(Chebyshev, ConvergesWithTrueBoundsOnDiagonal) {
  // Diagonal system: spectrum known exactly.
  std::vector<Triplet> ts = {{0, 0, 1.0}, {1, 1, 2.0}, {2, 2, 3.0}};
  CsrMatrix a = CsrMatrix::from_triplets(3, std::move(ts));
  MultiVec b = one_col({1.0, 2.0, 3.0});
  MultiVec x(3, 1, 0.0);
  ChebyshevOptions o;
  o.lambda_min = 1.0;
  o.lambda_max = 3.0;
  o.iterations = 40;
  BlockLinOp aop = block_op_of(a);
  IterStats st = chebyshev_block(aop, b, x, o).at(0);
  EXPECT_LT(st.relative_residual, 1e-8);
  EXPECT_NEAR(x.at(0, 0), 1.0, 1e-7);
}

TEST(Chebyshev, PreconditionedLaplacian) {
  GeneratedGraph g = grid2d(9, 9);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  DenseLdlt f = DenseLdlt::factor_laplacian(lap);
  BlockLinOp pre = dense_solve_op(f);
  MultiVec b = one_col(random_unit_like(g.n, 6));
  MultiVec x(g.n, 1, 0.0);
  ChebyshevOptions o;
  o.lambda_min = 0.9;
  o.lambda_max = 1.1;  // exact preconditioner: spectrum is {1}
  o.iterations = 12;
  o.project_constant = true;
  BlockLinOp aop = block_op_of(lap);
  IterStats st = chebyshev_block(aop, b, x, o, &pre).at(0);
  EXPECT_LT(st.relative_residual, 1e-8);
}

TEST(Chebyshev, RejectsBadBounds) {
  CsrMatrix a = laplacian_from_edges(2, {{0, 1, 1.0}});
  MultiVec b = one_col({1.0, -1.0});
  MultiVec x(2, 1, 0.0);
  ChebyshevOptions o;
  o.lambda_min = 2.0;
  o.lambda_max = 1.0;
  BlockLinOp aop = block_op_of(a);
  EXPECT_THROW(chebyshev_block(aop, b, x, o), std::invalid_argument);
}

TEST(Jacobi, PreconditionedCgConvergesOnStrictlyDominantSystem) {
  // Laplacian + identity: strictly diagonally dominant.
  GeneratedGraph g = grid2d(6, 6);
  std::vector<Triplet> ts;
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  for (std::uint32_t i = 0; i < g.n; ++i) {
    auto cols = lap.row_cols(i);
    auto vals = lap.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ts.push_back({i, cols[k], vals[k]});
    }
    ts.push_back({i, i, 1.0});
  }
  CsrMatrix a = CsrMatrix::from_triplets(g.n, std::move(ts));
  Vec b = random_unit_like(g.n, 7);
  MultiVec x(g.n, 1, 0.0);
  CgOptions o;
  o.tolerance = 1e-8;
  BlockLinOp aop = block_op_of(a);
  BlockLinOp pre = jacobi_preconditioner_block(a);
  IterStats st = block_conjugate_gradient(aop, one_col(b), x, o, &pre).at(0);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR(kernels::norm2(kernels::subtract(a.apply(x.column(0)), b)) / kernels::norm2(b), 0.0, 1e-7);
}

TEST(Jacobi, PreconditionerDividesByDiagonal) {
  std::vector<Triplet> ts = {{0, 0, 2.0}, {1, 1, 4.0}};
  CsrMatrix a = CsrMatrix::from_triplets(2, std::move(ts));
  BlockLinOp pre = jacobi_preconditioner_block(a);
  MultiVec out;
  pre(one_col({2.0, 4.0}), out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 1.0);
}

TEST(Eig, PencilOfScaledMatricesIsTheScale) {
  GeneratedGraph g = grid2d(7, 7);
  CsrMatrix lap = laplacian_from_edges(g.n, g.edges);
  EdgeList scaled = g.edges;
  for (Edge& e : scaled) e.w *= 2.0;
  CsrMatrix lap2 = laplacian_from_edges(g.n, scaled);
  DenseLdlt f2 = DenseLdlt::factor_laplacian(lap2);
  LinOp a = op_of(lap2), bop = op_of(lap);
  LinOp solve_b = [&](const Vec& in, Vec& out) {
    // solve lap (= lap2 / 2): x = 2 * lap2^+ in
    Vec t = in;
    kernels::project_out_constant(t);
    out = f2.solve(t);
    kernels::scale(2.0, out);
  };
  // pencil (2L, L): all eigenvalues are 2.
  double mx = pencil_max_eig(a, bop, solve_b, g.n, 50, 1);
  EXPECT_NEAR(mx, 2.0, 1e-6);
}

TEST(Eig, MinEigOfSandwich) {
  // A = L, B = L + 0.5*L' where L' adds extra edges: x'Bx >= x'Ax, so
  // lambda_max(B^+A) <= 1 and pencil_min of (B, A) >= 1.
  GeneratedGraph g = grid2d(6, 6);
  CsrMatrix la = laplacian_from_edges(g.n, g.edges);
  EdgeList be = g.edges;
  be.push_back(Edge{0, g.n - 1, 0.5});
  CsrMatrix lb = laplacian_from_edges(g.n, be);
  DenseLdlt fb = DenseLdlt::factor_laplacian(lb);
  LinOp aop = op_of(la), bop = op_of(lb);
  LinOp solve_b = [&](const Vec& in, Vec& out) {
    Vec t = in;
    kernels::project_out_constant(t);
    out = fb.solve(t);
  };
  double mx = pencil_max_eig(aop, bop, solve_b, g.n, 100, 3);
  EXPECT_LE(mx, 1.0 + 1e-6);
  EXPECT_GT(mx, 0.5);
}

}  // namespace
}  // namespace parsdd
