// E8 — Chain solver vs classical baselines (CG, Jacobi-PCG).
//
// The interesting regime is ill-conditioned weights: high-contrast two-level
// weights blow up the condition number, stalling unpreconditioned CG while
// the combinatorial chain stays robust (the "who wins" shape for this line
// of work).  On easy unit-weight instances CG is competitive or better —
// the known constant-factor overhead of KMP-style chains.
#include <cstdio>

#include "bench_util.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"
#include "solver/sdd_solver.h"

using namespace parsdd;
using parsdd_bench::Timer;

namespace {

struct Row {
  std::uint32_t iters = 0;
  double sec = 0.0;
  bool conv = false;
};

Row run(const GeneratedGraph& g, SolveMethod method) {
  SddSolverOptions opts;
  opts.method = method;
  opts.tolerance = 1e-8;
  opts.max_iterations = 30000;
  Timer t;
  SddSolver solver = SddSolver::for_laplacian(g.n, g.edges, opts);
  Vec b = random_unit_like(g.n, 7);
  SddSolveReport rep;
  (void)solver.solve(b, &rep).value();
  Row r;
  r.iters = rep.stats.iterations;
  r.sec = t.seconds();
  r.conv = rep.stats.converged;
  return r;
}

void contrast_table() {
  parsdd_bench::header(
      "E8a  Weight-contrast sweep (grid 48x48, tol 1e-8, total seconds "
      "including setup)",
      "columns: contrast, then (iters, sec, converged) for chain-PCG / "
      "plain CG / Jacobi-PCG");
  std::printf("%10s | %7s %8s %3s | %7s %8s %3s | %7s %8s %3s\n", "contrast",
              "chain", "sec", "ok", "cg", "sec", "ok", "jacobi", "sec", "ok");
  for (double contrast : {1.0, 1e4, 1e8}) {
    GeneratedGraph g = grid2d(48, 48);
    if (contrast > 1.0) randomize_weights_two_level(g.edges, contrast, 21);
    Row chain = run(g, SolveMethod::kChainPcg);
    Row cg = run(g, SolveMethod::kCg);
    Row jac = run(g, SolveMethod::kJacobiPcg);
    std::printf(
        "%10.0e | %7u %8.2f %3s | %7u %8.2f %3s | %7u %8.2f %3s\n", contrast,
        chain.iters, chain.sec, chain.conv ? "y" : "N", cg.iters, cg.sec,
        cg.conv ? "y" : "N", jac.iters, jac.sec, jac.conv ? "y" : "N");
  }
}

void family_table() {
  parsdd_bench::header(
      "E8b  Graph families (unit weights): constant-factor landscape",
      "columns: family, chain iters/sec, CG iters/sec");
  struct Case {
    const char* name;
    GeneratedGraph g;
  };
  std::vector<Case> cases;
  cases.push_back({"grid-72", grid2d(72, 72)});
  cases.push_back({"torus-64", torus2d(64, 64)});
  cases.push_back({"er-n5k", erdos_renyi(5000, 20000, 9)});
  cases.push_back({"path-12k", path(12000)});
  std::printf("%-12s | %7s %8s | %7s %8s\n", "family", "chain", "sec", "cg",
              "sec");
  for (auto& c : cases) {
    Row chain = run(c.g, SolveMethod::kChainPcg);
    Row cg = run(c.g, SolveMethod::kCg);
    std::printf("%-12s | %7u %8.2f | %7u %8.2f\n", c.name, chain.iters,
                chain.sec, cg.iters, cg.sec);
  }
}

void mode_ablation() {
  parsdd_bench::header(
      "E8c  Ablation: ultrasparse vs sampled chain mode (grid 48x48)",
      "columns: mode, chain depth, chain edges, iters, sec");
  GeneratedGraph g = grid2d(48, 48);
  for (int mode = 0; mode < 2; ++mode) {
    SddSolverOptions opts;
    // The sampled mode multiplies inner work per outer iteration; bound the
    // ablation so the table regenerates in seconds.
    opts.tolerance = 1e-6;
    opts.max_iterations = 1500;
    opts.chain.mode =
        mode == 0 ? ChainMode::kUltrasparse : ChainMode::kSampled;
    Timer t;
    SddSolver solver = SddSolver::for_laplacian(g.n, g.edges, opts);
    Vec b = random_unit_like(g.n, 8);
    SddSolveReport rep;
    (void)solver.solve(b, &rep).value();
    std::printf("%-12s depth=%u chain_m=%zu iters=%u conv=%s sec=%.2f\n",
                mode == 0 ? "ultrasparse" : "sampled", rep.chain_levels,
                rep.chain_edges, rep.stats.iterations,
                rep.stats.converged ? "y" : "N", t.seconds());
  }
}

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  contrast_table();
  family_table();
  mode_ablation();
  return 0;
}
