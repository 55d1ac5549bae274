#include "linalg/cg.h"
#include "kernels/kernels.h"

#include <cmath>

namespace parsdd {

template <typename T>
std::vector<IterStats> block_conjugate_gradient(
    const std::type_identity_t<BasicBlockLinOp<T>>& a,
    const BasicMultiVec<T>& b, BasicMultiVec<T>& x, const CgOptions& opts,
    const std::type_identity_t<BasicBlockLinOp<T>>* precond,
    std::type_identity_t<BasicBlockScratch<T>>* scratch) {
  std::size_t n = b.rows(), k = b.cols();
  std::vector<IterStats> stats(k);
  if (k == 0) return stats;
  BasicBlockScratch<T> local;
  BasicBlockScratch<T>& s = scratch ? *scratch : local;
  ensure_shape(s.r, n, k);
  ensure_shape(s.z, n, k);
  ensure_shape(s.p, n, k);
  ensure_shape(s.ap, n, k);
  if (opts.flexible) ensure_shape(s.r_prev, n, k);
  ensure_shape(x, n, k);
  // The per-column scalars live in the scratch, so a steady-state solve
  // allocates nothing beyond its returned stats.
  std::vector<T>& bnorm = s.bnorm;
  std::vector<T>& rnorm = s.rnorm;
  std::vector<T>& pap = s.pap;
  std::vector<T>& rz = s.rz;
  std::vector<T>& rz_next = s.rz_next;
  std::vector<T>& num = s.num;
  std::vector<T>& alpha = s.alpha;
  std::vector<T>& neg_alpha = s.neg_alpha;
  std::vector<T>& beta = s.beta;
  ColMask& alive = s.alive;
  s.minus_one.assign(k, T(-1));
  alpha.assign(k, T(0));
  neg_alpha.assign(k, T(0));
  beta.assign(k, T(0));
  alive.assign(k, 1);

  // r = b - A x
  a(x, s.ap);
  kernels::copy_cols(b, s.r);
  kernels::axpy_cols(s.minus_one, s.ap, s.r);
  if (opts.project_constant) kernels::project_out_constant_cols(s.r);

  kernels::norm2_cols(b, bnorm);
  std::size_t remaining = k;
  for (std::size_t c = 0; c < k; ++c) {
    if (bnorm[c] == 0.0) {
      for (std::size_t i = 0; i < n; ++i) x.at(i, c) = T(0);
      stats[c].converged = true;
      alive[c] = 0;
      --remaining;
    }
  }
  // The masked kernels are needed only once a column has frozen; while every
  // column is live the unmasked kernels compute the same bits.
  auto live_mask = [&]() -> const ColMask* {
    return remaining < k ? &alive : nullptr;
  };

  auto apply_precond = [&](const BasicMultiVec<T>& in,
                           BasicMultiVec<T>& out) {
    if (precond) {
      (*precond)(in, out);
      if (opts.project_constant) kernels::project_out_constant_cols(out);
    } else {
      ensure_shape(out, in.rows(), in.cols());
      kernels::copy_cols(in, out);
    }
  };
  apply_precond(s.r, s.z);
  kernels::copy_cols(s.z, s.p);
  kernels::dot_cols(s.r, s.z, rz);

  for (std::uint32_t it = 0; it < opts.max_iterations && remaining > 0; ++it) {
    kernels::norm2_cols(s.r, rnorm);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      stats[c].relative_residual = rnorm[c] / bnorm[c];
      if (stats[c].relative_residual <= opts.tolerance) {
        stats[c].converged = true;
        alive[c] = 0;
        --remaining;
      }
    }
    if (remaining == 0) break;
    for (std::size_t c = 0; c < k; ++c) {
      if (alive[c]) ++stats[c].iterations;
    }
    a(s.p, s.ap);
    kernels::dot_cols(s.p, s.ap, pap);
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      if (!(pap[c] > 0.0)) {  // numerical breakdown on this column
        alive[c] = 0;
        --remaining;
        alpha[c] = T(0);
      } else {
        alpha[c] = rz[c] / pap[c];
      }
    }
    if (remaining == 0) break;
    const ColMask* live = live_mask();
    kernels::axpy_cols(alpha, s.p, x, live);
    if (opts.flexible) kernels::copy_cols(s.r, s.r_prev, live);
    for (std::size_t c = 0; c < k; ++c) neg_alpha[c] = -alpha[c];
    kernels::axpy_cols(neg_alpha, s.ap, s.r, live);
    if (opts.project_constant) kernels::project_out_constant_cols(s.r, live);
    apply_precond(s.r, s.z);
    if (opts.flexible) {
      // Polak–Ribière per column, tolerant of the varying preconditioner.
      kernels::dot_diff_cols(s.z, s.r, s.r_prev, num);
      kernels::dot_cols(s.r, s.z, rz_next);
      for (std::size_t c = 0; c < k; ++c) beta[c] = num[c] / rz[c];
    } else {
      kernels::dot_cols(s.r, s.z, rz_next);
      for (std::size_t c = 0; c < k; ++c) beta[c] = rz_next[c] / rz[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (!alive[c]) continue;
      if (!std::isfinite(beta[c])) {
        alive[c] = 0;
        --remaining;
        continue;
      }
      if (beta[c] < T(0)) beta[c] = T(0);  // restart direction
      rz[c] = rz_next[c];
    }
    kernels::xpay_cols(s.z, beta, s.p, live_mask());
  }

  // Columns that hit max_iterations or broke down: their r froze with them,
  // so the exit residual matches what a single solve would have reported.
  kernels::norm2_cols(s.r, rnorm);
  for (std::size_t c = 0; c < k; ++c) {
    if (stats[c].converged) continue;
    if (bnorm[c] == 0.0) continue;
    stats[c].relative_residual = rnorm[c] / bnorm[c];
    stats[c].converged = stats[c].relative_residual <= opts.tolerance;
  }
  return stats;
}

template std::vector<IterStats> block_conjugate_gradient<double>(
    const BlockLinOp&, const MultiVec&, MultiVec&, const CgOptions&,
    const BlockLinOp*, BlockScratch*);
template std::vector<IterStats> block_conjugate_gradient<float>(
    const BasicBlockLinOp<float>&, const BasicMultiVec<float>&,
    BasicMultiVec<float>&, const CgOptions&, const BasicBlockLinOp<float>*,
    BasicBlockScratch<float>*);

}  // namespace parsdd
