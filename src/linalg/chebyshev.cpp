#include "linalg/chebyshev.h"
#include "kernels/kernels.h"

#include <algorithm>
#include <stdexcept>

namespace parsdd {

template <typename T>
std::vector<IterStats> chebyshev_block(
    const std::type_identity_t<BasicBlockLinOp<T>>& a,
    const BasicMultiVec<T>& b, BasicMultiVec<T>& x,
    const ChebyshevOptions& opts,
    const std::type_identity_t<BasicBlockLinOp<T>>* precond,
    std::type_identity_t<BasicBlockScratch<T>>* scratch) {
  if (!(opts.lambda_max > 0.0) || !(opts.lambda_min > 0.0) ||
      opts.lambda_min > opts.lambda_max) {
    throw std::invalid_argument("chebyshev_block: bad spectral bounds");
  }
  std::size_t n = b.rows(), k = b.cols();
  std::vector<IterStats> stats(k);
  if (k == 0) return stats;
  BasicBlockScratch<T> local;
  BasicBlockScratch<T>& s = scratch ? *scratch : local;
  ensure_shape(s.r, n, k);
  ensure_shape(s.z, n, k);
  ensure_shape(s.p, n, k);
  ensure_shape(s.ap, n, k);
  ensure_shape(x, n, k);

  const double theta = 0.5 * (opts.lambda_max + opts.lambda_min);
  const double delta = 0.5 * (opts.lambda_max - opts.lambda_min);
  // The per-column scalars live in the scratch, so a steady-state call
  // allocates nothing beyond its returned stats.
  s.minus_one.assign(k, T(-1));
  std::vector<T>& alpha_all = s.alpha;
  std::vector<T>& neg_alpha = s.neg_alpha;
  std::vector<T>& beta_all = s.beta;
  alpha_all.resize(k);
  neg_alpha.resize(k);
  beta_all.resize(k);

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

  // r = b - A x
  a(x, s.ap);
  kernels::copy_cols(b, s.r);
  kernels::axpy_cols(s.minus_one, s.ap, s.r);
  if (opts.project_constant) kernels::project_out_constant_cols(s.r);

  // The recurrence scalars depend only on the bounds, so the whole block
  // shares one alpha/beta schedule (computed in double, applied in T).
  double alpha = 0.0, beta = 0.0;
  for (std::uint32_t it = 0; it < opts.iterations; ++it) {
    apply_precond(s.r, s.z);
    if (it == 0) {
      kernels::copy_cols(s.z, s.p);
      alpha = 1.0 / theta;
    } else if (it == 1) {
      beta = 0.5 * (delta * alpha) * (delta * alpha);
      alpha = 1.0 / (theta - beta / alpha);
      std::fill(beta_all.begin(), beta_all.end(), static_cast<T>(beta));
      kernels::xpay_cols(s.z, beta_all, s.p);
    } else {
      beta = (delta * alpha / 2.0) * (delta * alpha / 2.0);
      alpha = 1.0 / (theta - beta / alpha);
      std::fill(beta_all.begin(), beta_all.end(), static_cast<T>(beta));
      kernels::xpay_cols(s.z, beta_all, s.p);
    }
    std::fill(alpha_all.begin(), alpha_all.end(), static_cast<T>(alpha));
    std::fill(neg_alpha.begin(), neg_alpha.end(), static_cast<T>(-alpha));
    kernels::axpy_cols(alpha_all, s.p, x);
    a(s.p, s.ap);
    kernels::axpy_cols(neg_alpha, s.ap, s.r);
    if (opts.project_constant) kernels::project_out_constant_cols(s.r);
  }

  kernels::norm2_cols(b, s.bnorm);
  kernels::norm2_cols(s.r, s.rnorm);
  for (std::size_t c = 0; c < k; ++c) {
    stats[c].iterations = opts.iterations;
    stats[c].relative_residual =
        s.bnorm[c] > T(0) ? s.rnorm[c] / s.bnorm[c] : T(0);
    stats[c].converged = true;  // fixed-iteration method; caller checks
  }
  return stats;
}

template std::vector<IterStats> chebyshev_block<double>(
    const BlockLinOp&, const MultiVec&, MultiVec&, const ChebyshevOptions&,
    const BlockLinOp*, BlockScratch*);
template std::vector<IterStats> chebyshev_block<float>(
    const BasicBlockLinOp<float>&, const BasicMultiVec<float>&,
    BasicMultiVec<float>&, const ChebyshevOptions&,
    const BasicBlockLinOp<float>*, BasicBlockScratch<float>*);

}  // namespace parsdd
