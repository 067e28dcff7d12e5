#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {
namespace {

/// Sufficient-decrease constant c1 of the full-batch Armijo line search.
constexpr double kArmijo = 1e-4;
/// Step halvings the line search tries before it gives up.
constexpr int kMaxHalvings = 30;

/// Weighted negative log-likelihood + L2, with theta = [w..., b]. `residuals`
/// is caller-owned scratch of size n: one MatVecInto writes the margins
/// z = X w into it (simd kernels, float32-aware, no per-call allocation),
/// then the fused logistic kernel turns them into the weighted residuals
/// w_i (sigmoid(z_i) - y_i) that Gradient needs at this theta, with one exp
/// per row shared by the loss and the residual.
double Loss(const Matrix& X, const std::vector<int>& y,
            const std::vector<double>& weights, const std::vector<double>& theta,
            double l2, std::vector<double>* residuals) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  residuals->resize(n);
  X.MatVecInto(theta.data(), residuals->data());
  double loss = simd::Active().logistic_loss_residual(
      residuals->data(), theta[d], weights.data(), y.data(), n);
  loss /= static_cast<double>(n);
  for (size_t c = 0; c < d; ++c) loss += 0.5 * l2 * theta[c] * theta[c];
  return loss;
}

/// Gradient of Loss at theta, from the residuals that the Loss call at the
/// same theta left in `residuals`: one TransposeMatVec plus their sum.
/// Returns the gradient's infinity norm, or NaN if any component is
/// non-finite.
double Gradient(const Matrix& X, const std::vector<double>& theta, double l2,
                const std::vector<double>& residuals, std::vector<double>* grad) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  X.TransposeMatVecInto(residuals.data(), grad->data());
  (*grad)[d] = simd::Active().sum(residuals.data(), n);
  const double inv_n = 1.0 / static_cast<double>(n);
  double max_abs = 0.0;
  for (size_t c = 0; c <= d; ++c) {
    (*grad)[c] *= inv_n;
    if (c < d) (*grad)[c] += l2 * theta[c];
    if (!std::isfinite((*grad)[c])) return std::numeric_limits<double>::quiet_NaN();
    max_abs = std::max(max_abs, std::fabs((*grad)[c]));
  }
  return max_abs;
}

/// The L-BFGS memory: the last kHistory (s, y) = (step in theta, change in
/// gradient) pairs in a ring, allocated once per fit.
class LbfgsHistory {
 public:
  /// L-BFGS history length (scipy's default `maxcor`).
  static constexpr size_t kHistory = 10;

  explicit LbfgsHistory(size_t dim)
      : dim_(dim), s_(kHistory * dim), y_(kHistory * dim) {}

  bool empty() const { return size_ == 0; }
  void Clear() { size_ = 0; }

  /// Records the pair for the move from `from` (gradient `from_grad`) to
  /// `to` (gradient `to_grad`), replacing the oldest pair when full. A pair
  /// with s.y <= 0 would make the implied Hessian indefinite, so it is
  /// skipped.
  void Push(const std::vector<double>& from, const std::vector<double>& to,
            const std::vector<double>& from_grad,
            const std::vector<double>& to_grad) {
    double sy = 0.0;
    for (size_t c = 0; c < dim_; ++c) {
      sy += (to[c] - from[c]) * (to_grad[c] - from_grad[c]);
    }
    if (!(sy > 0.0)) return;
    double* s = &s_[head_ * dim_];
    double* y = &y_[head_ * dim_];
    for (size_t c = 0; c < dim_; ++c) {
      s[c] = to[c] - from[c];
      y[c] = to_grad[c] - from_grad[c];
    }
    rho_[head_] = 1.0 / sy;
    head_ = (head_ + 1) % kHistory;
    size_ = std::min(size_ + 1, kHistory);
  }

  /// Two-loop recursion: writes -H g into `direction`, where H is the
  /// inverse-Hessian approximation of the stored pairs, scaled by the newest
  /// pair's s.y / y.y. Requires a non-empty history.
  void Direction(const std::vector<double>& grad,
                 std::vector<double>* direction) {
    const simd::Kernels& kernels = simd::Active();
    double* q = direction->data();
    std::copy(grad.begin(), grad.end(), q);
    double alpha[kHistory];
    for (size_t k = 0; k < size_; ++k) {  // newest to oldest
      const size_t slot = Slot(k);
      alpha[slot] = rho_[slot] * kernels.dot(&s_[slot * dim_], q, dim_);
      kernels.axpy(-alpha[slot], &y_[slot * dim_], q, dim_);
    }
    const double* newest_y = &y_[Slot(0) * dim_];
    const double gamma =
        1.0 / (rho_[Slot(0)] * kernels.dot(newest_y, newest_y, dim_));
    for (size_t c = 0; c < dim_; ++c) q[c] *= gamma;
    for (size_t k = size_; k-- > 0;) {  // oldest to newest
      const size_t slot = Slot(k);
      const double beta = rho_[slot] * kernels.dot(&y_[slot * dim_], q, dim_);
      kernels.axpy(alpha[slot] - beta, &s_[slot * dim_], q, dim_);
    }
    for (size_t c = 0; c < dim_; ++c) q[c] = -q[c];
  }

 private:
  /// Ring slot of the k-th newest pair.
  size_t Slot(size_t k) const { return (head_ + kHistory - 1 - k) % kHistory; }

  size_t dim_;
  std::vector<double> s_;
  std::vector<double> y_;
  double rho_[kHistory] = {};
  size_t head_ = 0;  // next slot to write
  size_t size_ = 0;
};

/// Weighted logistic loss and gradient over rows [begin, end) only: the
/// batch's margins from the simd dot kernels (float32 rows widen per lane),
/// one fused logistic kernel call, then the residuals scattered into the
/// gradient in row order. `residuals` is scratch of at least end - begin.
/// Writes the unnormalized gradient sum into `grad` and returns the
/// unnormalized weighted loss sum. Serial by design: mini-batch updates must
/// be bit-reproducible at any thread count.
double BatchLossGradient(const Matrix& X, const std::vector<int>& y,
                         const std::vector<double>& weights,
                         const std::vector<double>& theta, size_t begin,
                         size_t end, std::vector<double>* residuals,
                         std::vector<double>* grad) {
  const size_t d = X.cols();
  const size_t rows = end - begin;
  const bool f32 = X.is_float32();
  const simd::Kernels& kernels = simd::Active();
  double* r = residuals->data();
  for (size_t i = 0; i < rows; ++i) {
    r[i] = f32 ? kernels.dot_f32(X.RowF(begin + i), theta.data(), d)
               : kernels.dot(X.Row(begin + i), theta.data(), d);
  }
  const double loss = kernels.logistic_loss_residual(
      r, theta[d], weights.data() + begin, y.data() + begin, rows);
  std::fill(grad->begin(), grad->end(), 0.0);
  double* g = grad->data();
  for (size_t i = 0; i < rows; ++i) {
    if (r[i] == 0.0) continue;
    if (f32) {
      kernels.axpy_f32(r[i], X.RowF(begin + i), g, d);
    } else {
      kernels.axpy(r[i], X.Row(begin + i), g, d);
    }
    g[d] += r[i];
  }
  return loss;
}

}  // namespace

LogisticRegressionModel::LogisticRegressionModel(std::vector<double> coefficients,
                                                 double intercept)
    : coefficients_(std::move(coefficients)), intercept_(intercept) {}

std::vector<double> LogisticRegressionModel::PredictProba(const Matrix& X) const {
  OF_CHECK_EQ(X.cols(), coefficients_.size());
  // Fused batch predict: the margins land straight in the output buffer (one
  // simd matvec over either storage mode), then one batched sigmoid pass.
  std::vector<double> proba(X.rows());
  X.MatVecInto(coefficients_.data(), proba.data());
  for (double& p : proba) p += intercept_;
  SigmoidInPlace(&proba);
  return proba;
}

LogisticRegressionTrainer::LogisticRegressionTrainer(LogisticRegressionOptions options)
    : options_(options) {}

std::unique_ptr<Classifier> LogisticRegressionTrainer::Fit(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  if (options_.batch_size > 0) return FitMiniBatch(X, y, weights);
  OF_TRACE_SPAN("fit/lr");
  OF_SCOPED_LATENCY_US("ml.fit_us.lr");
  const size_t d = X.cols();

  std::vector<double> theta(d + 1, 0.0);
  if (warm_start_ && warm_theta_.size() == d + 1) theta = warm_theta_;

  std::vector<double> residuals(X.rows(), 0.0);  // shared z/residual scratch
  std::vector<double> grad(d + 1, 0.0);
  double loss = 0.0;
  double grad_norm = 0.0;
  auto evaluate_start = [&] {
    loss = Loss(X, y, weights, theta, options_.l2, &residuals);
    grad_norm = Gradient(X, theta, options_.l2, residuals, &grad);
    return std::isfinite(loss) && std::isfinite(grad_norm);
  };
  bool finite = evaluate_start();
  if (!finite && warm_start_) {
    // A pathological warm start (e.g. from a diverged previous fit) can put
    // the initial loss out of range; restart from zero instead.
    std::fill(theta.begin(), theta.end(), 0.0);
    finite = evaluate_start();
  }
  if (!finite) {
    // Even theta = 0 overflows: the data/weights themselves are degenerate.
    OF_LOG(Warning) << "logistic regression: non-finite loss at theta=0; "
                       "returning the zero-coefficient model";
    return std::make_unique<LogisticRegressionModel>(std::vector<double>(d, 0.0), 0.0);
  }

  std::vector<double> next_grad(d + 1, 0.0);
  std::vector<double> direction(d + 1, 0.0);
  std::vector<double> candidate(d + 1, 0.0);
  LbfgsHistory history(d + 1);
  // Divergence recovery (DESIGN.md §8): theta only ever moves to a point
  // whose loss and gradient are finite, so it is always the last finite
  // checkpoint. A non-finite step is not taken; it (or an injected fault)
  // clears the history and halves the first step, up to
  // max_divergence_retries times.
  double first_step = options_.learning_rate;
  bool step_diverged = false;
  int retries = 0;

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++total_iterations_;
    if (step_diverged || FaultInjector::ShouldFail(fault_sites::kLrDescend)) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "logistic regression: divergence persisted after "
                        << retries << " retries; returning last checkpoint";
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "logistic regression: non-finite loss/gradient at "
                         "iteration "
                      << iter << "; backing off (retry " << retries << ")";
      history.Clear();
      first_step = options_.learning_rate * std::pow(0.5, retries);
      step_diverged = false;
      continue;
    }
    if (grad_norm < options_.tolerance) break;

    // Quasi-Newton direction with a unit first step; steepest descent from
    // `first_step` when there is no history or the direction does not
    // descend.
    double step = 1.0;
    double slope = 0.0;
    if (!history.empty()) {
      history.Direction(grad, &direction);
      slope = Dot(grad, direction);
    }
    if (!(slope < 0.0)) {
      history.Clear();
      for (size_t c = 0; c <= d; ++c) direction[c] = -grad[c];
      slope = -Dot(grad, grad);
      step = first_step;
    }

    // Armijo backtracking on the full-batch loss; NaN never passes.
    bool accepted = false;
    double candidate_loss = loss;
    for (int attempt = 0; attempt < kMaxHalvings; ++attempt) {
      for (size_t c = 0; c <= d; ++c) candidate[c] = theta[c] + step * direction[c];
      candidate_loss = Loss(X, y, weights, candidate, options_.l2, &residuals);
      if (candidate_loss <= loss + kArmijo * step * slope) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // step underflow: converged to numeric precision

    // `residuals` holds those of the accepted candidate.
    const double next_norm =
        Gradient(X, candidate, options_.l2, residuals, &next_grad);
    if (!std::isfinite(next_norm)) {
      step_diverged = true;
      continue;
    }
    history.Push(theta, candidate, grad, next_grad);
    theta.swap(candidate);
    grad.swap(next_grad);
    loss = candidate_loss;
    grad_norm = next_norm;
  }

  if (warm_start_) warm_theta_ = theta;
  const double intercept = theta[d];
  theta.resize(d);
  return std::make_unique<LogisticRegressionModel>(std::move(theta), intercept);
}

std::unique_ptr<Classifier> LogisticRegressionTrainer::FitMiniBatch(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights) {
  OF_TRACE_SPAN("fit/lr_sgd");
  OF_SCOPED_LATENCY_US("ml.fit_us.lr");
  const size_t n = X.rows();
  const size_t d = X.cols();
  const size_t batch = std::min(options_.batch_size, n);
  const size_t num_batches = batch > 0 ? (n + batch - 1) / batch : 0;

  std::vector<double> theta(d + 1, 0.0);
  const bool warm_usable =
      warm_start_ && warm_theta_.size() == d + 1 &&
      std::all_of(warm_theta_.begin(), warm_theta_.end(),
                  [](double value) { return std::isfinite(value); });
  if (warm_usable) theta = warm_theta_;
  if (n == 0 || num_batches == 0) {
    return std::make_unique<LogisticRegressionModel>(std::vector<double>(d, 0.0), 0.0);
  }

  std::vector<double> grad(d + 1, 0.0);
  std::vector<double> residuals(batch);
  Rng shuffle_rng(options_.shuffle_seed);

  // Same recovery contract as the full-batch loop (DESIGN.md §8): the
  // checkpoint is the last end-of-epoch theta whose running loss (which,
  // through the L2 term, also covers theta itself) was finite; a non-finite
  // epoch rolls back to it with a halved learning rate.
  std::vector<double> checkpoint = theta;
  double learning_rate = options_.learning_rate;
  int retries = 0;
  double previous_loss = std::numeric_limits<double>::infinity();
  long long global_batch = 0;  // drives the kInvSqrt decay across epochs

  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    // Deterministic per-epoch batch order: one sequential draw per epoch from
    // a single seeded stream, independent of thread count.
    const std::vector<size_t> order = shuffle_rng.Permutation(num_batches);
    double epoch_loss = 0.0;
    for (size_t b : order) {
      const size_t begin = b * batch;
      const size_t end = std::min(n, begin + batch);
      epoch_loss +=
          BatchLossGradient(X, y, weights, theta, begin, end, &residuals, &grad);
      ++global_batch;
      ++total_iterations_;
      double step = learning_rate;
      if (options_.lr_schedule == LrSchedule::kInvSqrt) {
        step /= std::sqrt(static_cast<double>(global_batch));
      }
      const double inv_rows = 1.0 / static_cast<double>(end - begin);
      for (size_t c = 0; c < d; ++c) {
        theta[c] -= step * (grad[c] * inv_rows + options_.l2 * theta[c]);
      }
      theta[d] -= step * grad[d] * inv_rows;
    }
    OF_COUNTER_ADD("sgd.batches", static_cast<long long>(order.size()));
    OF_COUNTER_INC("sgd.epochs");
    epoch_loss /= static_cast<double>(n);
    for (size_t c = 0; c < d; ++c) {
      epoch_loss += 0.5 * options_.l2 * theta[c] * theta[c];
    }

    const bool diverged = !std::isfinite(epoch_loss) ||
                          FaultInjector::ShouldFail(fault_sites::kLrDescend);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "logistic regression (sgd): divergence persisted "
                           "after "
                        << retries << " retries; returning last checkpoint";
        theta = checkpoint;
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "logistic regression (sgd): non-finite epoch loss at "
                         "epoch "
                      << epoch << "; backing off (retry " << retries << ")";
      theta = checkpoint;
      learning_rate *= 0.5;
      previous_loss = std::numeric_limits<double>::infinity();
      continue;
    }
    checkpoint = theta;
    if (std::fabs(previous_loss - epoch_loss) <
        options_.tolerance * std::max(1.0, std::fabs(previous_loss))) {
      break;
    }
    previous_loss = epoch_loss;
  }

  // The loop can only exit with non-finite theta if every epoch diverged and
  // retries ran out before a finite checkpoint existed; guard regardless.
  if (!std::all_of(theta.begin(), theta.end(),
                   [](double value) { return std::isfinite(value); })) {
    theta = checkpoint;
  }
  if (warm_start_) warm_theta_ = theta;
  const double intercept = theta[d];
  theta.resize(d);
  return std::make_unique<LogisticRegressionModel>(std::move(theta), intercept);
}

}  // namespace omnifair
