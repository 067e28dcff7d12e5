#include "ml/mlp.h"

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

// Flat parameter layout: [W1 (h*d), b1 (h), w2 (h), b2 (1)].
size_t ParamCount(size_t d, size_t h) { return h * d + h + h + 1; }

struct Views {
  double* W1;
  double* b1;
  double* w2;
  double* b2;
};

Views MakeViews(std::vector<double>& params, size_t d, size_t h) {
  Views v;
  v.W1 = params.data();
  v.b1 = params.data() + h * d;
  v.w2 = params.data() + h * d + h;
  v.b2 = params.data() + h * d + h + h;
  return v;
}

/// Forward/backward over rows [begin, end) at parameters `v`, accumulating
/// unnormalized gradient sums into `g`; returns the unnormalized weighted
/// loss sum. `hidden` / `relu_active` are caller-owned scratch of size h.
/// Shared verbatim by the full-batch loop (called with the whole row range)
/// and the mini-batch loop, so both see identical per-row arithmetic.
double AccumulateLossGrad(const Matrix& X, const std::vector<int>& y,
                          const std::vector<double>& weights, const Views& v,
                          const Views& g, size_t begin, size_t end, size_t d,
                          size_t h, std::vector<double>& hidden,
                          std::vector<double>& relu_active) {
  const bool f32 = X.is_float32();
  const simd::Kernels& kernels = simd::Active();
  double loss = 0.0;
  for (size_t i = begin; i < end; ++i) {
    // Forward/backward dots and the gradient rank-1 update run on the simd
    // kernels; float32 feature rows widen per lane against the double
    // parameters, so accumulators stay double in either storage mode.
    const double* row = f32 ? nullptr : X.Row(i);
    const float* rowf = f32 ? X.RowF(i) : nullptr;
    double z2 = *v.b2;
    for (size_t j = 0; j < h; ++j) {
      const double* wj = v.W1 + j * d;
      const double z = v.b1[j] + (f32 ? kernels.dot_f32(rowf, wj, d)
                                      : kernels.dot(wj, row, d));
      relu_active[j] = z > 0.0 ? 1.0 : 0.0;
      hidden[j] = z > 0.0 ? z : 0.0;
      z2 += v.w2[j] * hidden[j];
    }
    const double target = y[i] == 1 ? 1.0 : 0.0;
    loss += weights[i] * (Log1pExp(z2) - target * z2);
    const double delta2 = weights[i] * (Sigmoid(z2) - target);
    *g.b2 += delta2;
    for (size_t j = 0; j < h; ++j) {
      g.w2[j] += delta2 * hidden[j];
      const double delta1 = delta2 * v.w2[j] * relu_active[j];
      if (delta1 == 0.0) continue;
      g.b1[j] += delta1;
      double* gw = g.W1 + j * d;
      if (f32) {
        kernels.axpy_f32(delta1, rowf, gw, d);
      } else {
        kernels.axpy(delta1, row, gw, d);
      }
    }
  }
  return loss;
}

/// The model over a flat parameter vector (layout as in MakeViews).
std::unique_ptr<Classifier> ModelFromParams(const std::vector<double>& params,
                                            size_t d, size_t h) {
  const auto at = [&params](size_t offset) { return params.begin() + offset; };
  return std::make_unique<MlpModel>(
      std::vector<double>(at(0), at(h * d)),
      std::vector<double>(at(h * d), at(h * d + h)),
      std::vector<double>(at(h * d + h), at(h * d + 2 * h)), params[h * d + 2 * h]);
}

}  // namespace

MlpModel::MlpModel(ModelArray<double> w1, ModelArray<double> b1,
                   ModelArray<double> w2, double b2)
    : w1_(std::move(w1)), b1_(std::move(b1)), w2_(std::move(w2)), b2_(b2) {
  OF_CHECK(!b1_.empty() && w2_.size() == b1_.size() &&
           w1_.size() % b1_.size() == 0);
}

std::vector<double> MlpModel::PredictProba(const Matrix& X) const {
  const size_t d = input_dims();
  const size_t h = hidden_units();
  OF_CHECK_EQ(X.cols(), d);
  const size_t n = X.rows();
  std::vector<double> proba(n);
  std::vector<double> hidden(h);  // one reused scratch row of activations
  const simd::Kernels& kernels = simd::Active();
  // Row-blocked batch predict: margins for a block of rows accumulate in the
  // output buffer, then one batched sigmoid pass per block while the block is
  // still cache-hot. 256 rows of margins is 2 KB — comfortably L1. The hidden
  // layer runs one dot kernel per unit (dot_f32 takes the float row first).
  constexpr size_t kBlockRows = 256;
  for (size_t start = 0; start < n; start += kBlockRows) {
    const size_t end = std::min(n, start + kBlockRows);
    for (size_t i = start; i < end; ++i) {
      if (X.is_float32()) {
        const float* row = X.RowF(i);
        for (size_t j = 0; j < h; ++j) {
          hidden[j] = kernels.dot_f32(row, w1_.data() + j * d, d);
        }
      } else {
        const double* row = X.Row(i);
        for (size_t j = 0; j < h; ++j) {
          hidden[j] = kernels.dot(w1_.data() + j * d, row, d);
        }
      }
      for (size_t j = 0; j < h; ++j) {
        const double z = hidden[j] + b1_[j];
        hidden[j] = z > 0.0 ? z : 0.0;  // ReLU
      }
      proba[i] = b2_ + kernels.dot(w2_.data(), hidden.data(), h);
    }
    kernels.sigmoid_inplace(proba.data() + start, end - start);
  }
  return proba;
}

MlpTrainer::MlpTrainer(MlpOptions options) : options_(options) {}

std::unique_ptr<Classifier> MlpTrainer::Fit(const Matrix& X, const std::vector<int>& y,
                                            const std::vector<double>& weights) {
  OF_CHECK_EQ(X.rows(), y.size());
  OF_CHECK_EQ(X.rows(), weights.size());
  OF_TRACE_SPAN("fit/nn");
  OF_SCOPED_LATENCY_US("ml.fit_us.nn");
  const size_t n = X.rows();
  const size_t d = X.cols();
  const size_t h = static_cast<size_t>(options_.hidden_units);
  const size_t p = ParamCount(d, h);

  std::vector<double> params(p);
  const bool warm_usable =
      warm_start_ && warm_params_.size() == p &&
      std::all_of(warm_params_.begin(), warm_params_.end(),
                  [](double value) { return std::isfinite(value); });
  if (warm_usable) {
    params = warm_params_;
  } else {
    Rng rng(options_.seed);
    const double scale = std::sqrt(2.0 / static_cast<double>(d));
    for (size_t k = 0; k < h * d; ++k) params[k] = rng.NextGaussian(0.0, scale);
    for (size_t k = h * d; k < p; ++k) params[k] = 0.0;
    const double out_scale = std::sqrt(2.0 / static_cast<double>(h));
    Views v = MakeViews(params, d, h);
    for (size_t j = 0; j < h; ++j) v.w2[j] = rng.NextGaussian(0.0, out_scale);
  }

  if (options_.batch_size > 0) {
    return FitMiniBatch(X, y, weights, std::move(params));
  }

  std::vector<double> grad(p, 0.0);
  std::vector<double> m(p, 0.0);
  std::vector<double> vv(p, 0.0);
  std::vector<double> hidden(h);
  std::vector<double> relu_active(h);
  const double beta1 = 0.9;
  const double beta2 = 0.999;
  const double adam_eps = 1e-8;
  double previous_loss = std::numeric_limits<double>::infinity();

  // Divergence recovery (DESIGN.md §8): `checkpoint` is the last parameter
  // vector whose epoch loss was finite; a non-finite loss rolls back to it
  // with reset Adam moments and a halved learning rate.
  std::vector<double> checkpoint = params;
  double learning_rate = options_.learning_rate;
  int retries = 0;

  for (int epoch = 1; epoch <= options_.max_epochs; ++epoch) {
    Views v = MakeViews(params, d, h);
    std::fill(grad.begin(), grad.end(), 0.0);
    Views g = MakeViews(grad, d, h);
    const double loss_sum = AccumulateLossGrad(X, y, weights, v, g, 0, n, d, h,
                                               hidden, relu_active);
    const double inv_n = 1.0 / static_cast<double>(n);
    double loss = loss_sum;
    loss *= inv_n;

    const bool diverged =
        !std::isfinite(loss) || FaultInjector::ShouldFail(fault_sites::kMlpEpoch);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "mlp: divergence persisted after " << retries
                        << " retries; returning last checkpoint";
        params = checkpoint;
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "mlp: non-finite loss at epoch " << epoch
                      << "; backing off (retry " << retries << ")";
      params = checkpoint;
      std::fill(m.begin(), m.end(), 0.0);
      std::fill(vv.begin(), vv.end(), 0.0);
      learning_rate *= 0.5;
      previous_loss = std::numeric_limits<double>::infinity();
      continue;
    }
    checkpoint = params;

    for (size_t k = 0; k < p; ++k) {
      grad[k] = grad[k] * inv_n + options_.l2 * params[k];
    }

    // Adam update.
    const double bc1 = 1.0 - std::pow(beta1, epoch);
    const double bc2 = 1.0 - std::pow(beta2, epoch);
    for (size_t k = 0; k < p; ++k) {
      m[k] = beta1 * m[k] + (1.0 - beta1) * grad[k];
      vv[k] = beta2 * vv[k] + (1.0 - beta2) * grad[k] * grad[k];
      params[k] -= learning_rate * (m[k] / bc1) /
                   (std::sqrt(vv[k] / bc2) + adam_eps);
    }

    if (std::fabs(previous_loss - loss) <
        options_.tolerance * std::max(1.0, std::fabs(previous_loss))) {
      break;
    }
    previous_loss = loss;
  }

  // The final Adam update runs after the epoch's loss check, so it can still
  // push a parameter out of range; fall back to the checkpoint then.
  if (!std::all_of(params.begin(), params.end(),
                   [](double value) { return std::isfinite(value); })) {
    CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
    OF_LOG(Warning) << "mlp: non-finite parameters after training; "
                       "returning last checkpoint";
    params = checkpoint;
  }

  if (warm_start_) warm_params_ = params;

  return ModelFromParams(params, d, h);
}

std::unique_ptr<Classifier> MlpTrainer::FitMiniBatch(
    const Matrix& X, const std::vector<int>& y, const std::vector<double>& weights,
    std::vector<double> params) {
  const size_t n = X.rows();
  const size_t d = X.cols();
  const size_t h = static_cast<size_t>(options_.hidden_units);
  const size_t p = ParamCount(d, h);
  const size_t batch = std::min(options_.batch_size, n);
  const size_t num_batches = batch > 0 ? (n + batch - 1) / batch : 0;
  if (num_batches == 0) {
    // Degenerate empty input: return the untrained initialization.
    return ModelFromParams(params, d, h);
  }

  std::vector<double> grad(p, 0.0);
  std::vector<double> m(p, 0.0);
  std::vector<double> vv(p, 0.0);
  std::vector<double> hidden(h);
  std::vector<double> relu_active(h);
  const double beta1 = 0.9;
  const double beta2 = 0.999;
  const double adam_eps = 1e-8;
  // Independent shuffle stream forked off the init seed: batch order is a
  // function of (seed, epoch) alone, never of thread count.
  Rng shuffle_rng = Rng(options_.seed).Fork();

  // Same recovery contract as the full-batch loop (DESIGN.md §8), at epoch
  // granularity: rollback to the last finite-loss parameters, reset the Adam
  // moments, halve the learning rate.
  std::vector<double> checkpoint = params;
  double learning_rate = options_.learning_rate;
  int retries = 0;
  double previous_loss = std::numeric_limits<double>::infinity();
  long long t = 0;  // global batch counter: Adam bias correction + kInvSqrt

  for (int epoch = 1; epoch <= options_.epochs; ++epoch) {
    Views v = MakeViews(params, d, h);
    Views g = MakeViews(grad, d, h);
    const std::vector<size_t> order = shuffle_rng.Permutation(num_batches);
    double epoch_loss = 0.0;
    for (size_t b : order) {
      const size_t begin = b * batch;
      const size_t end = std::min(n, begin + batch);
      std::fill(grad.begin(), grad.end(), 0.0);
      epoch_loss += AccumulateLossGrad(X, y, weights, v, g, begin, end, d, h,
                                       hidden, relu_active);
      ++t;
      const double inv_rows = 1.0 / static_cast<double>(end - begin);
      for (size_t k = 0; k < p; ++k) {
        grad[k] = grad[k] * inv_rows + options_.l2 * params[k];
      }
      double step = learning_rate;
      if (options_.lr_schedule == LrSchedule::kInvSqrt) {
        step /= std::sqrt(static_cast<double>(t));
      }
      const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
      for (size_t k = 0; k < p; ++k) {
        m[k] = beta1 * m[k] + (1.0 - beta1) * grad[k];
        vv[k] = beta2 * vv[k] + (1.0 - beta2) * grad[k] * grad[k];
        params[k] -= step * (m[k] / bc1) / (std::sqrt(vv[k] / bc2) + adam_eps);
      }
    }
    OF_COUNTER_ADD("sgd.batches", static_cast<long long>(order.size()));
    OF_COUNTER_INC("sgd.epochs");
    epoch_loss /= static_cast<double>(n);

    const bool diverged = !std::isfinite(epoch_loss) ||
                          FaultInjector::ShouldFail(fault_sites::kMlpEpoch);
    if (diverged) {
      if (retries >= options_.max_divergence_retries) {
        OF_LOG(Warning) << "mlp (sgd): divergence persisted after " << retries
                        << " retries; returning last checkpoint";
        params = checkpoint;
        break;
      }
      ++retries;
      CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
      OF_LOG(Warning) << "mlp (sgd): non-finite epoch loss at epoch " << epoch
                      << "; backing off (retry " << retries << ")";
      params = checkpoint;
      std::fill(m.begin(), m.end(), 0.0);
      std::fill(vv.begin(), vv.end(), 0.0);
      learning_rate *= 0.5;
      previous_loss = std::numeric_limits<double>::infinity();
      continue;
    }
    checkpoint = params;
    if (std::fabs(previous_loss - epoch_loss) <
        options_.tolerance * std::max(1.0, std::fabs(previous_loss))) {
      break;
    }
    previous_loss = epoch_loss;
  }

  // The last batch of a finite epoch can still push a parameter out of range;
  // fall back to the checkpoint then, exactly like the full-batch path.
  if (!std::all_of(params.begin(), params.end(),
                   [](double value) { return std::isfinite(value); })) {
    CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
    OF_LOG(Warning) << "mlp (sgd): non-finite parameters after training; "
                       "returning last checkpoint";
    params = checkpoint;
  }

  if (warm_start_) warm_params_ = params;

  return ModelFromParams(params, d, h);
}

}  // namespace omnifair
