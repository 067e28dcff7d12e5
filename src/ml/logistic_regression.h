#ifndef OMNIFAIR_ML_LOGISTIC_REGRESSION_H_
#define OMNIFAIR_ML_LOGISTIC_REGRESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Hyperparameters for weighted logistic regression.
struct LogisticRegressionOptions {
  /// L2 regularization strength on the non-intercept coefficients.
  double l2 = 1e-4;
  /// Maximum full-batch L-BFGS iterations (recovery iterations included).
  int max_iterations = 300;
  /// Convergence threshold on the gradient's infinity norm. The default
  /// matches scikit-learn's working precision: accuracy stops changing well
  /// before 1e-4, and a reachable threshold is what lets warm starts
  /// (initializing near the optimum) actually save iterations.
  double tolerance = 1e-4;
  /// Full batch: the first step of the line search on a steepest-descent
  /// iteration (the first one, and any after a history reset);
  /// quasi-Newton iterations start from step 1. Mini batch: the SGD step.
  double learning_rate = 1.0;
  /// Divergence recovery (DESIGN.md §8): when the loss or gradient goes
  /// non-finite, training rolls back to the last finite checkpoint and
  /// halves learning_rate (full batch: also clears the L-BFGS history), at
  /// most this many times before giving up and returning the checkpoint
  /// model.
  int max_divergence_retries = 3;
  /// Mini-batch SGD (DESIGN.md §16): 0 keeps the exact full-batch path above
  /// (bit-identical to the default trainer); any positive value switches to
  /// weighted SGD over contiguous batches of this many rows, visited in a
  /// deterministic per-epoch shuffle drawn from `shuffle_seed`. Updates are
  /// applied serially, so results are bit-reproducible at any thread count.
  size_t batch_size = 0;
  /// Epochs (full passes over the data) for the mini-batch path; the
  /// full-batch path uses max_iterations instead.
  int epochs = 5;
  /// Per-batch step-size decay for the mini-batch path.
  LrSchedule lr_schedule = LrSchedule::kConstant;
  /// Seed for the per-epoch batch-order shuffle.
  uint64_t shuffle_seed = 17;
};

/// A trained logistic regression model: p(y=1|x) = sigmoid(w.x + b).
class LogisticRegressionModel : public Classifier {
 public:
  LogisticRegressionModel(ModelArray<double> coefficients, double intercept);

  std::vector<double> PredictProba(const Matrix& X) const override;
  std::string Name() const override { return "logistic_regression"; }

  const ModelArray<double>& coefficients() const { return coefficients_; }
  double intercept() const { return intercept_; }

 private:
  ModelArray<double> coefficients_;
  double intercept_;
};

/// Weighted logistic regression trained by full-batch L-BFGS (DESIGN.md §8:
/// history of 10 pairs, Armijo backtracking, stop when the gradient's
/// infinity norm falls below `tolerance`), or by mini-batch SGD when
/// `batch_size` > 0. Supports warm starts: when enabled, each Fit
/// initializes from the previous solution with an empty history, which is
/// the Table 6 optimization in the paper (1.2-3.4x speedups when Algorithm 1
/// retrains across nearby lambda values).
class LogisticRegressionTrainer : public Trainer {
 public:
  explicit LogisticRegressionTrainer(LogisticRegressionOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "logistic_regression"; }
  std::unique_ptr<Trainer> Clone() const override {
    return std::make_unique<LogisticRegressionTrainer>(options_);
  }
  bool SupportsWarmStart() const override { return true; }
  void SetWarmStart(bool enabled) override { warm_start_ = enabled; }
  void ResetWarmStart() override { warm_theta_.clear(); }

  /// Total iterations across all Fit calls: L-BFGS iterations, or SGD
  /// batches (for the warm start speedup accounting in bench_table6).
  long long total_iterations() const { return total_iterations_; }

 private:
  /// Weighted mini-batch SGD path (options_.batch_size > 0); same divergence
  /// rollback/backoff semantics as the full-batch loop.
  std::unique_ptr<Classifier> FitMiniBatch(const Matrix& X,
                                           const std::vector<int>& y,
                                           const std::vector<double>& weights);

  LogisticRegressionOptions options_;
  bool warm_start_ = false;
  std::vector<double> warm_theta_;  // coefficients + intercept (last slot)
  long long total_iterations_ = 0;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_LOGISTIC_REGRESSION_H_
