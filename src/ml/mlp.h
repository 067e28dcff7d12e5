#ifndef OMNIFAIR_ML_MLP_H_
#define OMNIFAIR_ML_MLP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Hyperparameters for the multilayer perceptron.
struct MlpOptions {
  int hidden_units = 16;
  int max_epochs = 150;
  double learning_rate = 0.05;  // Adam step size
  double l2 = 1e-4;
  /// Convergence threshold on relative loss improvement per epoch.
  double tolerance = 1e-6;
  uint64_t seed = 23;
  /// Divergence recovery (DESIGN.md §8): on a non-finite epoch loss the
  /// parameters roll back to the last finite checkpoint, the Adam moments
  /// reset and the learning rate halves, at most this many times before the
  /// checkpoint model is returned as-is.
  int max_divergence_retries = 3;
  /// Mini-batch Adam (DESIGN.md §16): 0 keeps the exact full-batch path
  /// (bit-identical to the default trainer); any positive value switches to
  /// weighted mini-batch Adam over contiguous batches of this many rows in a
  /// deterministic per-epoch shuffle forked from `seed`. Updates are applied
  /// serially, so results are bit-reproducible at any thread count.
  size_t batch_size = 0;
  /// Epochs (full passes over the data) for the mini-batch path; the
  /// full-batch path uses max_epochs instead.
  int epochs = 5;
  /// Per-batch step-size decay for the mini-batch path.
  LrSchedule lr_schedule = LrSchedule::kConstant;
};

/// A trained one-hidden-layer MLP: p = sigmoid(w2 . relu(W1 x + b1) + b2).
class MlpModel : public Classifier {
 public:
  /// `w1` is W1 row-major (hidden x input); `b1` and `w2` have one entry per
  /// hidden unit.
  MlpModel(ModelArray<double> w1, ModelArray<double> b1, ModelArray<double> w2,
           double b2);

  std::vector<double> PredictProba(const Matrix& X) const override;
  std::string Name() const override { return "mlp"; }

  size_t hidden_units() const { return b1_.size(); }
  size_t input_dims() const { return w1_.size() / b1_.size(); }
  const ModelArray<double>& w1() const { return w1_; }
  const ModelArray<double>& b1() const { return b1_; }
  const ModelArray<double>& w2() const { return w2_; }
  double b2() const { return b2_; }

 private:
  ModelArray<double> w1_;  // hidden x input, row-major
  ModelArray<double> b1_;  // hidden
  ModelArray<double> w2_;  // hidden
  double b2_;
};

/// Weighted neural network trained with full-batch Adam on the weighted
/// cross-entropy — the "NN" column of the paper's Table 5. Supports warm
/// starts like the LR trainer (the paper notes the warm-start optimization
/// "is also applicable to NN").
class MlpTrainer : public Trainer {
 public:
  explicit MlpTrainer(MlpOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "mlp"; }
  std::unique_ptr<Trainer> Clone() const override {
    return std::make_unique<MlpTrainer>(options_);
  }
  bool SupportsWarmStart() const override { return true; }
  void SetWarmStart(bool enabled) override { warm_start_ = enabled; }
  void ResetWarmStart() override { warm_params_.clear(); }

 private:
  /// Weighted mini-batch Adam path (options_.batch_size > 0); same divergence
  /// rollback/backoff semantics as the full-batch loop, with the Adam bias
  /// correction driven by the global batch counter instead of the epoch.
  std::unique_ptr<Classifier> FitMiniBatch(const Matrix& X,
                                           const std::vector<int>& y,
                                           const std::vector<double>& weights,
                                           std::vector<double> params);

  MlpOptions options_;
  bool warm_start_ = false;
  std::vector<double> warm_params_;  // flat parameter vector
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_MLP_H_
