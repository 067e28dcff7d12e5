#ifndef OMNIFAIR_ML_NAIVE_BAYES_H_
#define OMNIFAIR_ML_NAIVE_BAYES_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Hyperparameters for Gaussian naive Bayes.
struct NaiveBayesOptions {
  /// Variance floor as a fraction of the largest per-feature variance
  /// (scikit-learn's var_smoothing).
  double variance_smoothing = 1e-9;
};

/// A fitted Gaussian naive Bayes model: class priors + per-class
/// per-feature means and variances.
class NaiveBayesModel : public Classifier {
 public:
  NaiveBayesModel(double log_prior_ratio, ModelArray<double> mean0,
                  ModelArray<double> mean1, ModelArray<double> var0,
                  ModelArray<double> var1);

  std::vector<double> PredictProba(const Matrix& X) const override;
  std::string Name() const override { return "naive_bayes"; }

  double log_prior_ratio() const { return log_prior_ratio_; }
  const ModelArray<double>& mean0() const { return mean0_; }
  const ModelArray<double>& mean1() const { return mean1_; }
  const ModelArray<double>& var0() const { return var0_; }
  const ModelArray<double>& var1() const { return var1_; }

 private:
  double log_prior_ratio_;  // log P(y=1) - log P(y=0)
  ModelArray<double> mean0_;
  ModelArray<double> mean1_;
  ModelArray<double> var0_;
  ModelArray<double> var1_;
};

/// Weighted Gaussian naive Bayes. A deliberately different model family
/// from everything else in the registry: no loss function, no iterative
/// optimization — just weighted sufficient statistics. Exercises the
/// paper's model-agnostic claim at its purest, since the only lever
/// OmniFair has here really is the example weights.
class NaiveBayesTrainer : public Trainer {
 public:
  explicit NaiveBayesTrainer(NaiveBayesOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "naive_bayes"; }
  std::unique_ptr<Trainer> Clone() const override {
    return std::make_unique<NaiveBayesTrainer>(options_);
  }

 private:
  NaiveBayesOptions options_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_NAIVE_BAYES_H_
