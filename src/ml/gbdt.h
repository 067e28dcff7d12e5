#ifndef OMNIFAIR_ML_GBDT_H_
#define OMNIFAIR_ML_GBDT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/binning.h"
#include "ml/classifier.h"
#include "ml/tree_table.h"

namespace omnifair {

/// Hyperparameters for the gradient-boosted tree ensemble.
struct GbdtOptions {
  int num_rounds = 40;
  int max_depth = 4;
  double learning_rate = 0.25;
  /// L2 regularization on leaf values (XGBoost's lambda).
  double reg_lambda = 1.0;
  /// Minimum hessian sum per leaf (XGBoost's min_child_weight).
  double min_child_weight = 1.0;
  /// Minimum gain to accept a split (XGBoost's gamma).
  double min_split_gain = 0.0;
  /// Divergence recovery (DESIGN.md §8): a boosting round whose tree pushes
  /// any raw score non-finite is dropped and subsequent trees have their
  /// leaf values damped by another factor of 2, at most this many times
  /// before boosting stops with the ensemble built so far.
  int max_divergence_retries = 3;
  /// Split search strategy (DESIGN.md §11). kExact is the seed behavior and
  /// stays bit-identical to it; kHistogram pre-quantizes X once per fit (and
  /// once per tuning run via the shared BinningCache) and scans bin
  /// histograms per node.
  SplitMethod split_method = SplitMethod::kExact;
  /// Bins per feature in histogram mode (clamped to [2, 255]).
  int max_bins = 255;
  /// Worker threads for histogram builds and chunked prediction; 1 keeps
  /// the exact serial paths. Fitted trees and predictions are bit-identical
  /// for any value.
  int num_threads = 1;
};

/// An XGBoost-style boosted ensemble for binary classification: regression
/// trees over (gradient, hessian) statistics whose leaves hold additive
/// log-odds contributions.
class GbdtModel : public Classifier {
 public:
  /// `num_threads` parallelizes PredictProba/PredictRaw over disjoint row
  /// chunks on the shared pool (mirroring RandomForestModel); 1 keeps
  /// prediction fully sequential. Either way each row sums its trees in
  /// index order, so results are identical for any thread count.
  GbdtModel(TreeTable trees, double base_score, double learning_rate,
            int num_threads = 1);

  std::vector<double> PredictProba(const Matrix& X) const override;
  /// Per-row traversal straight into the output buffer — no temporary.
  void AccumulateProba(const Matrix& X, size_t row_begin, size_t row_end,
                       std::vector<double>& proba) const override;
  std::string Name() const override { return "gbdt"; }

  size_t NumTrees() const { return trees_.num_trees(); }
  const TreeTable& table() const { return trees_; }
  double base_score() const { return base_score_; }
  double learning_rate() const { return learning_rate_; }
  /// Raw additive score (log-odds) per row.
  std::vector<double> PredictRaw(const Matrix& X) const;

 private:
  template <typename T>
  double RawRow(const T* row) const;

  TreeTable trees_;
  double base_score_;
  double learning_rate_;
  int num_threads_ = 1;
};

/// Gradient-boosted decision trees with the second-order (Newton) logistic
/// objective of XGBoost [13]. Example weights scale each example's gradient
/// and hessian, matching xgboost's sample_weight semantics — this is the
/// "XGB" column of the paper's Table 5.
class GbdtTrainer : public Trainer {
 public:
  explicit GbdtTrainer(GbdtOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "gbdt"; }
  /// The clone shares this trainer's BinningCache, so parallel tuners that
  /// fit every grid point on its own clone still bin X exactly once.
  std::unique_ptr<Trainer> Clone() const override;

  /// Hands the trainer a pre-built binning for upcoming Fits. Ignored in
  /// exact mode or when it does not match the fitted X.
  void SetBinnedMatrix(std::shared_ptr<const BinnedMatrix> binned) {
    preset_binned_ = std::move(binned);
  }

 private:
  GbdtOptions options_;
  std::shared_ptr<BinningCache> bin_cache_;
  std::shared_ptr<const BinnedMatrix> preset_binned_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_GBDT_H_
