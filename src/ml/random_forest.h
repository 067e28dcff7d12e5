#ifndef OMNIFAIR_ML_RANDOM_FOREST_H_
#define OMNIFAIR_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace omnifair {

/// Hyperparameters for the random forest.
struct RandomForestOptions {
  int num_trees = 24;
  int max_depth = 9;
  /// Features per split; 0 means sqrt(num_features).
  size_t max_features = 0;
  double min_weight_leaf = 2.0;
  uint64_t seed = 17;
  /// Worker threads for tree building; 1 = sequential. Trees are seeded
  /// up-front, so the fitted forest is identical for any thread count
  /// (the paper's future-work note on parallel model training).
  int num_threads = 4;
  /// Split search strategy for every tree (DESIGN.md §11). kExact is the
  /// seed behavior; kHistogram bins X once per fit (and once per tuning run
  /// via the shared BinningCache) and every tree reuses the same
  /// BinnedMatrix.
  SplitMethod split_method = SplitMethod::kExact;
  /// Bins per feature in histogram mode (clamped to [2, 255]).
  int max_bins = 255;
};

/// Bagged ensemble of weighted CART trees; probability = mean leaf
/// probability across trees.
class RandomForestModel : public Classifier {
 public:
  /// `num_threads` parallelizes PredictProba over disjoint row chunks on the
  /// shared pool; 1 keeps prediction fully sequential. Either way every row's
  /// probability sums the trees in index order, so results are identical for
  /// any thread count.
  explicit RandomForestModel(TreeTable trees, int num_threads = 1);

  std::vector<double> PredictProba(const Matrix& X) const override;
  std::string Name() const override { return "random_forest"; }

  size_t NumTrees() const { return trees_.num_trees(); }
  const TreeTable& table() const { return trees_; }

 private:
  TreeTable trees_;
  int num_threads_ = 1;
};

/// Weighted random forest. Example weights are folded into the bootstrap:
/// each tree draws a Poisson-like bootstrap count per example and multiplies
/// it by the example's weight, matching scikit-learn's handling of
/// sample_weight under bagging.
class RandomForestTrainer : public Trainer {
 public:
  explicit RandomForestTrainer(RandomForestOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "random_forest"; }
  /// The clone shares this trainer's BinningCache, so parallel tuners that
  /// fit every grid point on its own clone still bin X exactly once.
  std::unique_ptr<Trainer> Clone() const override;

 private:
  RandomForestOptions options_;
  std::shared_ptr<BinningCache> bin_cache_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_RANDOM_FOREST_H_
