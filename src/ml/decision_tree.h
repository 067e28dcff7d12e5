#ifndef OMNIFAIR_ML_DECISION_TREE_H_
#define OMNIFAIR_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/binning.h"
#include "ml/classifier.h"
#include "ml/tree_table.h"
#include "util/random.h"

namespace omnifair {

/// Hyperparameters for the weighted CART classifier.
struct DecisionTreeOptions {
  int max_depth = 8;
  /// Do not split nodes whose total example weight is below this.
  double min_weight_split = 4.0;
  /// Minimum total example weight on each side of a split.
  double min_weight_leaf = 2.0;
  /// Number of features considered per node; 0 means all (plain CART),
  /// otherwise a random subset (used by RandomForestTrainer).
  size_t max_features = 0;
  uint64_t seed = 7;
  /// Split search strategy (DESIGN.md §11). kExact is the seed behavior and
  /// stays bit-identical to it; kHistogram pre-quantizes X once and scans
  /// bin histograms per node.
  SplitMethod split_method = SplitMethod::kExact;
  /// Bins per feature in histogram mode (clamped to [2, 255]).
  int max_bins = 255;
  /// Worker threads for histogram builds (binning + per-feature node
  /// histograms); 1 keeps the exact serial path. Results are bit-identical
  /// for any value.
  int num_threads = 1;
};

/// A fitted CART tree: one tree's breadth-first node tables, whose leaf
/// values are the weighted P(y=1) of the training examples reaching them.
class DecisionTreeModel : public Classifier {
 public:
  /// `table` holds exactly one tree.
  explicit DecisionTreeModel(TreeTable table);

  std::vector<double> PredictProba(const Matrix& X) const override;
  /// Per-row traversal straight into the output buffer — no temporary.
  void AccumulateProba(const Matrix& X, size_t row_begin, size_t row_end,
                       std::vector<double>& proba) const override;
  std::string Name() const override { return "decision_tree"; }

  size_t NumNodes() const { return table_.num_nodes(); }
  const TreeTable& table() const { return table_; }
  /// Depth of the deepest leaf (root = 0).
  int Depth() const;

 private:
  TreeTable table_;
};

/// Weighted CART on the weighted Gini impurity, with exact (per-node sort)
/// or histogram (pre-quantized bins) split search. Trees optimize accuracy
/// without an explicit loss function, which is exactly why the paper needs a
/// model-agnostic mechanism — the only fairness hook available here is the
/// example weights.
class DecisionTreeTrainer : public Trainer {
 public:
  explicit DecisionTreeTrainer(DecisionTreeOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "decision_tree"; }
  /// Fit's tree as bare node tables (RandomForestTrainer concatenates them).
  TreeTable FitTable(const Matrix& X, const std::vector<int>& y,
                     const std::vector<double>& weights);
  /// The clone shares this trainer's BinningCache, so parallel tuners that
  /// fit every grid point on its own clone still bin X exactly once.
  std::unique_ptr<Trainer> Clone() const override;

  /// Hands the trainer a pre-built binning for the upcoming Fit (used by
  /// RandomForestTrainer so all trees of a forest share one BinnedMatrix).
  /// Ignored in exact mode or when it does not match the fitted X.
  void SetBinnedMatrix(std::shared_ptr<const BinnedMatrix> binned) {
    preset_binned_ = std::move(binned);
  }

 private:
  DecisionTreeOptions options_;
  std::shared_ptr<BinningCache> bin_cache_;
  std::shared_ptr<const BinnedMatrix> preset_binned_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_DECISION_TREE_H_
