#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "core/problem.h"
#include "data/datasets.h"
#include "ml/logistic_regression.h"
#include "tests/testing_data.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::ExpectSameTables;
using testing_data::MakeBlobs;
using testing_data::MakeXor;
using testing_data::TrainAccuracy;

TreeTable FitTable(const Blobs& blobs, const DecisionTreeOptions& options) {
  DecisionTreeTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* tree = dynamic_cast<const DecisionTreeModel*>(model.get());
  EXPECT_NE(tree, nullptr);
  return tree->table();
}

TEST(DecisionTreeTest, LearnsXor) {
  const Blobs xor_data = MakeXor(600, 1);
  DecisionTreeTrainer trainer;
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, xor_data), 0.95);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityVote) {
  Blobs blobs = MakeBlobs(100, 2.0, 2);
  // Force 70/30 labels.
  for (size_t i = 0; i < blobs.y.size(); ++i) blobs.y[i] = i < 70 ? 1 : 0;
  DecisionTreeOptions options;
  options.max_depth = 0;
  DecisionTreeTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const std::vector<int> preds = model->Predict(blobs.X);
  for (int p : preds) EXPECT_EQ(p, 1);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  const Blobs xor_data = MakeXor(500, 3);
  DecisionTreeOptions options;
  options.max_depth = 3;
  DecisionTreeTrainer trainer(options);
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  const auto* tree = dynamic_cast<const DecisionTreeModel*>(model.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_LE(tree->Depth(), 3);
}

TEST(DecisionTreeTest, PureNodeStopsSplitting) {
  Blobs blobs = MakeBlobs(50, 2.0, 4);
  for (int& y : blobs.y) y = 1;  // all one class
  DecisionTreeTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* tree = dynamic_cast<const DecisionTreeModel*>(model.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->NumNodes(), 1u);
}

TEST(DecisionTreeTest, WeightsChangeLeafProbabilities) {
  // A single ambiguous region: weighting flips the majority.
  Matrix X(4, 1);
  X(0, 0) = X(1, 0) = X(2, 0) = X(3, 0) = 0.0;  // identical features
  const std::vector<int> y = {1, 1, 0, 0};
  DecisionTreeTrainer trainer;
  const auto balanced = trainer.Fit(X, y, {1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(balanced->PredictProba(X)[0], 0.5, 1e-12);
  const auto skewed = trainer.Fit(X, y, {3.0, 3.0, 1.0, 1.0});
  EXPECT_NEAR(skewed->PredictProba(X)[0], 0.75, 1e-12);
  EXPECT_EQ(skewed->Predict(X)[0], 1);
}

TEST(DecisionTreeTest, ZeroWeightExamplesIgnored) {
  Blobs blobs = MakeBlobs(300, 2.5, 5);
  Blobs corrupted = blobs;
  std::vector<double> weights(blobs.y.size(), 1.0);
  for (size_t i = 0; i < blobs.y.size(); i += 3) {
    corrupted.y[i] = 1 - corrupted.y[i];
    weights[i] = 0.0;
  }
  DecisionTreeTrainer trainer;
  const auto model = trainer.Fit(corrupted.X, corrupted.y, weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.93);
}

TEST(DecisionTreeTest, DeterministicWithFullFeatures) {
  const Blobs xor_data = MakeXor(400, 6);
  DecisionTreeTrainer a;
  DecisionTreeTrainer b;
  const auto ma = a.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  const auto mb = b.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_EQ(ma->Predict(xor_data.X), mb->Predict(xor_data.X));
}

TEST(DecisionTreeHistogramTest, LearnsXor) {
  const Blobs xor_data = MakeXor(600, 1);
  DecisionTreeOptions options;
  options.split_method = SplitMethod::kHistogram;
  DecisionTreeTrainer trainer(options);
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, xor_data), 0.95);
}

TEST(DecisionTreeHistogramTest, ThreadCountDoesNotChangeTree) {
  // Determinism contract (DESIGN.md §11): same seed => bit-identical node
  // tables at 1 and N threads, because every per-feature fill is a serial
  // scan.
  const Blobs blobs = MakeBlobs(4000, 0.8, 9);
  DecisionTreeOptions serial;
  serial.split_method = SplitMethod::kHistogram;
  serial.max_bins = 64;
  serial.num_threads = 1;
  DecisionTreeOptions parallel = serial;
  parallel.num_threads = 4;
  ExpectSameTables(FitTable(blobs, serial), FitTable(blobs, parallel));
}

TEST(DecisionTreeHistogramTest, MatchesExactAccuracyOnSyntheticAdult) {
  SyntheticOptions data_options;
  data_options.num_rows = 3000;
  data_options.seed = 19;
  const Dataset data = MakeAdultDataset(data_options);
  LogisticRegressionTrainer encoder_helper;  // encoder via a FairnessProblem
  auto problem = FairnessProblem::Create(
      data, data,
      {MakeSpec(GroupByAttributeValues("sex", {"Male", "Female"}), "sp", 0.05)},
      &encoder_helper);
  ASSERT_TRUE(problem.ok()) << problem.status();
  const Matrix& X = (*problem)->train_features();
  const std::vector<int>& y = (*problem)->train().labels();

  DecisionTreeOptions exact;
  DecisionTreeOptions hist = exact;
  hist.split_method = SplitMethod::kHistogram;
  DecisionTreeTrainer exact_trainer(exact);
  DecisionTreeTrainer hist_trainer(hist);
  const double exact_acc = Accuracy(y, exact_trainer.Fit(X, y)->Predict(X));
  const double hist_acc = Accuracy(y, hist_trainer.Fit(X, y)->Predict(X));
  EXPECT_NEAR(hist_acc, exact_acc, 0.02);
}

TEST(DecisionTreeHistogramTest, CoarseBinsStillLearn) {
  const Blobs blobs = MakeBlobs(800, 2.0, 12);
  DecisionTreeOptions options;
  options.split_method = SplitMethod::kHistogram;
  options.max_bins = 8;
  DecisionTreeTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.95);
}

TEST(DecisionTreeTest, MinWeightLeafPreventsTinySplits) {
  const Blobs blobs = MakeBlobs(100, 0.3, 7);
  DecisionTreeOptions options;
  options.min_weight_leaf = 40.0;
  options.min_weight_split = 80.0;
  DecisionTreeTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* tree = dynamic_cast<const DecisionTreeModel*>(model.get());
  ASSERT_NE(tree, nullptr);
  // At most one split is possible under these weight floors.
  EXPECT_LE(tree->NumNodes(), 3u);
}

}  // namespace
}  // namespace omnifair
