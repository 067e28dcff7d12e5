#include "ml/gbdt.h"

#include <cmath>
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

TreeTable FitTable(const Blobs& blobs, const GbdtOptions& options) {
  GbdtTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* gbdt = dynamic_cast<const GbdtModel*>(model.get());
  EXPECT_NE(gbdt, nullptr);
  return gbdt->table();
}

TEST(GbdtTest, LearnsXor) {
  const Blobs xor_data = MakeXor(600, 1);
  GbdtTrainer trainer;
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, xor_data), 0.95);
}

TEST(GbdtTest, LearnsSeparableData) {
  const Blobs blobs = MakeBlobs(500, 2.0, 2);
  GbdtTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.97);
}

TEST(GbdtTest, MoreRoundsFitBetter) {
  const Blobs xor_data = MakeXor(500, 3);
  GbdtOptions few_options;
  few_options.num_rounds = 2;
  GbdtOptions many_options;
  many_options.num_rounds = 40;
  GbdtTrainer few(few_options);
  GbdtTrainer many(many_options);
  const double acc_few = TrainAccuracy(
      *few.Fit(xor_data.X, xor_data.y, xor_data.unit_weights), xor_data);
  const double acc_many = TrainAccuracy(
      *many.Fit(xor_data.X, xor_data.y, xor_data.unit_weights), xor_data);
  EXPECT_GE(acc_many, acc_few);
}

TEST(GbdtTest, NumTreesMatchesRounds) {
  const Blobs blobs = MakeBlobs(100, 1.0, 4);
  GbdtOptions options;
  options.num_rounds = 12;
  GbdtTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* gbdt = dynamic_cast<const GbdtModel*>(model.get());
  ASSERT_NE(gbdt, nullptr);
  EXPECT_EQ(gbdt->NumTrees(), 12u);
}

TEST(GbdtTest, Deterministic) {
  const Blobs blobs = MakeBlobs(300, 1.0, 5);
  GbdtTrainer a;
  GbdtTrainer b;
  EXPECT_EQ(a.Fit(blobs.X, blobs.y, blobs.unit_weights)->Predict(blobs.X),
            b.Fit(blobs.X, blobs.y, blobs.unit_weights)->Predict(blobs.X));
}

TEST(GbdtTest, RawScoreIsLogOdds) {
  const Blobs blobs = MakeBlobs(200, 2.0, 6);
  GbdtTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* gbdt = dynamic_cast<const GbdtModel*>(model.get());
  ASSERT_NE(gbdt, nullptr);
  const std::vector<double> raw = gbdt->PredictRaw(blobs.X);
  const std::vector<double> proba = gbdt->PredictProba(blobs.X);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(proba[i], 1.0 / (1.0 + std::exp(-raw[i])), 1e-12);
  }
}

TEST(GbdtTest, ZeroWeightExamplesIgnored) {
  Blobs blobs = MakeBlobs(400, 2.5, 7);
  Blobs corrupted = blobs;
  std::vector<double> weights(blobs.y.size(), 1.0);
  for (size_t i = 0; i < blobs.y.size(); i += 2) {
    corrupted.y[i] = 1 - corrupted.y[i];
    weights[i] = 0.0;
  }
  GbdtTrainer trainer;
  const auto model = trainer.Fit(corrupted.X, corrupted.y, weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.93);
}

TEST(GbdtHistogramTest, LearnsXor) {
  const Blobs xor_data = MakeXor(600, 1);
  GbdtOptions options;
  options.split_method = SplitMethod::kHistogram;
  GbdtTrainer trainer(options);
  const auto model = trainer.Fit(xor_data.X, xor_data.y, xor_data.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, xor_data), 0.95);
}

TEST(GbdtHistogramTest, ThreadCountDoesNotChangeEnsemble) {
  // Determinism contract (DESIGN.md §11): same seed => bit-identical node
  // tables at 1 and N threads.
  const Blobs blobs = MakeBlobs(4000, 0.8, 10);
  GbdtOptions serial;
  serial.split_method = SplitMethod::kHistogram;
  serial.max_bins = 64;
  serial.num_rounds = 10;
  serial.num_threads = 1;
  GbdtOptions parallel = serial;
  parallel.num_threads = 4;
  ExpectSameTables(FitTable(blobs, serial), FitTable(blobs, parallel));
}

TEST(GbdtHistogramTest, ParallelPredictMatchesSerial) {
  const Blobs blobs = MakeBlobs(3000, 1.0, 11);
  GbdtOptions options;
  options.num_rounds = 10;
  GbdtTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto* serial = dynamic_cast<const GbdtModel*>(model.get());
  ASSERT_NE(serial, nullptr);
  // Same trees, prediction chunked over 4 workers: must match bit for bit.
  GbdtModel parallel(serial->table(), serial->base_score(),
                     serial->learning_rate(), /*num_threads=*/4);
  EXPECT_EQ(serial->PredictProba(blobs.X), parallel.PredictProba(blobs.X));
  std::vector<double> acc_serial(blobs.X.rows(), 0.0);
  std::vector<double> acc_parallel(blobs.X.rows(), 0.0);
  serial->AccumulateProba(blobs.X, 0, blobs.X.rows(), acc_serial);
  parallel.AccumulateProba(blobs.X, 0, blobs.X.rows(), acc_parallel);
  EXPECT_EQ(acc_serial, acc_parallel);
}

TEST(GbdtHistogramTest, MatchesExactAccuracyOnSyntheticCompas) {
  SyntheticOptions data_options;
  data_options.num_rows = 3000;
  data_options.seed = 23;
  const Dataset data = MakeCompasDataset(data_options);
  LogisticRegressionTrainer encoder_helper;  // encoder via a FairnessProblem
  auto problem = FairnessProblem::Create(
      data, data,
      {MakeSpec(GroupByAttributeValues("race", {"African-American", "Caucasian"}),
                "sp", 0.05)},
      &encoder_helper);
  ASSERT_TRUE(problem.ok()) << problem.status();
  const Matrix& X = (*problem)->train_features();
  const std::vector<int>& y = (*problem)->train().labels();

  GbdtOptions exact;
  GbdtOptions hist = exact;
  hist.split_method = SplitMethod::kHistogram;
  GbdtTrainer exact_trainer(exact);
  GbdtTrainer hist_trainer(hist);
  const double exact_acc = Accuracy(y, exact_trainer.Fit(X, y)->Predict(X));
  const double hist_acc = Accuracy(y, hist_trainer.Fit(X, y)->Predict(X));
  EXPECT_NEAR(hist_acc, exact_acc, 0.02);
}

TEST(GbdtTest, UpweightingShiftsPositiveRate) {
  const Blobs blobs = MakeBlobs(400, 0.5, 8);
  GbdtTrainer trainer;
  const auto base = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  std::vector<double> boosted(blobs.y.size());
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    boosted[i] = blobs.y[i] == 1 ? 6.0 : 1.0;
  }
  const auto heavy = trainer.Fit(blobs.X, blobs.y, boosted);
  double base_rate = 0.0;
  double heavy_rate = 0.0;
  for (int p : base->Predict(blobs.X)) base_rate += p;
  for (int p : heavy->Predict(blobs.X)) heavy_rate += p;
  EXPECT_GT(heavy_rate, base_rate);
}

}  // namespace
}  // namespace omnifair
