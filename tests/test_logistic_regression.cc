#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/spec.h"
#include "core/weights.h"
#include "data/datasets.h"
#include "data/encoder.h"
#include "data/split.h"
#include "ml/metrics.h"
#include "tests/testing_data.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/random.h"

namespace omnifair {
namespace {

using testing_data::Blobs;
using testing_data::MakeBlobs;
using testing_data::TrainAccuracy;

/// [coefficients..., intercept] of a fitted model.
std::vector<double> ThetaOf(const Classifier& model) {
  const auto& lr = static_cast<const LogisticRegressionModel&>(model);
  std::vector<double> theta = lr.coefficients();
  theta.push_back(lr.intercept());
  return theta;
}

/// Gradient of the trainer's objective (weighted mean NLL + L2 on the
/// coefficients) at theta, as a plain double loop over the rows: an oracle
/// independent of the matvec and sigmoid kernels the trainer uses.
std::vector<double> PlainGradient(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights,
                                  const std::vector<double>& theta, double l2) {
  const size_t d = X.cols();
  std::vector<double> grad(d + 1, 0.0);
  for (size_t i = 0; i < X.rows(); ++i) {
    double z = theta[d];
    for (size_t c = 0; c < d; ++c) z += X(i, c) * theta[c];
    const double residual = weights[i] * (1.0 / (1.0 + std::exp(-z)) - y[i]);
    for (size_t c = 0; c < d; ++c) grad[c] += residual * X(i, c);
    grad[d] += residual;
  }
  for (size_t c = 0; c <= d; ++c) {
    grad[c] /= static_cast<double>(X.rows());
    if (c < d) grad[c] += l2 * theta[c];
  }
  return grad;
}

double MaxAbs(const std::vector<double>& v) {
  double max_abs = 0.0;
  for (double x : v) max_abs = std::max(max_abs, std::fabs(x));
  return max_abs;
}

/// The training split of one benchmark-shaped synthetic adult set (20,000
/// rows, 60/20/20), encoded, with Eq. 12 SP-over-sex weights at a lambda
/// large enough that one group/label cell clips to zero weight.
struct AdultFit {
  Matrix X;
  std::vector<int> y;
  std::vector<double> weights;

  AdultFit() {
    SyntheticOptions options;
    options.num_rows = 20000;
    options.seed = 1;
    const TrainValTestSplit split = SplitDefault(MakeAdultDataset(options), 1);
    FeatureEncoder encoder;
    X = encoder.FitTransform(split.train);
    y = split.train.labels();
    auto constraints = InduceConstraints(
        MakeSpec(GroupByAttribute("sex"), "sp", 0.03), split.train);
    OF_CHECK(constraints.ok()) << constraints.status();
    weights = WeightComputer(*constraints, split.train).Compute(0.5, nullptr);
  }
};

TEST(LogisticRegressionTest, LearnsSeparableData) {
  const Blobs blobs = MakeBlobs(500, 2.0, 1);
  LogisticRegressionTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.97);
}

TEST(LogisticRegressionTest, ProbabilitiesInRange) {
  const Blobs blobs = MakeBlobs(200, 1.0, 2);
  LogisticRegressionTrainer trainer;
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  for (double p : model->PredictProba(blobs.X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogisticRegressionTest, Deterministic) {
  const Blobs blobs = MakeBlobs(300, 1.5, 3);
  LogisticRegressionTrainer a;
  LogisticRegressionTrainer b;
  const auto ma = a.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto mb = b.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_EQ(ma->Predict(blobs.X), mb->Predict(blobs.X));
}

TEST(LogisticRegressionTest, ZeroWeightExamplesIgnored) {
  // Mislabel half the data but give those examples zero weight; the model
  // must behave as if they were absent.
  Blobs blobs = MakeBlobs(400, 2.5, 4);
  std::vector<double> weights(blobs.y.size(), 1.0);
  Blobs corrupted = blobs;
  for (size_t i = 0; i < blobs.y.size(); i += 2) {
    corrupted.y[i] = 1 - corrupted.y[i];
    weights[i] = 0.0;
  }
  LogisticRegressionTrainer trainer;
  const auto model = trainer.Fit(corrupted.X, corrupted.y, weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.95);
}

TEST(LogisticRegressionTest, UpweightingShiftsDecisions) {
  // Upweighting positive examples should increase the positive rate.
  const Blobs blobs = MakeBlobs(500, 0.7, 5);
  LogisticRegressionTrainer trainer;
  const auto base = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  std::vector<double> boosted(blobs.y.size());
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    boosted[i] = blobs.y[i] == 1 ? 5.0 : 1.0;
  }
  const auto heavy = trainer.Fit(blobs.X, blobs.y, boosted);
  const auto rate = [&](const Classifier& m) {
    const std::vector<int> preds = m.Predict(blobs.X);
    double positives = 0.0;
    for (int p : preds) positives += p;
    return positives / static_cast<double>(preds.size());
  };
  EXPECT_GT(rate(*heavy), rate(*base));
}

TEST(LogisticRegressionTest, WarmStartReducesIterations) {
  const Blobs blobs = MakeBlobs(800, 1.0, 6);
  LogisticRegressionTrainer cold;
  (void)cold.Fit(blobs.X, blobs.y, blobs.unit_weights);
  (void)cold.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const long long cold_iterations = cold.total_iterations();

  LogisticRegressionTrainer warm;
  warm.SetWarmStart(true);
  (void)warm.Fit(blobs.X, blobs.y, blobs.unit_weights);
  (void)warm.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_LT(warm.total_iterations(), cold_iterations);
}

TEST(LogisticRegressionTest, ConvergesOnAdultShapeWithinIterationBound) {
  const AdultFit fit;
  ASSERT_EQ(fit.X.rows(), 12000u);
  ASSERT_EQ(fit.X.cols(), 39u);
  ASSERT_GT(std::count(fit.weights.begin(), fit.weights.end(), 0.0), 0);
  ASSERT_GT(*std::max_element(fit.weights.begin(), fit.weights.end()), 1.0);

  const LogisticRegressionOptions options;
  LogisticRegressionTrainer trainer(options);
  trainer.SetWarmStart(true);
  const auto model = trainer.Fit(fit.X, fit.y, fit.weights);
  // Stopped on the gradient test, well inside max_iterations.
  const long long cold_iterations = trainer.total_iterations();
  EXPECT_LE(cold_iterations, 100);

  // First-order optimality of the returned theta, by an independent oracle.
  const std::vector<double> theta = ThetaOf(*model);
  EXPECT_LT(MaxAbs(PlainGradient(fit.X, fit.y, fit.weights, theta, options.l2)),
            options.tolerance * 1.01);

  // A warm start from the converged theta has nothing left to do.
  (void)trainer.Fit(fit.X, fit.y, fit.weights);
  EXPECT_LE(trainer.total_iterations() - cold_iterations, 2);
}

TEST(LogisticRegressionTest, RecoversFromDivergence) {
  FaultInjector::Reset();
  ResetRecoveryEvents();
  const auto blobs = testing_data::MakeBlobs(400, 2.0, 17);
  FaultInjector::Arm(fault_sites::kLrDescend, /*fire_at=*/5);
  LogisticRegressionTrainer trainer;
  auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  FaultInjector::Reset();
  ASSERT_NE(model, nullptr);
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kDivergenceBackoff), 1);
  const auto* lr = dynamic_cast<const LogisticRegressionModel*>(model.get());
  ASSERT_NE(lr, nullptr);
  for (double c : lr->coefficients()) EXPECT_TRUE(std::isfinite(c)) << c;
  EXPECT_TRUE(std::isfinite(lr->intercept()));
  // Recovery must not cost model quality on separable data.
  EXPECT_GT(testing_data::TrainAccuracy(*model, blobs), 0.9);

  // The fit still converges, by the independent oracle.
  const LogisticRegressionOptions defaults;
  EXPECT_LT(MaxAbs(PlainGradient(blobs.X, blobs.y, blobs.unit_weights,
                                 ThetaOf(*model), defaults.l2)),
            defaults.tolerance * 1.01);

  // The step after the mid-run fault starts afresh: the history is cleared
  // and the first step halved, so theta moves along -g by 0.5^k, k >= 1,
  // from where the fault found it (after 4 iterations).
  LogisticRegressionOptions options;
  options.max_iterations = 4;
  LogisticRegressionTrainer before(options);
  const std::vector<double> theta_before =
      ThetaOf(*before.Fit(blobs.X, blobs.y, blobs.unit_weights));
  ASSERT_EQ(before.total_iterations(), 4);
  options.max_iterations = 6;  // 4 steps, the fault, one step
  LogisticRegressionTrainer faulted(options);
  FaultInjector::Arm(fault_sites::kLrDescend, /*fire_at=*/5);
  const std::vector<double> theta_after =
      ThetaOf(*faulted.Fit(blobs.X, blobs.y, blobs.unit_weights));
  FaultInjector::Reset();
  const std::vector<double> grad = PlainGradient(
      blobs.X, blobs.y, blobs.unit_weights, theta_before, options.l2);
  ASSERT_GT(MaxAbs(grad), options.tolerance);  // the fault came mid-run
  double along = 0.0;
  double grad_sq = 0.0;
  for (size_t c = 0; c < grad.size(); ++c) {
    along += (theta_before[c] - theta_after[c]) * grad[c];
    grad_sq += grad[c] * grad[c];
  }
  const double step = along / grad_sq;
  EXPECT_LE(step, 0.5 * (1.0 + 1e-9));
  EXPECT_NEAR(std::log2(step), std::round(std::log2(step)), 1e-6) << step;
  for (size_t c = 0; c < grad.size(); ++c) {
    EXPECT_NEAR(theta_after[c], theta_before[c] - step * grad[c], 1e-9) << c;
  }
}

TEST(LogisticRegressionTest, ResetWarmStartForgets) {
  const Blobs blobs = MakeBlobs(200, 1.0, 7);
  LogisticRegressionTrainer trainer;
  trainer.SetWarmStart(true);
  const auto first = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  trainer.ResetWarmStart();
  const auto second = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  // After reset the fit starts from zero again -> same result as first.
  EXPECT_EQ(first->Predict(blobs.X), second->Predict(blobs.X));
}

TEST(LogisticRegressionTest, SupportsWarmStartFlag) {
  LogisticRegressionTrainer trainer;
  EXPECT_TRUE(trainer.SupportsWarmStart());
  EXPECT_EQ(trainer.Name(), "logistic_regression");
}

TEST(LogisticRegressionTest, WeightingEquivalentToReplication) {
  // The paper's §1 argument for model-agnosticism: integer example weights
  // can be simulated by replicating examples. With L2 = 0 the weighted and
  // replicated objectives have identical optima.
  const Blobs blobs = MakeBlobs(150, 1.0, 8);
  std::vector<double> weights(blobs.y.size());
  Matrix replicated_X;
  std::vector<int> replicated_y;
  Rng rng(17);
  for (size_t i = 0; i < blobs.y.size(); ++i) {
    const int copies = 1 + static_cast<int>(rng.NextBounded(3));  // 1..3
    weights[i] = copies;
    for (int c = 0; c < copies; ++c) {
      replicated_X.AppendRow(blobs.X.RowVector(i));
      replicated_y.push_back(blobs.y[i]);
    }
  }
  LogisticRegressionOptions options;
  options.l2 = 0.0;
  options.max_iterations = 600;
  LogisticRegressionTrainer weighted_trainer(options);
  LogisticRegressionTrainer replicated_trainer(options);
  const auto weighted = weighted_trainer.Fit(blobs.X, blobs.y, weights);
  const auto replicated = replicated_trainer.Fit(
      replicated_X, replicated_y, std::vector<double>(replicated_y.size(), 1.0));
  // Same decisions on the original data.
  EXPECT_EQ(weighted->Predict(blobs.X), replicated->Predict(blobs.X));
}

TEST(LogisticRegressionSgdTest, BatchSizeZeroIsBitIdenticalToFullBatch) {
  // batch_size = 0 must keep the exact full-batch path: not just the same
  // predictions, the same bits.
  const Blobs blobs = MakeBlobs(300, 1.5, 9);
  LogisticRegressionOptions zero_batch;
  zero_batch.batch_size = 0;
  LogisticRegressionTrainer a;                  // seed defaults
  LogisticRegressionTrainer b(zero_batch);
  const auto ma = a.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto mb = b.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto& ca = static_cast<const LogisticRegressionModel&>(*ma);
  const auto& cb = static_cast<const LogisticRegressionModel&>(*mb);
  ASSERT_EQ(ca.coefficients().size(), cb.coefficients().size());
  for (size_t i = 0; i < ca.coefficients().size(); ++i) {
    EXPECT_EQ(ca.coefficients()[i], cb.coefficients()[i]);
  }
  EXPECT_EQ(ca.intercept(), cb.intercept());
}

TEST(LogisticRegressionSgdTest, MiniBatchLearnsSeparableData) {
  const Blobs blobs = MakeBlobs(500, 2.0, 10);
  LogisticRegressionOptions options;
  options.batch_size = 32;
  options.epochs = 20;
  options.lr_schedule = LrSchedule::kInvSqrt;
  LogisticRegressionTrainer trainer(options);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.95);
}

TEST(LogisticRegressionSgdTest, MiniBatchDeterministic) {
  const Blobs blobs = MakeBlobs(300, 1.0, 11);
  LogisticRegressionOptions options;
  options.batch_size = 64;
  options.epochs = 5;
  LogisticRegressionTrainer a(options);
  LogisticRegressionTrainer b(options);
  const auto ma = a.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto mb = b.Fit(blobs.X, blobs.y, blobs.unit_weights);
  const auto& ca = static_cast<const LogisticRegressionModel&>(*ma);
  const auto& cb = static_cast<const LogisticRegressionModel&>(*mb);
  ASSERT_EQ(ca.coefficients().size(), cb.coefficients().size());
  for (size_t i = 0; i < ca.coefficients().size(); ++i) {
    EXPECT_EQ(ca.coefficients()[i], cb.coefficients()[i]);
  }
  EXPECT_EQ(ca.intercept(), cb.intercept());
}

TEST(LogisticRegressionSgdTest, MiniBatchZeroWeightExamplesIgnored) {
  Blobs blobs = MakeBlobs(400, 2.5, 12);
  std::vector<double> weights(blobs.y.size(), 1.0);
  Blobs corrupted = blobs;
  for (size_t i = 0; i < blobs.y.size(); i += 2) {
    corrupted.y[i] = 1 - corrupted.y[i];
    weights[i] = 0.0;
  }
  LogisticRegressionOptions options;
  options.batch_size = 50;
  options.epochs = 20;
  LogisticRegressionTrainer trainer(options);
  const auto model = trainer.Fit(corrupted.X, corrupted.y, weights);
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.93);
}

TEST(LogisticRegressionSgdTest, MiniBatchBacksOffOnInjectedDivergence) {
  FaultInjector::Reset();
  const Blobs blobs = MakeBlobs(300, 2.0, 13);
  LogisticRegressionOptions options;
  options.batch_size = 32;
  options.epochs = 12;
  LogisticRegressionTrainer trainer(options);
  // One injected divergence: the epoch rolls back, halves the step, and the
  // fit still converges to a good model.
  FaultInjector::Arm(fault_sites::kLrDescend);
  const auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  FaultInjector::Reset();
  EXPECT_GE(TrainAccuracy(*model, blobs), 0.93);

  // Persistent divergence: retries run out; the returned checkpoint model
  // must still be finite.
  FaultInjector::Arm(fault_sites::kLrDescend, 1, /*repeat=*/true);
  LogisticRegressionTrainer doomed(options);
  const auto checkpoint = doomed.Fit(blobs.X, blobs.y, blobs.unit_weights);
  FaultInjector::Reset();
  const auto& cm = static_cast<const LogisticRegressionModel&>(*checkpoint);
  for (double c : cm.coefficients()) EXPECT_TRUE(std::isfinite(c));
  EXPECT_TRUE(std::isfinite(cm.intercept()));
}

TEST(LogisticRegressionModelTest, CoefficientsExposed) {
  LogisticRegressionModel model({1.0, -1.0}, 0.5);
  EXPECT_EQ(model.coefficients().size(), 2u);
  EXPECT_DOUBLE_EQ(model.intercept(), 0.5);
  Matrix X = {{0.0, 0.0}};
  // sigmoid(0.5) > 0.5 -> predicts 1.
  EXPECT_EQ(model.Predict(X)[0], 1);
}

}  // namespace
}  // namespace omnifair
