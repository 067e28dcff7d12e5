// Robustness-layer tests (DESIGN.md §8): exception firewall, divergence
// recovery, train budgets, degenerate-input guards, and CSV hardening. Uses
// the deterministic FaultInjector to force each failure exactly once.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/omnifair.h"
#include "data/csv.h"
#include "data/split.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "tests/testing_data.h"
#include "tests/testing_fairness.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/train_budget.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

/// A trainer that succeeds `successful_fits` times, then throws.
class ThrowingTrainer : public Trainer {
 public:
  explicit ThrowingTrainer(int successful_fits = 0)
      : successful_fits_(successful_fits) {}

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override {
    if (fits_ >= successful_fits_) throw std::runtime_error("trainer blew up");
    ++fits_;
    return inner_.Fit(X, y, weights);
  }
  using Trainer::Fit;
  std::string Name() const override { return "throwing"; }

 private:
  int successful_fits_;
  int fits_ = 0;
  LogisticRegressionTrainer inner_;
};

/// A trainer that silently returns null instead of a model.
class NullTrainer : public Trainer {
 public:
  std::unique_ptr<Classifier> Fit(const Matrix&, const std::vector<int>&,
                                  const std::vector<double>&) override {
    return nullptr;
  }
  using Trainer::Fit;
  std::string Name() const override { return "null"; }
};

/// Shared end-to-end setup: biased two-group dataset + SP spec.
struct TrainSetup {
  Dataset data;
  TrainValTestSplit split;
  FairnessSpec spec;

  explicit TrainSetup(double rate_a = 0.7, double rate_b = 0.3) {
    data = MakeBiasedDataset(1200, rate_a, rate_b, 7);
    split = SplitDefault(data, 11);
    spec = MakeSpec(GroupByAttribute("grp"), "sp", 0.05);
  }
};

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Reset();
    ResetRecoveryEvents();
  }
  void TearDown() override { FaultInjector::Reset(); }
};

// ---------------------------------------------------------------------------
// Exception firewall
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, ThrowingTrainerFailsCleanly) {
  TrainSetup fx;
  ThrowingTrainer trainer(/*successful_fits=*/0);
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_FALSE(fair.ok());
  EXPECT_EQ(fair.status().code(), StatusCode::kInternal);
  EXPECT_NE(fair.status().message().find("trainer threw"), std::string::npos)
      << fair.status();
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kTrainerException), 1);
}

TEST_F(RobustnessTest, TrainerThrowingMidSearchReturnsBestEffort) {
  TrainSetup fx;
  ThrowingTrainer trainer(/*successful_fits=*/3);
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  ASSERT_NE(fair->model, nullptr);
  EXPECT_EQ(fair->outcome.code(), StatusCode::kInternal) << fair->outcome;
  const std::vector<int> preds = fair->Predict(fx.split.test);
  EXPECT_EQ(preds.size(), fx.split.test.NumRows());
}

TEST_F(RobustnessTest, NullReturningTrainerFailsCleanly) {
  TrainSetup fx;
  NullTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_FALSE(fair.ok());
  EXPECT_EQ(fair.status().code(), StatusCode::kInternal);
  EXPECT_NE(fair.status().message().find("null model"), std::string::npos)
      << fair.status();
}

TEST_F(RobustnessTest, ThrowingGroupingFailsSpecInduction) {
  TrainSetup fx;
  fx.spec.grouping = [](const Dataset&) -> GroupMap {
    throw std::runtime_error("grouping blew up");
  };
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_FALSE(fair.ok());
  EXPECT_EQ(fair.status().code(), StatusCode::kInternal);
  EXPECT_NE(fair.status().message().find("grouping callable threw"),
            std::string::npos)
      << fair.status();
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kGroupingException), 1);
}

TEST_F(RobustnessTest, GroupingThrowingOnSmallSplitSkipsConstraint) {
  // Throws on the validation split (240 rows) but works on the training
  // split (720 rows): constraint induction succeeds, the val evaluator
  // firewalls the throw and skips the constraint instead of crashing.
  TrainSetup fx;
  const GroupingFunction by_grp = GroupByAttribute("grp");
  fx.spec.grouping = [by_grp](const Dataset& dataset) -> GroupMap {
    if (dataset.NumRows() < 600) throw std::runtime_error("val-split only");
    return by_grp(dataset);
  };
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  ASSERT_NE(fair->model, nullptr);
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kGroupingException), 1);
}

// ---------------------------------------------------------------------------
// Train budget
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, DeadlineExpiryReturnsBestEffortModel) {
  TrainSetup fx;
  LogisticRegressionTrainer trainer;
  OmniFairOptions options;
  options.budget.deadline_seconds = 5.0;
  FaultInjector::AdvanceClock(10.0);  // virtual: already past the deadline
  OmniFair omnifair(options);
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  ASSERT_NE(fair->model, nullptr);
  EXPECT_EQ(fair->outcome.code(), StatusCode::kDeadlineExceeded) << fair->outcome;
  // Only the initial fit runs before the first budget poll.
  EXPECT_LE(fair->models_trained, 2);
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kBudgetExpired), 1);
}

TEST_F(RobustnessTest, ModelCapReturnsBestEffortSingleConstraint) {
  TrainSetup fx;
  LogisticRegressionTrainer trainer;
  OmniFairOptions options;
  options.budget.max_models = 1;
  OmniFair omnifair(options);
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  ASSERT_NE(fair->model, nullptr);
  EXPECT_EQ(fair->outcome.code(), StatusCode::kDeadlineExceeded) << fair->outcome;
  // The base model answers the fallback, so the cap holds exactly.
  EXPECT_EQ(fair->models_trained, 1);
}

TEST_F(RobustnessTest, ModelCapReturnsBestEffortHillClimb) {
  TrainSetup fx;
  FairnessSpec mr_spec = MakeSpec(GroupByAttribute("grp"), "mr", 0.05);
  LogisticRegressionTrainer trainer;
  OmniFairOptions options;
  options.budget.max_models = 2;
  OmniFair omnifair(options);
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer,
                             {fx.spec, mr_spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  ASSERT_NE(fair->model, nullptr);
  if (!fair->satisfied) {
    EXPECT_EQ(fair->outcome.code(), StatusCode::kDeadlineExceeded) << fair->outcome;
  }
  // Budget semantics: at most one mandatory fallback fit past the cap.
  EXPECT_LE(fair->models_trained, 3);
}

TEST_F(RobustnessTest, UnlimitedBudgetOutcomeStaysOk) {
  TrainSetup fx;
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  EXPECT_TRUE(fair->outcome.ok()) << fair->outcome;
  EXPECT_EQ(RecoveryEventCount(RecoveryEvent::kBudgetExpired), 0);
}

TEST_F(RobustnessTest, TrainBudgetUnitSemantics) {
  TrainBudget unlimited;
  EXPECT_FALSE(unlimited.limited());
  EXPECT_FALSE(unlimited.Expired());
  EXPECT_TRUE(unlimited.ToStatus().ok());

  TrainBudgetOptions capped;
  capped.max_models = 2;
  TrainBudget budget(capped);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.Expired());
  budget.NoteModelTrained();
  budget.NoteModelTrained();
  EXPECT_TRUE(budget.Expired());
  const Status status = budget.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.ToString().find("DEADLINE_EXCEEDED"), std::string::npos);

  TrainBudgetOptions timed;
  timed.deadline_seconds = 100.0;
  TrainBudget deadline(timed);
  EXPECT_FALSE(deadline.Expired());
  FaultInjector::AdvanceClock(200.0);
  EXPECT_TRUE(deadline.Expired());
}

// ---------------------------------------------------------------------------
// Non-finite metric and weight guards
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, NanMetricNeverReachesTheTuner) {
  TrainSetup fx;
  FaultInjector::Arm(fault_sites::kFairnessPart, /*fire_at=*/1);
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  for (double part : fair->val_fairness_parts) {
    EXPECT_TRUE(std::isfinite(part)) << part;
  }
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kNonFiniteMetric), 1);
}

TEST_F(RobustnessTest, EmptyGroupMetricContributesZero) {
  const Dataset data = MakeBiasedDataset(50, 0.5, 0.5, 3);
  const std::vector<int> preds(50, 1);
  const std::vector<size_t> empty_group;
  for (const char* name : {"sp", "mr"}) {
    const auto metric = MakeMetricByName(name);
    EXPECT_EQ(metric->Evaluate(data, empty_group, preds), 0.0) << name;
  }
  const AverageErrorCostMetric aec(2.0, 1.0);
  EXPECT_EQ(aec.Evaluate(data, empty_group, preds), 0.0);
}

TEST_F(RobustnessTest, SingleClassLabelsWithFprSpecTrainCleanly) {
  // All labels positive: FPR has an empty denominator in every group; the
  // convention makes both parts 0, so the constraint holds trivially.
  TrainSetup fx(/*rate_a=*/1.0, /*rate_b=*/1.0);
  fx.spec = MakeSpec(GroupByAttribute("grp"), "fpr", 0.05);
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  EXPECT_TRUE(fair->satisfied);
  EXPECT_EQ(fair->val_fairness_parts[0], 0.0);
}

TEST_F(RobustnessTest, NonFiniteWeightsAreClampedBeforeTheTrainer) {
  TrainSetup fx;
  LogisticRegressionTrainer trainer;
  auto problem = FairnessProblem::Create(fx.split.train, fx.split.val, {fx.spec},
                                         &trainer);
  ASSERT_TRUE(problem.ok()) << problem.status();
  std::vector<double> weights((*problem)->train().NumRows(), 1.0);
  weights[0] = std::nan("");
  weights[1] = std::numeric_limits<double>::infinity();
  auto model = (*problem)->FitWithWeights(weights);
  ASSERT_NE(model, nullptr) << (*problem)->last_fit_status();
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kNonFiniteWeight), 1);
  for (double p : model->PredictProba((*problem)->train_features())) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

// ---------------------------------------------------------------------------
// Trainer divergence recovery
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, LogisticRegressionGivesUpAfterRetryCap) {
  const auto blobs = testing_data::MakeBlobs(200, 2.0, 17);
  FaultInjector::Arm(fault_sites::kLrDescend, /*fire_at=*/1, /*repeat=*/true);
  LogisticRegressionTrainer trainer;
  auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  ASSERT_NE(model, nullptr);  // checkpoint model, never a crash
  EXPECT_EQ(RecoveryEventCount(RecoveryEvent::kDivergenceBackoff), 3);
  const auto* lr = dynamic_cast<const LogisticRegressionModel*>(model.get());
  ASSERT_NE(lr, nullptr);
  for (double c : lr->coefficients()) EXPECT_TRUE(std::isfinite(c)) << c;
}

TEST_F(RobustnessTest, MlpRecoversFromDivergence) {
  const auto blobs = testing_data::MakeBlobs(300, 2.0, 19);
  FaultInjector::Arm(fault_sites::kMlpEpoch, /*fire_at=*/3);
  MlpOptions options;
  options.max_epochs = 40;
  MlpTrainer trainer(options);
  auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  ASSERT_NE(model, nullptr);
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kDivergenceBackoff), 1);
  for (double p : model->PredictProba(blobs.X)) {
    ASSERT_TRUE(std::isfinite(p)) << p;
  }
}

TEST_F(RobustnessTest, GbdtDropsDivergedRoundAndContinues) {
  const auto blobs = testing_data::MakeBlobs(300, 2.0, 23);
  FaultInjector::Arm(fault_sites::kGbdtRound, /*fire_at=*/2);
  GbdtOptions options;
  options.num_rounds = 10;
  GbdtTrainer trainer(options);
  auto model = trainer.Fit(blobs.X, blobs.y, blobs.unit_weights);
  ASSERT_NE(model, nullptr);
  EXPECT_GE(RecoveryEventCount(RecoveryEvent::kDivergenceBackoff), 1);
  const auto* gbdt = dynamic_cast<const GbdtModel*>(model.get());
  ASSERT_NE(gbdt, nullptr);
  EXPECT_EQ(gbdt->NumTrees(), 9u);  // the diverged round's tree was dropped
  for (double p : model->PredictProba(blobs.X)) {
    ASSERT_TRUE(std::isfinite(p)) << p;
  }
}

TEST_F(RobustnessTest, TrainSurvivesInjectedTrainerDivergence) {
  TrainSetup fx;
  FaultInjector::Arm(fault_sites::kLrDescend, /*fire_at=*/10, /*repeat=*/true);
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(fx.split.train, fx.split.val, &trainer, {fx.spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  ASSERT_NE(fair->model, nullptr);
  for (double part : fair->val_fairness_parts) {
    EXPECT_TRUE(std::isfinite(part)) << part;
  }
}

// ---------------------------------------------------------------------------
// Degenerate training inputs
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, AllZeroWeightsProduceFiniteModels) {
  const auto blobs = testing_data::MakeBlobs(120, 2.0, 29);
  const std::vector<double> zeros(blobs.y.size(), 0.0);
  LogisticRegressionTrainer lr;
  MlpOptions mlp_options;
  mlp_options.max_epochs = 10;
  MlpTrainer nn(mlp_options);
  GbdtOptions gbdt_options;
  gbdt_options.num_rounds = 5;
  GbdtTrainer xgb(gbdt_options);
  for (Trainer* trainer : {static_cast<Trainer*>(&lr), static_cast<Trainer*>(&nn),
                           static_cast<Trainer*>(&xgb)}) {
    auto model = trainer->Fit(blobs.X, blobs.y, zeros);
    ASSERT_NE(model, nullptr) << trainer->Name();
    for (double p : model->PredictProba(blobs.X)) {
      ASSERT_TRUE(std::isfinite(p)) << trainer->Name();
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
    }
  }
}

TEST_F(RobustnessTest, ConstantFeaturesTrainCleanly) {
  Dataset data("constant_features");
  Column grp = Column::Categorical("grp", {"a", "b"});
  Column constant = Column::Numeric("flat");
  std::vector<int> labels;
  for (size_t i = 0; i < 400; ++i) {
    grp.AppendCode(static_cast<int>(i % 2));
    constant.AppendNumeric(3.5);
    labels.push_back(i % 3 == 0 ? 1 : 0);
  }
  data.AddColumn(std::move(grp));
  data.AddColumn(std::move(constant));
  data.SetLabels(std::move(labels));

  const TrainValTestSplit split = SplitDefault(data, 5);
  const FairnessSpec spec = MakeSpec(GroupByAttribute("grp"), "sp", 0.05);
  LogisticRegressionTrainer trainer;
  OmniFair omnifair;
  auto fair = omnifair.Train(split.train, split.val, &trainer, {spec});
  ASSERT_TRUE(fair.ok()) << fair.status();
  for (double p : fair->PredictProba(split.test)) {
    ASSERT_TRUE(std::isfinite(p)) << p;
  }
}

// ---------------------------------------------------------------------------
// FaultInjector itself
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, FaultInjectorFiresOnTheNthCall) {
  FaultInjector::Arm("test.site", /*fire_at=*/3);
  EXPECT_FALSE(FaultInjector::ShouldFail("test.site"));
  EXPECT_FALSE(FaultInjector::ShouldFail("test.site"));
  EXPECT_TRUE(FaultInjector::ShouldFail("test.site"));
  EXPECT_FALSE(FaultInjector::ShouldFail("test.site"));  // one-shot
  EXPECT_EQ(FaultInjector::CallCount("test.site"), 4);

  FaultInjector::Arm("test.repeat", /*fire_at=*/2, /*repeat=*/true);
  EXPECT_FALSE(FaultInjector::ShouldFail("test.repeat"));
  EXPECT_TRUE(FaultInjector::ShouldFail("test.repeat"));
  EXPECT_TRUE(FaultInjector::ShouldFail("test.repeat"));

  EXPECT_FALSE(FaultInjector::ShouldFail("never.armed"));
  EXPECT_EQ(FaultInjector::CallCount("never.armed"), 0);

  EXPECT_EQ(FaultInjector::CorruptDouble("never.armed", 1.5), 1.5);
  FaultInjector::Arm("test.corrupt");
  EXPECT_TRUE(std::isnan(FaultInjector::CorruptDouble("test.corrupt", 1.5)));
  EXPECT_EQ(FaultInjector::CorruptDouble("test.corrupt", 1.5), 1.5);

  FaultInjector::AdvanceClock(2.5);
  EXPECT_DOUBLE_EQ(FaultInjector::ClockSkewSeconds(), 2.5);
  FaultInjector::Reset();
  EXPECT_DOUBLE_EQ(FaultInjector::ClockSkewSeconds(), 0.0);
  EXPECT_FALSE(FaultInjector::ShouldFail("test.repeat"));
}

TEST_F(RobustnessTest, RecoveryEventSummaryFormats) {
  EXPECT_EQ(RecoveryEventSummary(), "none");
  CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
  CountRecoveryEvent(RecoveryEvent::kDivergenceBackoff);
  const std::string summary = RecoveryEventSummary();
  EXPECT_NE(summary.find("divergence_backoff=2"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// CSV hardening
// ---------------------------------------------------------------------------

class CsvRobustnessTest : public RobustnessTest {
 protected:
  std::string WriteFile(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path);
    out << content;
    return path;
  }
};

TEST_F(CsvRobustnessTest, RaggedRowNamesTheLine) {
  const std::string path =
      WriteFile("ragged.csv", "a,b,label\n1,2,1\n1,2,3,0\n");
  auto dataset = ReadCsv(path, {});
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dataset.status().message().find(":3:"), std::string::npos)
      << dataset.status();
}

TEST_F(CsvRobustnessTest, UnterminatedQuoteNamesTheLine) {
  const std::string path =
      WriteFile("unterminated.csv", "a,b,label\n1,\"oops,1\n");
  auto dataset = ReadCsv(path, {});
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dataset.status().message().find("unterminated"), std::string::npos)
      << dataset.status();
  EXPECT_NE(dataset.status().message().find(":2:"), std::string::npos)
      << dataset.status();
}

TEST_F(CsvRobustnessTest, QuotedDelimiterAndEscapedQuoteParse) {
  const std::string path = WriteFile(
      "quoted.csv", "city,b,label\n\"Portland, OR\",1,1\n\"say \"\"hi\"\"\",2,0\n");
  auto dataset = ReadCsv(path, {});
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->NumRows(), 2u);
  const Column& city = dataset->ColumnAt(0);
  EXPECT_EQ(city.type(), ColumnType::kCategorical);
  EXPECT_EQ(city.CategoryOf(0), "Portland, OR");
  EXPECT_EQ(city.CategoryOf(1), "say \"hi\"");
}

TEST_F(CsvRobustnessTest, ForceNumericRejectsBadCellWithRowNumber) {
  const std::string path =
      WriteFile("force_numeric.csv", "age,label\n31,1\n\nabc,0\n");
  CsvReadOptions options;
  options.force_numeric = {"age"};
  auto dataset = ReadCsv(path, options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  // The blank line is skipped; the offending row is physical line 4.
  EXPECT_NE(dataset.status().message().find(":4:"), std::string::npos)
      << dataset.status();
  EXPECT_NE(dataset.status().message().find("age"), std::string::npos)
      << dataset.status();
}

TEST_F(CsvRobustnessTest, ForceNumericRejectsNonFiniteCell) {
  const std::string path = WriteFile("nan_cell.csv", "age,label\n31,1\nnan,0\n");
  CsvReadOptions options;
  options.force_numeric = {"age"};
  auto dataset = ReadCsv(path, options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dataset.status().message().find(":3:"), std::string::npos)
      << dataset.status();
}

TEST_F(CsvRobustnessTest, InferredNonFiniteCellDemotesToCategorical) {
  const std::string path = WriteFile("inferred.csv", "age,label\n31,1\nnan,0\n");
  auto dataset = ReadCsv(path, {});
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->ColumnAt(0).type(), ColumnType::kCategorical);
}

TEST_F(CsvRobustnessTest, BadLabelNamesTheLine) {
  const std::string path = WriteFile("label.csv", "a,label\n1,1\n2,yes\n");
  auto dataset = ReadCsv(path, {});
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dataset.status().message().find(":3:"), std::string::npos)
      << dataset.status();
}

TEST_F(CsvRobustnessTest, ConflictingForceListsAreRejected) {
  const std::string path = WriteFile("conflict.csv", "a,label\n1,1\n");
  CsvReadOptions options;
  options.force_numeric = {"a"};
  options.force_categorical = {"a"};
  auto dataset = ReadCsv(path, options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace omnifair
