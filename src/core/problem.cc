#include "core/problem.h"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.h"
#include "core/run_profile.h"
#include "ml/bundle.h"
#include "ml/metrics.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {

Result<std::unique_ptr<FairnessProblem>> FairnessProblem::Create(
    const Dataset& train, const Dataset& val, std::vector<FairnessSpec> specs,
    Trainer* trainer, const EncoderOptions& encoder_options,
    RunProfiler* profiler) {
  if (trainer == nullptr) return Status::InvalidArgument("trainer is null");
  if (train.NumRows() == 0) return Status::InvalidArgument("empty training split");
  if (val.NumRows() == 0) return Status::InvalidArgument("empty validation split");
  Status train_status = train.Validate();
  if (!train_status.ok()) return train_status;
  Status val_status = val.Validate();
  if (!val_status.ok()) return val_status;

  auto problem = std::unique_ptr<FairnessProblem>(new FairnessProblem());
  // Two sequential stage scopes (never nested, preserving the additivity
  // contract): group induction + evaluator construction land in kSetup,
  // encoder fit + the two Transform calls in kEncode.
  {
    RunStageTimer setup_timer(profiler, RunStage::kSetup);
    Result<std::vector<ConstraintSpec>> constraints =
        InduceConstraints(specs, train);
    if (!constraints.ok()) return constraints.status();
    problem->train_ = std::make_unique<Dataset>(train);
    problem->val_ = std::make_unique<Dataset>(val);
    problem->trainer_ = trainer;
    problem->constraints_ = *constraints;
    problem->weight_computer_ =
        std::make_unique<WeightComputer>(*constraints, *problem->train_);
    problem->val_evaluator_ = std::make_unique<ConstraintEvaluator>(
        std::move(*constraints), *problem->val_);
  }
  {
    RunStageTimer encode_timer(profiler, RunStage::kEncode);
    problem->encoder_.Fit(*problem->train_, encoder_options);
    problem->X_train_ = problem->encoder_.Transform(*problem->train_);
    problem->X_val_ = problem->encoder_.Transform(*problem->val_);
  }
  return problem;
}

double FairnessProblem::Epsilon(size_t j) const {
  OF_CHECK_LT(j, constraints_.size());
  return constraints_[j].epsilon;
}

std::vector<double> FairnessProblem::Epsilons() const {
  std::vector<double> epsilons;
  epsilons.reserve(constraints_.size());
  for (const ConstraintSpec& constraint : constraints_) {
    epsilons.push_back(constraint.epsilon);
  }
  return epsilons;
}

void FairnessProblem::SetProfiler(RunProfiler* profiler) {
  profiler_.store(profiler, std::memory_order_relaxed);
  // Constraint evaluation funnels through the validation evaluator's
  // FairnessPart; the train-split evaluator only feeds weight derivation,
  // which is already charged to kWeightCompute.
  val_evaluator_->SetProfiler(profiler);
}

void FairnessProblem::StartTuneReport(TuneReport* report) {
  tune_report_ = report;
  tune_stage_ = "";
  if (report != nullptr) {
    report->epsilons = Epsilons();
    tune_stopwatch_.Restart();
  }
}

void FairnessProblem::RecordTunePoint(const std::vector<double>& lambdas,
                                      bool fit_ok) {
  AppendTunePoint(lambdas, fit_ok, TuneElapsedSeconds());
}

bool FairnessProblem::Interrupted() const {
  return BudgetExpired() || (checkpoint_ != nullptr && checkpoint_->crashed());
}

Status FairnessProblem::InterruptStatus() const {
  if (BudgetExpired()) return budget_->ToStatus();
  if (checkpoint_ != nullptr && checkpoint_->crashed()) {
    return checkpoint_->CrashStatus();
  }
  return Status::Ok();
}

FairnessProblem::ParallelFitOutcome FairnessProblem::ReplayFitOn(
    const std::vector<double>& lambdas, bool* replay_failed) {
  ParallelFitOutcome outcome;
  if (replay_failed != nullptr) *replay_failed = false;
  RunStageTimer stage_timer(profiler(), RunStage::kCheckpoint);
  Result<const FitRecord*> replay = checkpoint_->NextReplay(lambdas);
  if (!replay.ok()) {
    if (replay_failed != nullptr) *replay_failed = true;
    outcome.status = replay.status();
    outcome.seconds = TuneElapsedSeconds();
    return outcome;
  }
  const FitRecord& record = **replay;
  if (record.fit_ok) {
    Result<std::shared_ptr<const ModelBundle>> bundle =
        ModelBundle::Open(record.model_blob);
    if (!bundle.ok()) {
      // A damaged image that survived the file CRC is still data loss; do
      // not charge the budget for a fit the resumed run never received.
      OF_COUNTER_INC("checkpoint.corrupt_detected");
      if (replay_failed != nullptr) *replay_failed = true;
      outcome.status = bundle.status();
      outcome.seconds = TuneElapsedSeconds();
      return outcome;
    }
    outcome.model = (*bundle)->MakeModel();
  } else {
    outcome.status = Status(static_cast<StatusCode>(record.status_code),
                            record.status_message);
  }
  // Charge exactly like the original fit so model caps hold across resume.
  models_trained_.fetch_add(1, std::memory_order_relaxed);
  if (budget_ != nullptr) budget_->NoteModelTrained();
  outcome.seconds = record.seconds;
  return outcome;
}

std::unique_ptr<Classifier> FairnessProblem::ReplaySerialFit(
    const std::vector<double>& lambdas) {
  bool replay_failed = false;
  ParallelFitOutcome outcome = ReplayFitOn(lambdas, &replay_failed);
  if (!replay_failed) {
    AppendTunePoint(lambdas, outcome.model != nullptr, outcome.seconds);
  }
  fit_status_ = outcome.model != nullptr ? Status::Ok() : outcome.status;
  return std::move(outcome.model);
}

void FairnessProblem::FinishSerialFit(const std::vector<double>& lambdas,
                                      const Classifier* model) {
  RecordTunePoint(lambdas, model != nullptr);
  if (checkpoint_ != nullptr) {
    RunStageTimer stage_timer(profiler(), RunStage::kCheckpoint);
    checkpoint_->RecordFit(lambdas, model != nullptr, fit_status_,
                           TuneElapsedSeconds(), model);
    checkpoint_->MaybeWrite();
  }
}

void FairnessProblem::AppendTunePoint(const std::vector<double>& lambdas,
                                      bool fit_ok, double seconds) {
  if (tune_report_ == nullptr) return;
  TunePoint point;
  point.lambdas = lambdas;
  point.stage = tune_stage_;
  point.fit_ok = fit_ok;
  point.models_trained = static_cast<int>(tune_report_->points.size()) + 1;
  point.seconds = seconds;
  tune_report_->points.push_back(std::move(point));
}

void FairnessProblem::AnnotateLastTunePoint(
    double val_accuracy, std::vector<double> val_fairness_parts) {
  if (tune_report_ == nullptr || tune_report_->points.empty()) return;
  TunePoint& point = tune_report_->points.back();
  point.evaluated = true;
  point.val_accuracy = val_accuracy;
  point.val_fairness_parts = std::move(val_fairness_parts);
}

std::unique_ptr<Classifier> FairnessProblem::FirewalledFit(
    const Matrix& X, const std::vector<int>& y, std::vector<double> weights) {
  // Non-finite weights (a degenerate Lambda or a buggy weight model) would
  // poison every downstream loss; clamp them to 0 and keep going.
  size_t clamped = 0;
  for (double& w : weights) {
    if (!std::isfinite(w)) {
      w = 0.0;
      ++clamped;
    }
  }
  if (clamped > 0) {
    CountRecoveryEvent(RecoveryEvent::kNonFiniteWeight);
    OF_LOG(Warning) << "clamped " << clamped << " non-finite example weights to 0";
  }

  ++models_trained_;
  if (budget_ != nullptr) budget_->NoteModelTrained();
  OF_COUNTER_INC("trainer.fits");
  OF_TRACE_SPAN("trainer_fit");
  OF_SCOPED_LATENCY_US("trainer.fit_us");
  RunStageTimer stage_timer(profiler(), RunStage::kTrainerFit);

  std::unique_ptr<Classifier> model;
  Status caught;
  try {
    model = trainer_->Fit(X, y, weights);
  } catch (const std::exception& e) {
    caught = Status::Internal(std::string("trainer threw: ") + e.what());
  } catch (...) {
    caught = Status::Internal("trainer threw a non-std exception");
  }
  if (!caught.ok()) {
    CountRecoveryEvent(RecoveryEvent::kTrainerException);
    OF_COUNTER_INC("trainer.fit_failures");
    OF_LOG(Warning) << "exception firewall: " << caught.message();
    fit_status_ = std::move(caught);
    return nullptr;
  }
  if (model == nullptr) {
    OF_COUNTER_INC("trainer.fit_failures");
    fit_status_ = Status::Internal("trainer returned a null model");
    return nullptr;
  }
  fit_status_ = Status::Ok();
  return model;
}

FairnessProblem::ParallelFitOutcome FairnessProblem::FitWithLambdasOn(
    Trainer& trainer, const std::vector<double>& lambdas,
    const std::vector<int>* weight_predictions) {
  ParallelFitOutcome outcome;
  std::vector<double> weights;
  {
    RunStageTimer stage_timer(profiler(), RunStage::kWeightCompute);
    weights = weight_computer_->Compute(lambdas, weight_predictions);
  }
  size_t clamped = 0;
  for (double& w : weights) {
    if (!std::isfinite(w)) {
      w = 0.0;
      ++clamped;
    }
  }
  if (clamped > 0) {
    CountRecoveryEvent(RecoveryEvent::kNonFiniteWeight);
    OF_LOG(Warning) << "clamped " << clamped << " non-finite example weights to 0";
  }

  models_trained_.fetch_add(1, std::memory_order_relaxed);
  if (budget_ != nullptr) budget_->NoteModelTrained();
  OF_COUNTER_INC("trainer.fits");
  OF_TRACE_SPAN("trainer_fit");
  OF_SCOPED_LATENCY_US("trainer.fit_us");
  RunStageTimer stage_timer(profiler(), RunStage::kTrainerFit);

  try {
    outcome.model = trainer.Fit(X_train_, train_->labels(), weights);
  } catch (const std::exception& e) {
    outcome.status = Status::Internal(std::string("trainer threw: ") + e.what());
  } catch (...) {
    outcome.status = Status::Internal("trainer threw a non-std exception");
  }
  if (!outcome.status.ok()) {
    CountRecoveryEvent(RecoveryEvent::kTrainerException);
    OF_COUNTER_INC("trainer.fit_failures");
    OF_LOG(Warning) << "exception firewall: " << outcome.status.message();
    outcome.model = nullptr;
  } else if (outcome.model == nullptr) {
    OF_COUNTER_INC("trainer.fit_failures");
    outcome.status = Status::Internal("trainer returned a null model");
  }
  outcome.seconds = TuneElapsedSeconds();
  return outcome;
}

std::unique_ptr<Classifier> FairnessProblem::FitWithLambdas(
    const std::vector<double>& lambdas, const Classifier* weight_model) {
  if (checkpoint_ != nullptr && checkpoint_->HasPendingReplay()) {
    return ReplaySerialFit(lambdas);
  }
  std::vector<int> predictions;
  const std::vector<int>* predictions_ptr = nullptr;
  if (weight_model != nullptr && DependsOnPredictions()) {
    RunStageTimer predict_timer(profiler(), RunStage::kPredict);
    predictions = weight_model->Predict(X_train_);
    predictions_ptr = &predictions;
  }
  std::vector<double> weights;
  {
    RunStageTimer stage_timer(profiler(), RunStage::kWeightCompute);
    weights = weight_computer_->Compute(lambdas, predictions_ptr);
  }
  std::unique_ptr<Classifier> model =
      FirewalledFit(X_train_, train_->labels(), std::move(weights));
  FinishSerialFit(lambdas, model.get());
  return model;
}

std::unique_ptr<Classifier> FairnessProblem::FitWithLambdasSubsampled(
    const std::vector<double>& lambdas, const Classifier* weight_model,
    double fraction, uint64_t seed) {
  OF_CHECK_GT(fraction, 0.0);
  if (fraction >= 1.0) return FitWithLambdas(lambdas, weight_model);
  if (checkpoint_ != nullptr && checkpoint_->HasPendingReplay()) {
    return ReplaySerialFit(lambdas);
  }

  if (subsample_fraction_ != fraction || subsample_seed_ != seed ||
      subsample_rows_.empty()) {
    const size_t n = train_->NumRows();
    const size_t k = std::max<size_t>(
        1, static_cast<size_t>(fraction * static_cast<double>(n)));
    Rng rng(seed);
    const std::vector<size_t> perm = rng.Permutation(n);
    subsample_rows_.assign(perm.begin(), perm.begin() + k);
    subsample_features_ = X_train_.SelectRows(subsample_rows_);
    subsample_labels_.clear();
    subsample_labels_.reserve(k);
    for (size_t i : subsample_rows_) subsample_labels_.push_back(train_->Label(i));
    subsample_fraction_ = fraction;
    subsample_seed_ = seed;
  }

  std::vector<int> predictions;
  const std::vector<int>* predictions_ptr = nullptr;
  if (weight_model != nullptr && DependsOnPredictions()) {
    RunStageTimer predict_timer(profiler(), RunStage::kPredict);
    predictions = weight_model->Predict(X_train_);
    predictions_ptr = &predictions;
  }
  std::vector<double> full_weights;
  {
    RunStageTimer stage_timer(profiler(), RunStage::kWeightCompute);
    full_weights = weight_computer_->Compute(lambdas, predictions_ptr);
  }
  std::vector<double> weights;
  weights.reserve(subsample_rows_.size());
  for (size_t i : subsample_rows_) weights.push_back(full_weights[i]);
  std::unique_ptr<Classifier> model =
      FirewalledFit(subsample_features_, subsample_labels_, std::move(weights));
  FinishSerialFit(lambdas, model.get());
  return model;
}

std::unique_ptr<Classifier> FairnessProblem::FitWithWeights(
    const std::vector<double>& weights) {
  OF_CHECK_EQ(weights.size(), train_->NumRows());
  return FirewalledFit(X_train_, train_->labels(), weights);
}

std::vector<int> FairnessProblem::PredictTrain(const Classifier& model) const {
  RunStageTimer stage_timer(profiler(), RunStage::kPredict);
  return model.Predict(X_train_);
}

std::vector<int> FairnessProblem::PredictVal(const Classifier& model) const {
  RunStageTimer stage_timer(profiler(), RunStage::kPredict);
  return model.Predict(X_val_);
}

double FairnessProblem::ValAccuracy(const std::vector<int>& val_predictions) const {
  return Accuracy(val_->labels(), val_predictions);
}

}  // namespace omnifair
