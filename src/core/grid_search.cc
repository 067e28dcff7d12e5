#include "core/grid_search.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "core/run_profile.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace omnifair {

namespace {

/// points_per_dim^k via checked integer multiplication. Returns false on
/// overflow (std::pow's double rounding silently truncates large grids).
bool GridSize(int points_per_dim, size_t k, long long* total) {
  *total = 1;
  for (size_t dim = 0; dim < k; ++dim) {
    if (__builtin_mul_overflow(*total, static_cast<long long>(points_per_dim),
                               total)) {
      return false;
    }
  }
  return true;
}

}  // namespace

GridSearchTuner::GridSearchTuner(GridSearchOptions options) : options_(options) {}

MultiTuneResult GridSearchTuner::Run(FairnessProblem& problem) const {
  return RunCollecting(problem, /*points=*/nullptr);
}

MultiTuneResult GridSearchTuner::RunCollecting(FairnessProblem& problem,
                                               std::vector<GridPoint>* points) const {
  const size_t k = problem.NumConstraints();
  OF_CHECK_GE(k, 1u);
  OF_CHECK_GE(options_.points_per_dim, 2);
  OF_TRACE_SPAN("grid_search");
  const int models_before = problem.models_trained();

  long long total = 0;
  if (!GridSize(options_.points_per_dim, k, &total)) {
    MultiTuneResult result;
    result.lambdas.assign(k, 0.0);
    result.status = Status::InvalidArgument(
        "grid size " + std::to_string(options_.points_per_dim) + "^" +
        std::to_string(k) + " overflows");
    return result;
  }

  // Trajectory annotation shared by the base fit and every grid point.
  auto annotate = [&problem](const std::vector<int>& preds) {
    if (!problem.RecordingTuneReport()) return;
    problem.AnnotateLastTunePoint(problem.ValAccuracy(preds),
                                  problem.val_evaluator().FairnessParts(preds));
  };

  // Crash-safe checkpointing: the base fit and every grid point replay from
  // the log on resume, then the run continues live.
  Result<std::unique_ptr<CheckpointManager>> checkpoint =
      AttachCheckpoint(problem, options_.checkpoint, "grid_search");
  if (!checkpoint.ok()) {
    MultiTuneResult result;
    result.lambdas.assign(k, 0.0);
    result.status = checkpoint.status();
    return result;
  }
  struct CheckpointGuard {
    FairnessProblem& problem;
    CheckpointManager* manager;
    ~CheckpointGuard() { FinishCheckpoint(problem, manager); }
  } checkpoint_guard{problem, checkpoint->get()};

  // The weight model for prediction-parameterized metrics: the
  // unconstrained fit.
  std::vector<double> lambdas(k, 0.0);
  problem.SetTuneStage("initial");
  std::unique_ptr<Classifier> base_model = problem.FitWithLambdas(lambdas, nullptr);

  MultiTuneResult result;
  result.lambdas.assign(k, 0.0);
  if (base_model == nullptr) {
    // Trainer failed behind the exception firewall before any model existed.
    result.status = problem.last_fit_status();
    result.models_trained = problem.models_trained() - models_before;
    return result;
  }
  if (problem.RecordingTuneReport()) annotate(problem.PredictVal(*base_model));

  const double lo = -options_.max_lambda;
  const double step =
      2.0 * options_.max_lambda / static_cast<double>(options_.points_per_dim - 1);
  auto decode = [&](long long index, std::vector<double>* out) {
    long long rest = index;
    for (size_t dim = 0; dim < k; ++dim) {
      (*out)[dim] =
          lo + step * static_cast<double>(rest % options_.points_per_dim);
      rest /= options_.points_per_dim;
    }
  };

  // Parallel fits need per-worker trainer clones; a trainer family without
  // Clone() support keeps the serial path.
  std::unique_ptr<Trainer> probe_clone;
  if (options_.num_threads > 1 && total > 1) {
    probe_clone = problem.trainer()->Clone();
  }

  problem.SetTuneStage("grid");
  if (probe_clone == nullptr) {
    // Serial path (num_threads == 1, or unclonable trainer): unchanged.
    double best_accuracy = -1.0;
    for (long long index = 0; index < total; ++index) {
      if (problem.Interrupted()) {
        result.status = problem.InterruptStatus();
        break;
      }
      OF_TRACE_SPAN("grid_point");
      OF_COUNTER_INC("tuner.grid_points");
      decode(index, &lambdas);
      std::unique_ptr<Classifier> model =
          problem.FitWithLambdas(lambdas, base_model.get());
      if (model == nullptr) {
        // Trainer failed mid-grid: keep the best point found so far.
        result.status = problem.last_fit_status();
        break;
      }
      const std::vector<int> val_preds = problem.PredictVal(*model);
      annotate(val_preds);
      const bool satisfied = problem.val_evaluator().MaxViolation(val_preds) <= 1e-12;
      const double accuracy = problem.ValAccuracy(val_preds);
      if (points != nullptr) {
        GridPoint point;
        point.lambdas = lambdas;
        point.val_accuracy = accuracy;
        point.val_fairness_parts = problem.val_evaluator().FairnessParts(val_preds);
        point.satisfied = satisfied;
        points->push_back(std::move(point));
      }
      if (satisfied && accuracy > best_accuracy) {
        best_accuracy = accuracy;
        result.model = std::move(model);
        result.lambdas = lambdas;
        result.satisfied = true;
        result.val_accuracy = accuracy;
        result.val_fairness_parts = problem.val_evaluator().FairnessParts(val_preds);
      }
    }
  } else {
    // Parallel path: every grid point fits on its own trainer clone; the
    // reduction keeps the min-index argmax among satisfied points (the same
    // point the serial strict `accuracy > best` keep-first scan selects) and
    // merges the trajectory in index order, so the outcome is bit-identical
    // to the serial path.
    struct SlotResult {
      bool attempted = false;  // a fit was issued (charged to the budget)
      bool replayed = false;   // outcome came from the checkpoint log
      bool fit_ok = false;
      double seconds = 0.0;
      Status status;
      double accuracy = 0.0;
      bool satisfied = false;
      std::vector<double> parts;
      std::vector<double> point_lambdas;
      std::vector<uint8_t> model_blob;  // live fits on checkpointing runs
    };
    std::vector<SlotResult> slots(static_cast<size_t>(total));
    std::atomic<bool> cancel{false};
    std::atomic<bool> expired{false};

    // One weight-model prediction pass instead of one per grid point.
    std::vector<int> weight_predictions;
    const std::vector<int>* weight_predictions_ptr = nullptr;
    if (problem.DependsOnPredictions()) {
      weight_predictions = problem.PredictTrain(*base_model);
      weight_predictions_ptr = &weight_predictions;
    }

    std::mutex best_mu;
    std::unique_ptr<Classifier> best_model;
    double best_accuracy = -1.0;
    long long best_index = total;
    // Same selection the serial strict `accuracy > best` keep-first scan
    // makes; callers on worker threads hold best_mu.
    auto consider_best = [&](std::unique_ptr<Classifier> model,
                             long long index, double accuracy) {
      if (accuracy > best_accuracy ||
          (accuracy == best_accuracy && index < best_index)) {
        best_accuracy = accuracy;
        best_index = index;
        best_model = std::move(model);
      }
    };

    // Without checkpointing the whole grid is a single ParallelFor. With it
    // the grid runs in index blocks so fit records land at deterministic
    // index-ordered barriers and the snapshot is always a prefix of the
    // serial fit order.
    CheckpointManager* cp = problem.checkpoint();
    const long long block_size =
        cp != nullptr ? std::max<long long>(16, 4LL * options_.num_threads)
                      : total;
    bool replay_broken = false;

    for (long long begin = 0; begin < total && !replay_broken;
         begin += block_size) {
      const long long end = std::min(total, begin + block_size);
      if (cancel.load(std::memory_order_relaxed)) break;
      if (problem.Interrupted()) {
        expired.store(true, std::memory_order_relaxed);
        break;
      }

      // Replay prologue: logged fits come back serially, in index order.
      long long live_begin = begin;
      while (cp != nullptr && cp->HasPendingReplay() && live_begin < end) {
        const long long index = live_begin;
        SlotResult& slot = slots[static_cast<size_t>(index)];
        slot.point_lambdas.resize(k);
        decode(index, &slot.point_lambdas);
        bool replay_failed = false;
        FairnessProblem::ParallelFitOutcome outcome =
            problem.ReplayFitOn(slot.point_lambdas, &replay_failed);
        if (replay_failed) {
          // Broken replay (diverged options / damaged blob): no fit
          // happened, so no TunePoint — stop with the typed cause.
          if (result.status.ok()) result.status = outcome.status;
          replay_broken = true;
          break;
        }
        ++live_begin;
        slot.attempted = true;
        slot.replayed = true;
        slot.seconds = outcome.seconds;
        if (outcome.model == nullptr) {
          slot.status = outcome.status;
          cancel.store(true, std::memory_order_relaxed);
          break;
        }
        slot.fit_ok = true;
        const std::vector<int> val_preds = problem.PredictVal(*outcome.model);
        slot.parts = problem.val_evaluator().FairnessParts(val_preds);
        slot.satisfied =
            problem.val_evaluator().MaxViolationFromParts(slot.parts) <= 1e-12;
        slot.accuracy = problem.ValAccuracy(val_preds);
        if (slot.satisfied) {
          consider_best(std::move(outcome.model), index, slot.accuracy);
        }
      }

      if (live_begin < end && !replay_broken &&
          !cancel.load(std::memory_order_relaxed)) {
        ThreadPool::Global().ParallelFor(
            static_cast<size_t>(end - live_begin),
            [&](size_t offset) {
              // A firewalled failure on any worker cancels the outstanding
              // grid tasks; the budget stops exploratory fits the same way
              // it stops the serial loop.
              if (cancel.load(std::memory_order_relaxed)) return;
              if (problem.BudgetExpired()) {
                expired.store(true, std::memory_order_relaxed);
                return;
              }
              OF_TRACE_SPAN("grid_point");
              OF_COUNTER_INC("tuner.grid_points");
              const size_t i = static_cast<size_t>(live_begin) + offset;
              SlotResult& slot = slots[i];
              slot.point_lambdas.resize(k);
              decode(static_cast<long long>(i), &slot.point_lambdas);
              std::unique_ptr<Trainer> clone = problem.trainer()->Clone();
              FairnessProblem::ParallelFitOutcome outcome =
                  problem.FitWithLambdasOn(*clone, slot.point_lambdas,
                                           weight_predictions_ptr);
              slot.attempted = true;
              slot.seconds = outcome.seconds;
              if (outcome.model == nullptr) {
                slot.status = outcome.status;
                cancel.store(true, std::memory_order_relaxed);
                return;
              }
              slot.fit_ok = true;
              if (cp != nullptr) {
                // Encode off-thread, before best-selection can move the
                // model away; the barrier below logs the image.
                RunStageTimer checkpoint_timer(problem.profiler(),
                                               RunStage::kCheckpoint);
                Result<std::vector<uint8_t>> encoded =
                    cp->EncodeModel(*outcome.model);
                if (encoded.ok()) slot.model_blob = std::move(*encoded);
              }
              const std::vector<int> val_preds =
                  problem.PredictVal(*outcome.model);
              slot.parts = problem.val_evaluator().FairnessParts(val_preds);
              slot.satisfied =
                  problem.val_evaluator().MaxViolationFromParts(slot.parts) <=
                  1e-12;
              slot.accuracy = problem.ValAccuracy(val_preds);
              if (!slot.satisfied) return;
              std::lock_guard<std::mutex> lock(best_mu);
              consider_best(std::move(outcome.model),
                            static_cast<long long>(i), slot.accuracy);
            },
            options_.num_threads);
      }

      // Block barrier: log the block's live fits in index order (only the
      // contiguous attempted prefix — a cancelled or expired block leaves
      // gaps, and the replay log must stay a prefix of the serial order) and
      // give the snapshot a chance to hit disk.
      if (cp != nullptr) {
        RunStageTimer checkpoint_timer(problem.profiler(),
                                       RunStage::kCheckpoint);
        for (long long index = live_begin; index < end; ++index) {
          SlotResult& slot = slots[static_cast<size_t>(index)];
          if (!slot.attempted) break;
          cp->RecordFitBlob(slot.point_lambdas, slot.fit_ok, slot.status,
                            slot.seconds, std::move(slot.model_blob));
        }
        cp->MaybeWrite();
      }
    }

    // Merge in index order: every issued fit gets its TunePoint (so the
    // report invariant points[i].models_trained == i + 1 matches the budget
    // accounting), evaluated points land in `points`, and the status is the
    // first failure by grid index.
    for (size_t i = 0; i < slots.size(); ++i) {
      SlotResult& slot = slots[i];
      if (!slot.attempted) continue;
      problem.AppendTunePoint(slot.point_lambdas, slot.fit_ok, slot.seconds);
      if (!slot.fit_ok) {
        if (result.status.ok()) result.status = slot.status;
        continue;
      }
      problem.AnnotateLastTunePoint(slot.accuracy, slot.parts);
      if (points != nullptr) {
        GridPoint point;
        point.lambdas = slot.point_lambdas;
        point.val_accuracy = slot.accuracy;
        point.val_fairness_parts = slot.parts;
        point.satisfied = slot.satisfied;
        points->push_back(std::move(point));
      }
    }
    if (result.status.ok() && expired.load(std::memory_order_relaxed)) {
      result.status = problem.InterruptStatus();
    }
    if (best_model != nullptr) {
      result.model = std::move(best_model);
      result.lambdas = slots[static_cast<size_t>(best_index)].point_lambdas;
      result.satisfied = true;
      result.val_accuracy = best_accuracy;
      result.val_fairness_parts = slots[static_cast<size_t>(best_index)].parts;
    }
  }

  if (result.model == nullptr) {
    // No satisfying grid point: return the unconstrained model, unsatisfied.
    const std::vector<int> val_preds = problem.PredictVal(*base_model);
    result.val_accuracy = problem.ValAccuracy(val_preds);
    result.val_fairness_parts = problem.val_evaluator().FairnessParts(val_preds);
    result.model = std::move(base_model);
    result.lambdas.assign(k, 0.0);
    result.satisfied = false;
  }
  result.models_trained = problem.models_trained() - models_before;
  return result;
}

}  // namespace omnifair
