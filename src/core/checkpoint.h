#ifndef OMNIFAIR_CORE_CHECKPOINT_H_
#define OMNIFAIR_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/snapshot_io.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace omnifair {

class Classifier;
class FairnessProblem;
class FeatureEncoder;

// ---------------------------------------------------------------------------
// Crash-safe checkpoint/resume for tuning runs (DESIGN.md §12).
//
// The checkpoint is a replay log: the ordered sequence of every trainer fit a
// tuning search issued, each with its Lambda vector, outcome, completion time
// and the fitted model as a bundle image (ml/bundle.h) packed with the
// problem's encoder, decoded on replay to the trainer's own model class.
// Because every built-in trainer is deterministic given (X, y, weights, seed)
// and the tuners' control flow is a pure function of past fit outcomes,
// re-running a tuner while FitWithLambdas returns the logged models instead
// of refitting reproduces the interrupted search exactly — the resumed run's
// final model and concatenated TuneReport are bit-identical to an
// uninterrupted run (all fields except wall-clock seconds, which no two runs
// share). One mechanism covers all three tuners.
//
// Not supported with warm-start trainers: warm starts carry optimizer state
// across fits, which a resumed process does not have.
// ---------------------------------------------------------------------------

/// Where and how often a tuning run persists its state.
struct CheckpointOptions {
  /// Snapshot file the run writes (durable: temp + fsync + atomic rename).
  /// Empty disables checkpointing.
  std::string path;
  /// Minimum seconds between snapshot writes; 0 writes at every record
  /// barrier (cheapest to test, dearest in IO).
  double interval_s = 0.0;
  /// Existing snapshot to resume from. The run replays its fits from this
  /// file, then continues live — and keeps checkpointing to `path`.
  std::string resume_from;
};

/// One logged trainer invocation.
struct FitRecord {
  std::vector<double> lambdas;
  bool fit_ok = false;
  /// Firewalled failure detail when !fit_ok (code + message round-trip so a
  /// replayed failure reproduces last_fit_status()).
  uint8_t status_code = 0;
  std::string status_message;
  /// TunePoint::seconds of the original fit (original run's tune clock).
  double seconds = 0.0;
  /// Bundle image of the fitted model (CheckpointManager::EncodeModel);
  /// empty when !fit_ok.
  std::vector<uint8_t> model_blob;
};

/// The replay log plus its durability policy. Owned by the tuner's top-level
/// Run/TuneSingle scope and attached to the FairnessProblem for the duration
/// (single-threaded use: all record/replay calls happen on the merge thread
/// at index-ordered barriers).
class CheckpointManager {
 public:
  /// Fresh session, or a resume when options.resume_from is set. Resume
  /// failures are typed: kDataLoss (truncated/bit-flipped file, counted in
  /// `checkpoint.corrupt_detected`), kInvalidArgument (not a checkpoint,
  /// another version, or written by a different tuner `algorithm`).
  /// Records are packed with `encoder`, which must outlive the manager.
  static Result<std::unique_ptr<CheckpointManager>> Create(
      const CheckpointOptions& options, const std::string& algorithm,
      const FeatureEncoder& encoder);

  // --- replay ---------------------------------------------------------------
  /// Only records loaded from resume_from replay; records appended by live
  /// fits sit past `replay_limit_` and are never handed back to the run
  /// that produced them.
  bool HasPendingReplay() const { return replay_next_ < replay_limit_; }
  size_t pending_replays() const { return replay_limit_ - replay_next_; }
  /// Consumes the next logged fit. `lambdas` must equal the record's lambdas
  /// bit-for-bit — a mismatch means the tuner options changed between runs
  /// and yields kInvalidArgument without consuming the record.
  Result<const FitRecord*> NextReplay(const std::vector<double>& lambdas);
  /// Tune-clock seconds already consumed by the loaded log (the last
  /// record's completion time); 0 for a fresh session. Feed it to
  /// TrainBudget::RestoreConsumed and FairnessProblem::SetTuneSecondsBase.
  double consumed_seconds() const { return consumed_seconds_; }

  // --- recording ------------------------------------------------------------
  /// The bundle image a fit record carries: `model` packed with the
  /// manager's encoder. Const, so parallel workers encode off-thread.
  Result<std::vector<uint8_t>> EncodeModel(const Classifier& model) const;
  /// Logs one live fit (encodes `model`; pass nullptr for a failed fit).
  void RecordFit(const std::vector<double>& lambdas, bool fit_ok,
                 const Status& fit_status, double seconds,
                 const Classifier* model);
  /// Same with a pre-encoded image (parallel workers encode off-thread).
  void RecordFitBlob(std::vector<double> lambdas, bool fit_ok,
                     const Status& fit_status, double seconds,
                     std::vector<uint8_t> model_blob);

  // --- durability -----------------------------------------------------------
  /// Writes a snapshot when forced, or when interval_s has elapsed since the
  /// last write. Failed writes degrade: the run continues, the failure lands
  /// in `checkpoint.write_failures` and last_write_status(). No-op once
  /// crashed() — a crashed process writes nothing more.
  void MaybeWrite(bool force = false);
  const Status& last_write_status() const { return last_write_status_; }

  /// True after the `checkpoint.crash_after_write` fault site fired: the
  /// simulated process death. Tuners observe it via
  /// FairnessProblem::Interrupted and stop like a budget expiry.
  bool crashed() const { return crashed_; }
  Status CrashStatus() const;

  const std::string& algorithm() const { return algorithm_; }
  size_t num_records() const { return records_.size(); }

 private:
  CheckpointManager(CheckpointOptions options, std::string algorithm,
                    const FeatureEncoder& encoder);

  CheckpointOptions options_;
  std::string algorithm_;
  const FeatureEncoder& encoder_;
  std::vector<FitRecord> records_;
  size_t replay_next_ = 0;
  size_t replay_limit_ = 0;
  double consumed_seconds_ = 0.0;
  Stopwatch since_write_;
  bool wrote_once_ = false;
  bool crashed_ = false;
  /// Set when a record could not be encoded (exotic model family):
  /// recording stops so the log stays a valid prefix of the run.
  bool recording_broken_ = false;
  Status last_write_status_;
};

/// Sets up checkpointing for one tuning run: creates the manager (or resumes
/// — restoring the attached TrainBudget's consumed seconds and the problem's
/// tune clock) and attaches it to `problem`. Returns a null manager when
/// `options` has neither path nor resume_from, or when the problem already
/// has one attached (a HillClimber-owned session spans its inner coordinate
/// tunes). Pair with FinishCheckpoint.
Result<std::unique_ptr<CheckpointManager>> AttachCheckpoint(
    FairnessProblem& problem, const CheckpointOptions& options,
    const std::string& algorithm);

/// Final forced snapshot write (so the file covers the whole run) and
/// detach. Safe with a null manager.
void FinishCheckpoint(FairnessProblem& problem,
                      CheckpointManager* checkpoint);

}  // namespace omnifair

#endif  // OMNIFAIR_CORE_CHECKPOINT_H_
