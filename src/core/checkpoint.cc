#include "core/checkpoint.h"

#include <utility>

#include "core/problem.h"
#include "ml/bundle.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace omnifair {
namespace {

/// Checkpoint files are snapshot containers (util/snapshot_io) with these
/// sections. Bump the version when the record layout changes; resume reads
/// exactly this version (version 1 records held another model codec).
constexpr uint32_t kCheckpointVersion = 2;
constexpr char kMetaSection[] = "meta";
constexpr char kFitsSection[] = "fits";

std::string FormatLambdas(const std::vector<double>& lambdas) {
  std::string out = "(";
  for (size_t i = 0; i < lambdas.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(lambdas[i]);
  }
  return out + ")";
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointOptions options,
                                     std::string algorithm,
                                     const FeatureEncoder& encoder)
    : options_(std::move(options)),
      algorithm_(std::move(algorithm)),
      encoder_(encoder) {}

Result<std::unique_ptr<CheckpointManager>> CheckpointManager::Create(
    const CheckpointOptions& options, const std::string& algorithm,
    const FeatureEncoder& encoder) {
  auto manager = std::unique_ptr<CheckpointManager>(
      new CheckpointManager(options, algorithm, encoder));
  if (options.resume_from.empty()) return manager;

  Result<Snapshot> snapshot =
      ReadSnapshotFile(options.resume_from, kCheckpointVersion);
  if (!snapshot.ok()) {
    if (snapshot.status().code() == StatusCode::kDataLoss) {
      OF_COUNTER_INC("checkpoint.corrupt_detected");
    }
    return snapshot.status();
  }
  if (snapshot->version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "checkpoint " + options.resume_from + " has version " +
        std::to_string(snapshot->version) + "; this build resumes only version " +
        std::to_string(kCheckpointVersion));
  }

  const SnapshotSection* meta = snapshot->Find(kMetaSection);
  const SnapshotSection* fits = snapshot->Find(kFitsSection);
  if (meta == nullptr || fits == nullptr) {
    return Status::InvalidArgument("checkpoint " + options.resume_from +
                                   " is missing its meta/fits sections");
  }

  std::string recorded_algorithm;
  uint64_t record_count = 0;
  {
    BinaryReader reader(meta->payload);
    if (!reader.String(&recorded_algorithm) || !reader.U64(&record_count)) {
      return reader.status();
    }
  }
  if (recorded_algorithm != algorithm) {
    return Status::InvalidArgument(
        "checkpoint " + options.resume_from + " was written by tuner '" +
        recorded_algorithm + "'; cannot resume it with '" + algorithm + "'");
  }

  BinaryReader reader(fits->payload);
  manager->records_.reserve(static_cast<size_t>(record_count));
  for (uint64_t i = 0; i < record_count; ++i) {
    FitRecord record;
    uint8_t fit_ok = 0;
    if (!reader.F64Vector(&record.lambdas) || !reader.U8(&fit_ok) ||
        !reader.U8(&record.status_code) ||
        !reader.String(&record.status_message) || !reader.F64(&record.seconds) ||
        !reader.Bytes(&record.model_blob)) {
      OF_COUNTER_INC("checkpoint.corrupt_detected");
      return reader.status();
    }
    record.fit_ok = fit_ok != 0;
    manager->records_.push_back(std::move(record));
  }
  if (!reader.exhausted()) {
    OF_COUNTER_INC("checkpoint.corrupt_detected");
    return Status::DataLoss("checkpoint " + options.resume_from + " has " +
                            std::to_string(reader.remaining()) +
                            " trailing bytes after " +
                            std::to_string(record_count) + " fit records");
  }
  manager->replay_limit_ = manager->records_.size();
  if (!manager->records_.empty()) {
    manager->consumed_seconds_ = manager->records_.back().seconds;
  }
  OF_COUNTER_INC("checkpoint.resumes");
  OF_LOG(Info) << "resuming tuning run from " << options.resume_from << ": "
               << manager->records_.size() << " recorded fits, "
               << manager->consumed_seconds_ << "s of tune time consumed";
  return manager;
}

Result<const FitRecord*> CheckpointManager::NextReplay(
    const std::vector<double>& lambdas) {
  OF_CHECK(HasPendingReplay());
  const FitRecord& record = records_[replay_next_];
  if (record.lambdas != lambdas) {
    return Status::InvalidArgument(
        "checkpoint replay diverged at fit " + std::to_string(replay_next_) +
        ": recorded lambdas " + FormatLambdas(record.lambdas) +
        " but the search requested " + FormatLambdas(lambdas) +
        " — were the tuner options changed between runs?");
  }
  ++replay_next_;
  OF_COUNTER_INC("checkpoint.replayed_fits");
  return &record;
}

Result<std::vector<uint8_t>> CheckpointManager::EncodeModel(
    const Classifier& model) const {
  return EncodeBundle(model, encoder_, BundleMeta{});
}

void CheckpointManager::RecordFit(const std::vector<double>& lambdas,
                                  bool fit_ok, const Status& fit_status,
                                  double seconds, const Classifier* model) {
  std::vector<uint8_t> blob;
  if (fit_ok && model != nullptr) {
    Result<std::vector<uint8_t>> encoded = EncodeModel(*model);
    if (!encoded.ok()) {
      if (!recording_broken_) {
        recording_broken_ = true;
        OF_LOG(Warning) << "checkpoint recording stopped: "
                        << encoded.status()
                        << " (the log stays a valid prefix of the run)";
      }
      return;
    }
    blob = std::move(*encoded);
  }
  RecordFitBlob(lambdas, fit_ok, fit_status, seconds, std::move(blob));
}

void CheckpointManager::RecordFitBlob(std::vector<double> lambdas, bool fit_ok,
                                      const Status& fit_status, double seconds,
                                      std::vector<uint8_t> model_blob) {
  if (recording_broken_ || crashed_) return;
  if (fit_ok && model_blob.empty()) {
    // A parallel worker could not encode its model; same degradation as
    // RecordFit.
    recording_broken_ = true;
    OF_LOG(Warning) << "checkpoint recording stopped: fit has no model blob";
    return;
  }
  FitRecord record;
  record.lambdas = std::move(lambdas);
  record.fit_ok = fit_ok;
  if (!fit_ok) {
    record.status_code = static_cast<uint8_t>(fit_status.code());
    record.status_message = fit_status.message();
  }
  record.seconds = seconds;
  record.model_blob = std::move(model_blob);
  records_.push_back(std::move(record));
}

void CheckpointManager::MaybeWrite(bool force) {
  if (options_.path.empty() || crashed_ || recording_broken_) return;
  if (!force && wrote_once_ &&
      since_write_.ElapsedSeconds() < options_.interval_s) {
    return;
  }

  Snapshot snapshot;
  snapshot.version = kCheckpointVersion;
  {
    BinaryWriter meta;
    meta.String(algorithm_);
    meta.U64(records_.size());
    snapshot.sections.push_back({kMetaSection, meta.TakeBuffer()});
  }
  {
    BinaryWriter fits;
    for (const FitRecord& record : records_) {
      fits.F64Vector(record.lambdas);
      fits.U8(record.fit_ok ? 1 : 0);
      fits.U8(record.status_code);
      fits.String(record.status_message);
      fits.F64(record.seconds);
      fits.Bytes(record.model_blob);
    }
    snapshot.sections.push_back({kFitsSection, fits.TakeBuffer()});
  }

  Status status;
  {
    OF_SCOPED_LATENCY_US("checkpoint.write_us");
    status = WriteSnapshotFile(options_.path, snapshot);
  }
  if (!status.ok()) {
    // Degrade, do not derail: a full disk must not kill a tuning run that
    // can finish in memory. The run just loses resumability from here on.
    OF_COUNTER_INC("checkpoint.write_failures");
    OF_LOG(Warning) << "checkpoint write failed (run continues): " << status;
    last_write_status_ = std::move(status);
    return;
  }
  last_write_status_ = Status::Ok();
  wrote_once_ = true;
  since_write_.Restart();
  OF_COUNTER_INC("checkpoint.writes");
  OF_COUNTER_ADD("checkpoint.bytes",
                 static_cast<long long>(20 + 8 + algorithm_.size() +
                                        snapshot.sections[1].payload.size()));

  if (FaultInjector::ShouldFail(fault_sites::kCheckpointCrashAfterWrite)) {
    crashed_ = true;
    OF_LOG(Warning) << "simulated crash after checkpoint write to "
                    << options_.path;
  }
}

Status CheckpointManager::CrashStatus() const {
  return Status::Unavailable(
      "tuning run interrupted after a checkpoint write (simulated crash); "
      "resume from " +
      options_.path);
}

Result<std::unique_ptr<CheckpointManager>> AttachCheckpoint(
    FairnessProblem& problem, const CheckpointOptions& options,
    const std::string& algorithm) {
  if ((options.path.empty() && options.resume_from.empty()) ||
      problem.checkpoint() != nullptr) {
    return std::unique_ptr<CheckpointManager>();
  }
  Result<std::unique_ptr<CheckpointManager>> manager =
      CheckpointManager::Create(options, algorithm, problem.encoder());
  if (!manager.ok()) return manager.status();
  if ((*manager)->consumed_seconds() > 0.0) {
    if (problem.budget() != nullptr) {
      problem.budget()->RestoreConsumed((*manager)->consumed_seconds());
    }
    problem.SetTuneSecondsBase((*manager)->consumed_seconds());
  }
  problem.SetCheckpoint(manager->get());
  return manager;
}

void FinishCheckpoint(FairnessProblem& problem, CheckpointManager* checkpoint) {
  if (checkpoint == nullptr) return;
  checkpoint->MaybeWrite(/*force=*/true);
  problem.SetCheckpoint(nullptr);
  problem.SetTuneSecondsBase(0.0);
}

}  // namespace omnifair
