// Chaos suite for the durability layer (DESIGN.md §12): snapshot codec and
// container guarantees, fault-injected IO (short writes, ENOSPC, bit flips),
// and crash/resume bit-identity across all three tuners.

#include "core/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/grid_search.h"
#include "core/lambda_tuner.h"
#include "core/omnifair.h"
#include "ml/bundle.h"
#include "ml/logistic_regression.h"
#include "tests/testing_fairness.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/snapshot_io.h"
#include "util/telemetry.h"
#include "util/train_budget.h"

namespace omnifair {
namespace {

using testing_fairness::MakeBiasedDataset;

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

long long CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Reset(); }
  void TearDown() override { FaultInjector::Reset(); }
};

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, Crc32MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
  // Incremental use over two chunks matches the one-shot value.
  const uint32_t partial = Crc32(data, 4);
  EXPECT_EQ(Crc32(data + 4, 5, partial), 0xCBF43926u);
}

/// `size` bytes from a seeded Rng.
std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(size);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST_F(CheckpointTest, Crc32FoldMatchesTableAtEveryLengthAndOffset) {
  // Crc32 folds the bulk of its input by carry-less multiplication where the
  // CPU has it; the slice-by-8 table is the reference. Lengths cross every
  // fold boundary (16, 64 bytes) at every alignment, from several seeds.
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const uint8_t* data = bytes.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(length * 2654435761u);
      ASSERT_EQ(Crc32(data, length), internal_crc::Crc32Table(data, length))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32(data, length, seed),
                internal_crc::Crc32Table(data, length, seed))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST_F(CheckpointTest, Crc32FoldMatchesTableOnMegabyteBuffers) {
  for (const size_t size : {size_t{1} << 20, (size_t{3} << 20) + 13,
                            (size_t{5} << 20) + 7}) {
    const std::vector<uint8_t> bytes = RandomBytes(size, size);
    EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
              internal_crc::Crc32Table(bytes.data(), bytes.size()))
        << size << " bytes";
  }
}

TEST_F(CheckpointTest, Crc32ChainsThroughTheSeedAtAnySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(70000, 11);
  const uint32_t whole = internal_crc::Crc32Table(bytes.data(), bytes.size());
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), whole);
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    // Two random cut points; the three pieces are chained through `crc`.
    size_t a = rng.NextBounded(bytes.size() + 1);
    size_t b = rng.NextBounded(bytes.size() + 1);
    if (a > b) std::swap(a, b);
    uint32_t crc = Crc32(bytes.data(), a);
    crc = Crc32(bytes.data() + a, b - a, crc);
    crc = Crc32(bytes.data() + b, bytes.size() - b, crc);
    ASSERT_EQ(crc, whole) << "cuts at " << a << " and " << b;
  }
}

TEST_F(CheckpointTest, CodecRoundTripsEveryType) {
  BinaryWriter writer;
  writer.U8(0xAB);
  writer.U32(0xDEADBEEFu);
  writer.U64(0x0123456789ABCDEFull);
  writer.I32(-42);
  writer.I64(-1234567890123ll);
  writer.F64(0.1);    // not exactly representable; must round-trip bit-exact
  writer.F64(-0.0);   // signed zero survives (raw bits, not text)
  writer.String("omnifair");
  writer.String("");
  writer.F64Vector({1.5, -2.25, 3.0e-17});
  writer.Bytes({0x00, 0xFF, 0x7F});

  BinaryReader reader(writer.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f1 = 0.0, f2 = 1.0;
  std::string s1, s2;
  std::vector<double> doubles;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(reader.U8(&u8));
  ASSERT_TRUE(reader.U32(&u32));
  ASSERT_TRUE(reader.U64(&u64));
  ASSERT_TRUE(reader.I32(&i32));
  ASSERT_TRUE(reader.I64(&i64));
  ASSERT_TRUE(reader.F64(&f1));
  ASSERT_TRUE(reader.F64(&f2));
  ASSERT_TRUE(reader.String(&s1));
  ASSERT_TRUE(reader.String(&s2));
  ASSERT_TRUE(reader.F64Vector(&doubles));
  ASSERT_TRUE(reader.Bytes(&bytes));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(reader.status().ok());

  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f1, 0.1);
  EXPECT_EQ(f2, 0.0);
  EXPECT_TRUE(std::signbit(f2));
  EXPECT_EQ(s1, "omnifair");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.25, 3.0e-17}));
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0x00, 0xFF, 0x7F}));
}

TEST_F(CheckpointTest, ReaderFailsTypedAtEveryTruncationPoint) {
  BinaryWriter writer;
  writer.U32(7);
  writer.String("abc");
  writer.F64Vector({1.0, 2.0});
  writer.Bytes({9, 8, 7});
  const std::vector<uint8_t>& full = writer.buffer();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader reader(full.data(), cut);
    uint32_t u32 = 0;
    std::string s;
    std::vector<double> v;
    std::vector<uint8_t> b;
    // Some prefix of the reads must fail; none may crash or read past `cut`.
    const bool all_ok = reader.U32(&u32) && reader.String(&s) &&
                        reader.F64Vector(&v) && reader.Bytes(&b);
    EXPECT_FALSE(all_ok) << "cut at " << cut;
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss) << "cut at " << cut;
    // Fail-fast: once broken, every further read refuses.
    uint8_t u8 = 0;
    EXPECT_FALSE(reader.U8(&u8));
  }
}

TEST_F(CheckpointTest, ReaderRejectsImplausibleLengthPrefix) {
  BinaryWriter writer;
  writer.U64(1ull << 60);  // claims ~10^18 doubles in a 8-byte buffer
  BinaryReader reader(writer.buffer());
  std::vector<double> v;
  EXPECT_FALSE(reader.F64Vector(&v));
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

Snapshot MakeTestSnapshot() {
  Snapshot snapshot;
  snapshot.version = 3;
  snapshot.flags = 0x11;
  BinaryWriter a;
  a.String("hello");
  snapshot.sections.push_back({"meta", a.TakeBuffer()});
  BinaryWriter b;
  b.F64Vector({0.25, -1.5});
  snapshot.sections.push_back({"fits", b.TakeBuffer()});
  return snapshot;
}

TEST_F(CheckpointTest, SnapshotFileRoundTrips) {
  const std::string path = TempPath("snap_roundtrip.bin");
  ASSERT_TRUE(WriteSnapshotFile(path, MakeTestSnapshot()).ok());

  Result<Snapshot> loaded = ReadSnapshotFile(path, /*max_version=*/3);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->version, 3u);
  EXPECT_EQ(loaded->flags, 0x11u);
  ASSERT_EQ(loaded->sections.size(), 2u);
  EXPECT_EQ(loaded->sections[0].name, "meta");
  EXPECT_EQ(loaded->sections[1].name, "fits");
  ASSERT_NE(loaded->Find("fits"), nullptr);
  BinaryReader reader(loaded->Find("fits")->payload);
  std::vector<double> values;
  ASSERT_TRUE(reader.F64Vector(&values));
  EXPECT_EQ(values, (std::vector<double>{0.25, -1.5}));
  // No stale temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(CheckpointTest, SnapshotRejectsForeignFutureAndTruncated) {
  const std::string foreign = TempPath("snap_foreign.bin");
  {
    std::ofstream out(foreign, std::ios::binary);
    out << "definitely not a snapshot, but comfortably longer than a header";
  }
  Result<Snapshot> r1 = ReadSnapshotFile(foreign, 1);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  const std::string future = TempPath("snap_future.bin");
  ASSERT_TRUE(WriteSnapshotFile(future, MakeTestSnapshot()).ok());
  Result<Snapshot> r2 = ReadSnapshotFile(future, /*max_version=*/2);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  Result<Snapshot> r3 = ReadSnapshotFile(TempPath("snap_missing.bin"), 3);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);  // ENOENT

  // Every possible truncation of a valid file is typed, never UB.
  std::ifstream in(future, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::string cut_path = TempPath("snap_cut.bin");
  for (size_t cut = 0; cut < bytes.size(); cut += 3) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    Result<Snapshot> r = ReadSnapshotFile(cut_path, 3);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
  }
}

TEST_F(CheckpointTest, SnapshotDetectsEveryBitFlip) {
  const std::string path = TempPath("snap_flip.bin");
  ASSERT_TRUE(WriteSnapshotFile(path, MakeTestSnapshot()).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  for (size_t i = 0; i < bytes.size(); i += 5) {
    std::vector<char> damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    Result<Snapshot> r = ReadSnapshotFile(path, 3);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i;
  }
}

TEST_F(CheckpointTest, CorruptReadFaultSiteTripsCrc) {
  const std::string path = TempPath("snap_fault_flip.bin");
  ASSERT_TRUE(WriteSnapshotFile(path, MakeTestSnapshot()).ok());
  FaultInjector::Arm(fault_sites::kIoCorruptRead);
  Result<Snapshot> r = ReadSnapshotFile(path, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Disarmed after firing: the same file reads clean.
  EXPECT_TRUE(ReadSnapshotFile(path, 3).ok());
}

TEST_F(CheckpointTest, ShortWriteIsRetriedToSuccess) {
  const std::string path = TempPath("snap_short_write.bin");
  FaultInjector::Arm(fault_sites::kIoShortWrite);
  ASSERT_TRUE(WriteSnapshotFile(path, MakeTestSnapshot()).ok());
  EXPECT_GE(FaultInjector::CallCount(fault_sites::kIoShortWrite), 1);
  EXPECT_TRUE(ReadSnapshotFile(path, 3).ok());
}

TEST_F(CheckpointTest, EnospcIsTypedAndNotRetriedForever) {
  const std::string path = TempPath("snap_enospc.bin");
  FaultInjector::Arm(fault_sites::kIoEnospc, 1, /*repeat=*/true);
  const Status status = WriteSnapshotFile(path, MakeTestSnapshot());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);  // ENOSPC errno class
  // A permanent error must not spin through the whole retry budget.
  EXPECT_EQ(FaultInjector::CallCount(fault_sites::kIoEnospc), 1);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());  // nothing durable claimed
}

TEST_F(CheckpointTest, RetryIoGivesUpAfterBoundedAttempts) {
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 0.0;
  int calls = 0;
  const Status status = RetryIo(retry, [&]() {
    ++calls;
    return Status::Unavailable("still flaky");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  calls = 0;
  EXPECT_TRUE(RetryIo(retry, [&]() {
                ++calls;
                return calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
              }).ok());
  EXPECT_EQ(calls, 3);
}

// ---------------------------------------------------------------------------
// Crash/resume bit-identity
// ---------------------------------------------------------------------------

std::unique_ptr<FairnessProblem> MakeProblem(const Dataset& train,
                                             const Dataset& val,
                                             const std::string& metric,
                                             double epsilon, Trainer* trainer) {
  auto problem = FairnessProblem::Create(
      train, val, {MakeSpec(GroupByAttribute("grp"), metric, epsilon)}, trainer);
  EXPECT_TRUE(problem.ok()) << problem.status();
  return std::move(*problem);
}

/// The model's bundle image (the codec checkpoint records carry): equal
/// bytes mean equal parameters, bit for bit.
std::vector<uint8_t> ModelBytes(const Classifier& model) {
  Result<std::vector<uint8_t>> bytes =
      EncodeBundle(model, FeatureEncoder(), BundleMeta{});
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::vector<uint8_t>();
}

/// Everything but wall-clock seconds must match between an uninterrupted run
/// and a crash+resume run (no two processes share a clock).
void ExpectReportsIdentical(const TuneReport& expected, const TuneReport& actual) {
  ASSERT_EQ(expected.points.size(), actual.points.size());
  EXPECT_EQ(expected.epsilons, actual.epsilons);
  for (size_t i = 0; i < expected.points.size(); ++i) {
    const TunePoint& e = expected.points[i];
    const TunePoint& a = actual.points[i];
    EXPECT_EQ(e.lambdas, a.lambdas) << "point " << i;
    EXPECT_EQ(e.stage, a.stage) << "point " << i;
    EXPECT_EQ(e.fit_ok, a.fit_ok) << "point " << i;
    EXPECT_EQ(e.models_trained, a.models_trained) << "point " << i;
    EXPECT_EQ(e.evaluated, a.evaluated) << "point " << i;
    EXPECT_EQ(e.val_accuracy, a.val_accuracy) << "point " << i;
    EXPECT_EQ(e.val_fairness_parts, a.val_fairness_parts) << "point " << i;
  }
}

TEST_F(CheckpointTest, LambdaTunerResumesBitIdentical) {
  const Dataset data = MakeBiasedDataset(1200, 0.7, 0.25, 11);

  // Uninterrupted baseline.
  TuneReport baseline_report;
  TuneResult baseline;
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "sp", 0.03, &trainer);
    problem->StartTuneReport(&baseline_report);
    baseline = LambdaTuner().TuneSingle(*problem);
  }
  ASSERT_NE(baseline.model, nullptr);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status;
  const std::vector<uint8_t> baseline_bytes = ModelBytes(*baseline.model);

  // Same search, killed by a simulated crash after the 3rd checkpoint write.
  const std::string path = TempPath("lambda_resume.ckpt");
  TuneOptions options;
  options.checkpoint.path = path;
  size_t fits_before_crash = 0;
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "sp", 0.03, &trainer);
    FaultInjector::Arm(fault_sites::kCheckpointCrashAfterWrite, 3);
    TuneResult crashed = LambdaTuner(options).TuneSingle(*problem);
    FaultInjector::Reset();
    EXPECT_EQ(crashed.status.code(), StatusCode::kUnavailable);
    ASSERT_NE(crashed.model, nullptr);  // best-effort model survives the cut
    fits_before_crash = static_cast<size_t>(problem->models_trained());
    EXPECT_LT(fits_before_crash,
              static_cast<size_t>(baseline.models_trained));
  }

  // Resume: replay the log, finish live, land on the identical result.
  const long long resumes_before = CounterValue("checkpoint.resumes");
  const long long replays_before = CounterValue("checkpoint.replayed_fits");
  options.checkpoint.resume_from = path;
  TuneReport resumed_report;
  TuneResult resumed;
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "sp", 0.03, &trainer);
    problem->StartTuneReport(&resumed_report);
    resumed = LambdaTuner(options).TuneSingle(*problem);
  }
  ASSERT_TRUE(resumed.status.ok()) << resumed.status;
  ASSERT_NE(resumed.model, nullptr);
  EXPECT_EQ(ModelBytes(*resumed.model), baseline_bytes);
  EXPECT_EQ(resumed.lambda, baseline.lambda);
  EXPECT_EQ(resumed.satisfied, baseline.satisfied);
  EXPECT_EQ(resumed.val_accuracy, baseline.val_accuracy);
  EXPECT_EQ(resumed.val_fairness_parts, baseline.val_fairness_parts);
  EXPECT_EQ(resumed.models_trained, baseline.models_trained);
  ExpectReportsIdentical(baseline_report, resumed_report);
  // The resumed run continues the original run's tune clock: this serial
  // search's concatenated trajectory stays monotone in seconds.
  for (size_t i = 1; i < resumed_report.points.size(); ++i) {
    EXPECT_GE(resumed_report.points[i].seconds,
              resumed_report.points[i - 1].seconds);
  }
  EXPECT_EQ(CounterValue("checkpoint.resumes"), resumes_before + 1);
  // The crashed run may have one fit in flight past the last write (charged
  // but unrecorded), so the replay count is bounded by fits_before_crash.
  const long long replayed = CounterValue("checkpoint.replayed_fits") - replays_before;
  EXPECT_GE(replayed, 1);
  EXPECT_LE(replayed, static_cast<long long>(fits_before_crash));
}

TEST_F(CheckpointTest, ParallelLinearSearchResumesBitIdentical) {
  // FDR is prediction-parameterized: the linear-search stage runs its two
  // direction probes concurrently, recording at pair barriers.
  const Dataset data = MakeBiasedDataset(1200, 0.7, 0.3, 12);

  TuneReport baseline_report;
  TuneResult baseline;
  TuneOptions base_options;
  base_options.num_threads = 2;
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "fdr", 0.02, &trainer);
    problem->StartTuneReport(&baseline_report);
    baseline = LambdaTuner(base_options).TuneSingle(*problem);
  }
  ASSERT_NE(baseline.model, nullptr);
  const std::vector<uint8_t> baseline_bytes = ModelBytes(*baseline.model);

  const std::string path = TempPath("lambda_parallel_resume.ckpt");
  TuneOptions options = base_options;
  options.checkpoint.path = path;
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "fdr", 0.02, &trainer);
    FaultInjector::Arm(fault_sites::kCheckpointCrashAfterWrite, 2);
    TuneResult crashed = LambdaTuner(options).TuneSingle(*problem);
    FaultInjector::Reset();
    EXPECT_EQ(crashed.status.code(), StatusCode::kUnavailable);
  }

  options.checkpoint.resume_from = path;
  TuneReport resumed_report;
  TuneResult resumed;
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "fdr", 0.02, &trainer);
    problem->StartTuneReport(&resumed_report);
    resumed = LambdaTuner(options).TuneSingle(*problem);
  }
  ASSERT_TRUE(resumed.status.ok()) << resumed.status;
  ASSERT_NE(resumed.model, nullptr);
  EXPECT_EQ(ModelBytes(*resumed.model), baseline_bytes);
  EXPECT_EQ(resumed.lambda, baseline.lambda);
  EXPECT_EQ(resumed.val_accuracy, baseline.val_accuracy);
  ExpectReportsIdentical(baseline_report, resumed_report);
}

TEST_F(CheckpointTest, HillClimbResumesBitIdenticalThroughOmniFair) {
  const Dataset train = MakeBiasedDataset(1100, 0.75, 0.25, 13);
  const Dataset val = MakeBiasedDataset(500, 0.75, 0.25, 131);
  // Two specs -> multiple induced constraints -> HillClimber.
  const std::vector<FairnessSpec> specs = {
      MakeSpec(GroupByAttribute("grp"), "sp", 0.04),
      MakeSpec(GroupByAttribute("grp"), "fpr", 0.06)};

  Result<FairModel> baseline = [&] {
    LogisticRegressionTrainer trainer;
    return OmniFair().Train(train, val, &trainer, specs);
  }();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::vector<uint8_t> baseline_bytes = ModelBytes(*baseline->model);

  const std::string path = TempPath("hill_climb_resume.ckpt");
  OmniFairOptions options;
  options.checkpoint.path = path;
  {
    LogisticRegressionTrainer trainer;
    FaultInjector::Arm(fault_sites::kCheckpointCrashAfterWrite, 4);
    Result<FairModel> crashed = OmniFair(options).Train(train, val, &trainer, specs);
    FaultInjector::Reset();
    ASSERT_TRUE(crashed.ok()) << crashed.status();
    EXPECT_EQ(crashed->outcome.code(), StatusCode::kUnavailable);
  }

  options.checkpoint.resume_from = path;
  Result<FairModel> resumed = [&] {
    LogisticRegressionTrainer trainer;
    return OmniFair(options).Train(train, val, &trainer, specs);
  }();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->outcome.ok()) << resumed->outcome;
  EXPECT_EQ(ModelBytes(*resumed->model), baseline_bytes);
  EXPECT_EQ(resumed->lambdas, baseline->lambdas);
  EXPECT_EQ(resumed->satisfied, baseline->satisfied);
  EXPECT_EQ(resumed->val_accuracy, baseline->val_accuracy);
  EXPECT_EQ(resumed->val_fairness_parts, baseline->val_fairness_parts);
  EXPECT_EQ(resumed->models_trained, baseline->models_trained);
  ExpectReportsIdentical(baseline->tune_report, resumed->tune_report);
}

TEST_F(CheckpointTest, GridSearchResumesBitIdenticalSerialAndParallel) {
  const Dataset data = MakeBiasedDataset(900, 0.7, 0.3, 14);
  const std::vector<FairnessSpec> specs = {
      MakeSpec(GroupByAttribute("grp"), "sp", 0.05),
      MakeSpec(GroupByAttribute("grp"), "fpr", 0.08)};
  auto make_problem = [&](Trainer* trainer) {
    auto problem = FairnessProblem::Create(data, data, specs, trainer);
    EXPECT_TRUE(problem.ok()) << problem.status();
    return std::move(*problem);
  };

  GridSearchOptions base_options;
  base_options.max_lambda = 0.6;
  base_options.points_per_dim = 4;  // 16 points + the base fit

  TuneReport baseline_report;
  MultiTuneResult baseline;
  {
    LogisticRegressionTrainer trainer;
    auto problem = make_problem(&trainer);
    problem->StartTuneReport(&baseline_report);
    baseline = GridSearchTuner(base_options).Run(*problem);
  }
  ASSERT_NE(baseline.model, nullptr);
  const std::vector<uint8_t> baseline_bytes = ModelBytes(*baseline.model);

  for (const int resume_threads : {1, 4}) {
    SCOPED_TRACE("resume_threads=" + std::to_string(resume_threads));
    const std::string path = TempPath(
        "grid_resume_" + std::to_string(resume_threads) + ".ckpt");
    GridSearchOptions options = base_options;
    options.num_threads = 4;
    options.checkpoint.path = path;
    {
      LogisticRegressionTrainer trainer;
      auto problem = make_problem(&trainer);
      FaultInjector::Arm(fault_sites::kCheckpointCrashAfterWrite, 1);
      MultiTuneResult crashed = GridSearchTuner(options).Run(*problem);
      FaultInjector::Reset();
      EXPECT_EQ(crashed.status.code(), StatusCode::kUnavailable);
      ASSERT_NE(crashed.model, nullptr);
    }

    // Resuming with a different thread count must not change the result.
    options.num_threads = resume_threads;
    options.checkpoint.resume_from = path;
    TuneReport resumed_report;
    MultiTuneResult resumed;
    {
      LogisticRegressionTrainer trainer;
      auto problem = make_problem(&trainer);
      problem->StartTuneReport(&resumed_report);
      resumed = GridSearchTuner(options).Run(*problem);
    }
    ASSERT_TRUE(resumed.status.ok()) << resumed.status;
    ASSERT_NE(resumed.model, nullptr);
    EXPECT_EQ(ModelBytes(*resumed.model), baseline_bytes);
    EXPECT_EQ(resumed.lambdas, baseline.lambdas);
    EXPECT_EQ(resumed.satisfied, baseline.satisfied);
    EXPECT_EQ(resumed.val_accuracy, baseline.val_accuracy);
    EXPECT_EQ(resumed.val_fairness_parts, baseline.val_fairness_parts);
    EXPECT_EQ(resumed.models_trained, baseline.models_trained);
    ExpectReportsIdentical(baseline_report, resumed_report);
  }
}

// ---------------------------------------------------------------------------
// Resume validation and degraded modes
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ResumeWithWrongTunerIsRejected) {
  const Dataset data = MakeBiasedDataset(600, 0.7, 0.3, 15);
  const std::string path = TempPath("wrong_tuner.ckpt");
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "sp", 0.05, &trainer);
    TuneOptions options;
    options.checkpoint.path = path;
    ASSERT_TRUE(LambdaTuner(options).TuneSingle(*problem).status.ok());
  }
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(data, data, "sp", 0.05, &trainer);
  GridSearchOptions grid_options;
  grid_options.checkpoint.resume_from = path;
  MultiTuneResult result = GridSearchTuner(grid_options).Run(*problem);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status.message().find("lambda_tuner"), std::string::npos)
      << result.status;
}

TEST_F(CheckpointTest, VersionOneCheckpointIsRejectedBeforeAnyFit) {
  // Version 1 records held the retired binary model codec; resuming one
  // must fail typed up front, not replay bytes the decoder cannot read.
  const std::string path = TempPath("version1.ckpt");
  Snapshot snapshot;
  snapshot.version = 1;
  BinaryWriter meta;
  meta.String("lambda_tuner");
  meta.U64(0);
  snapshot.sections.push_back({"meta", meta.TakeBuffer()});
  snapshot.sections.push_back({"fits", {}});
  ASSERT_TRUE(WriteSnapshotFile(path, snapshot).ok());

  CheckpointOptions options;
  options.resume_from = path;
  Result<std::unique_ptr<CheckpointManager>> manager =
      CheckpointManager::Create(options, "lambda_tuner", FeatureEncoder());
  ASSERT_FALSE(manager.ok());
  EXPECT_EQ(manager.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(manager.status().message().find("version 1"), std::string::npos)
      << manager.status();

  const Dataset data = MakeBiasedDataset(300, 0.7, 0.3, 14);
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(data, data, "sp", 0.05, &trainer);
  TuneOptions tune;
  tune.checkpoint.resume_from = path;
  TuneResult result = LambdaTuner(tune).TuneSingle(*problem);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(problem->models_trained(), 0);
}

TEST_F(CheckpointTest, ResumeWithChangedOptionsDivergesTyped) {
  const Dataset data = MakeBiasedDataset(700, 0.7, 0.3, 16);
  const std::vector<FairnessSpec> specs = {
      MakeSpec(GroupByAttribute("grp"), "sp", 0.05),
      MakeSpec(GroupByAttribute("grp"), "fpr", 0.08)};
  const std::string path = TempPath("diverged_options.ckpt");
  GridSearchOptions options;
  options.max_lambda = 0.6;
  options.points_per_dim = 4;
  options.checkpoint.path = path;
  {
    LogisticRegressionTrainer trainer;
    auto problem = FairnessProblem::Create(data, data, specs, &trainer);
    ASSERT_TRUE(problem.ok());
    ASSERT_TRUE(GridSearchTuner(options).Run(**problem).status.ok());
  }
  // A different grid means different lambdas at replay index 1.
  options.max_lambda = 0.9;
  options.checkpoint.resume_from = path;
  LogisticRegressionTrainer trainer;
  auto problem = FairnessProblem::Create(data, data, specs, &trainer);
  ASSERT_TRUE(problem.ok());
  MultiTuneResult result = GridSearchTuner(options).Run(**problem);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status.message().find("diverged"), std::string::npos)
      << result.status;
}

TEST_F(CheckpointTest, CorruptCheckpointResumeIsTypedDataLoss) {
  const Dataset data = MakeBiasedDataset(600, 0.7, 0.3, 17);
  const std::string path = TempPath("corrupt_resume.ckpt");
  {
    LogisticRegressionTrainer trainer;
    auto problem = MakeProblem(data, data, "sp", 0.05, &trainer);
    TuneOptions options;
    options.checkpoint.path = path;
    ASSERT_TRUE(LambdaTuner(options).TuneSingle(*problem).status.ok());
  }
  // Flip one byte somewhere in the middle of the file.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x08);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const long long corrupt_before = CounterValue("checkpoint.corrupt_detected");
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(data, data, "sp", 0.05, &trainer);
  TuneOptions options;
  options.checkpoint.resume_from = path;
  TuneResult result = LambdaTuner(options).TuneSingle(*problem);
  EXPECT_EQ(result.status.code(), StatusCode::kDataLoss) << result.status;
  EXPECT_EQ(result.model, nullptr);
  EXPECT_EQ(CounterValue("checkpoint.corrupt_detected"), corrupt_before + 1);
}

TEST_F(CheckpointTest, FullDiskDegradesButRunCompletes) {
  const Dataset data = MakeBiasedDataset(800, 0.7, 0.3, 18);
  LogisticRegressionTrainer trainer;
  auto problem = MakeProblem(data, data, "sp", 0.04, &trainer);
  TuneOptions options;
  options.checkpoint.path = TempPath("enospc_run.ckpt");

  const long long failures_before = CounterValue("checkpoint.write_failures");
  FaultInjector::Arm(fault_sites::kIoEnospc, 1, /*repeat=*/true);
  TuneResult result = LambdaTuner(options).TuneSingle(*problem);
  FaultInjector::Reset();

  // The run itself finishes: losing resumability must not lose the model.
  EXPECT_TRUE(result.status.ok()) << result.status;
  ASSERT_NE(result.model, nullptr);
  EXPECT_GT(CounterValue("checkpoint.write_failures"), failures_before);
}

TEST_F(CheckpointTest, CheckpointingKeepsWarmStartRejected) {
  const Dataset data = MakeBiasedDataset(400, 0.7, 0.3, 19);
  LogisticRegressionTrainer trainer;
  OmniFairOptions options;
  options.warm_start = true;
  options.checkpoint.path = TempPath("warm_start.ckpt");
  Result<FairModel> fair = OmniFair(options).Train(
      data, data, &trainer, {MakeSpec(GroupByAttribute("grp"), "sp", 0.05)});
  ASSERT_FALSE(fair.ok());
  EXPECT_EQ(fair.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Budget interaction
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, RestoreConsumedContinuesDeadline) {
  TrainBudgetOptions options;
  options.deadline_seconds = 100.0;
  TrainBudget budget(options);
  EXPECT_FALSE(budget.Expired());
  budget.RestoreConsumed(99.5);
  EXPECT_FALSE(budget.Expired());
  FaultInjector::AdvanceClock(1.0);  // virtual clock: no sleeping
  EXPECT_TRUE(budget.Expired());
  EXPECT_EQ(budget.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CheckpointTest, ResumedRunHonorsRemainingModelCap) {
  const Dataset data = MakeBiasedDataset(900, 0.75, 0.25, 20);
  const FairnessSpec spec = MakeSpec(GroupByAttribute("grp"), "sp", 0.01);

  // Baseline: the cap cuts the search short; best-effort model returned.
  OmniFairOptions base_options;
  base_options.budget.max_models = 6;
  Result<FairModel> baseline = [&] {
    LogisticRegressionTrainer trainer;
    return OmniFair(base_options).Train(data, data, &trainer, {spec});
  }();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_EQ(baseline->outcome.code(), StatusCode::kDeadlineExceeded);

  // Crash partway through the same budgeted run, then resume. Replayed fits
  // charge the fresh process's budget, so the cap binds at the same total.
  const std::string path = TempPath("budget_resume.ckpt");
  OmniFairOptions options = base_options;
  options.checkpoint.path = path;
  {
    LogisticRegressionTrainer trainer;
    FaultInjector::Arm(fault_sites::kCheckpointCrashAfterWrite, 2);
    Result<FairModel> crashed =
        OmniFair(options).Train(data, data, &trainer, {spec});
    FaultInjector::Reset();
    ASSERT_TRUE(crashed.ok()) << crashed.status();
    EXPECT_EQ(crashed->outcome.code(), StatusCode::kUnavailable);
    EXPECT_LT(crashed->models_trained, baseline->models_trained);
  }
  options.checkpoint.resume_from = path;
  Result<FairModel> resumed = [&] {
    LogisticRegressionTrainer trainer;
    return OmniFair(options).Train(data, data, &trainer, {spec});
  }();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->outcome.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resumed->models_trained, baseline->models_trained);
  EXPECT_EQ(ModelBytes(*resumed->model), ModelBytes(*baseline->model));
  EXPECT_EQ(resumed->lambdas, baseline->lambdas);
}

}  // namespace
}  // namespace omnifair
