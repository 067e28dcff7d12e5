// Out-of-core ingest + mini-batch SGD benchmark (DESIGN.md §16). Two
// sections:
//
//   ingest_throughput - stream a synthetic adult CSV through
//                       StreamCsvToChunked (parallel block parse + float32
//                       encode + CRC-verified spill) vs. the seed path
//                       (single-threaded ReadCsv + FeatureEncoder
//                       FitTransform). The acceptance bar is >=3x at 1M rows
//                       (OMNIFAIR_BENCH_ROWS=1000000).
//   lambda_tune       - Algorithm 1 for SP on the same data: out-of-core
//                       StreamTuneLambda (weighted mini-batch SGD over
//                       spilled blocks) vs. the in-memory full-batch tuner.
//
// Both sections report peak RSS so the out-of-core memory claim is visible
// in the JSON trail. Each tune runs in a process of its own (this program
// re-executed as `bench_ingest --tune full` or `--tune mini OFCD`), so its
// peak is its own high-water mark and not the one the ingest left behind.
//
// Knobs: OMNIFAIR_BENCH_ROWS (dataset size, default 200000).

#include "bench/bench_common.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/stream_tune.h"
#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "data/encoder.h"
#include "data/stream_reader.h"

namespace omnifair {
namespace bench {
namespace {

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ScratchPath(const std::string& name) {
  const std::filesystem::path dir(BenchReporter::OutputDirectory());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return (dir / name).string();
}

/// What one tune process reports on its single stdout line.
struct TuneOutcome {
  double seconds = 0.0;
  double accuracy = 0.0;
  bool satisfied = false;
  int models = 0;
  double peak_rss_mb = 0.0;
};

/// Runs one tune in this process and prints its TuneOutcome line: "full" is
/// the in-memory Algorithm 1 with the default LR trainer on the paper's
/// 60/20/20 split of the same synthetic adult data, "mini" the streamed
/// mini-batch tune over the chunked file at `ofcd_path`.
int RunTuneChild(const std::string& kind, const std::string& ofcd_path) {
  const FairnessSpec spec =
      MakeSpec(MainGroups("adult"), MetricKind::kStatisticalParity, 0.03);
  TuneOutcome outcome;
  if (kind == "full") {
    const Dataset dataset = MakeBenchDataset("adult", /*seed=*/42);
    const TrainValTestSplit split = SplitDefault(dataset, /*seed=*/42);
    Stopwatch watch;
    auto trainer = MakeTrainer("lr", /*seed=*/42);
    OmniFairOptions options;
    options.warm_start = false;
    Result<FairModel> full =
        OmniFair(options).Train(split.train, split.val, trainer.get(), {spec});
    OF_CHECK(full.ok()) << full.status();
    outcome.seconds = watch.ElapsedSeconds();
    outcome.accuracy = full->val_accuracy;
    outcome.satisfied = full->satisfied;
    outcome.models = full->models_trained;
  } else {
    OF_CHECK(kind == "mini") << "unknown tune kind " << kind;
    Result<ChunkedDataset> chunked = ChunkedDataset::Open(ofcd_path);
    OF_CHECK(chunked.ok()) << chunked.status();
    StreamTuneOptions tune;
    tune.metric = MetricKind::kStatisticalParity;
    tune.epsilon = 0.03;
    tune.batch_size = 4096;
    tune.epochs = 3;
    tune.lr_schedule = LrSchedule::kInvSqrt;
    Stopwatch watch;
    Result<StreamTuneResult> mini = StreamTuneLambda(*chunked, tune);
    OF_CHECK(mini.ok()) << mini.status();
    outcome.seconds = watch.ElapsedSeconds();
    outcome.accuracy = mini->val_accuracy;
    outcome.satisfied = mini->satisfied;
    outcome.models = mini->models_trained;
  }
  std::printf("tune %.17g %.17g %d %d %.17g\n", outcome.seconds,
              outcome.accuracy, outcome.satisfied ? 1 : 0, outcome.models,
              PeakRssMb());
  return 0;
}

/// Re-executes this program as a tune child (no fork of this multithreaded
/// process: popen runs a shell that execs a fresh image) and parses its line.
TuneOutcome RunTuneProcess(const std::string& kind,
                           const std::string& ofcd_path) {
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe").string();
  std::string command = "'" + self + "' --tune " + kind;
  if (!ofcd_path.empty()) command += " '" + ofcd_path + "'";
  std::fflush(stdout);
  FILE* pipe = popen(command.c_str(), "r");
  OF_CHECK(pipe != nullptr) << "cannot run " << command;
  TuneOutcome outcome;
  int satisfied = 0;
  char line[512];
  bool parsed = false;
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    parsed = parsed ||
             std::sscanf(line, "tune %lf %lf %d %d %lf", &outcome.seconds,
                         &outcome.accuracy, &satisfied, &outcome.models,
                         &outcome.peak_rss_mb) == 5;
  }
  OF_CHECK(pclose(pipe) == 0 && parsed) << command << " failed";
  outcome.satisfied = satisfied != 0;
  return outcome;
}

void Run(BenchReporter& reporter) {
  const size_t rows = EnvRows(200000);
  // ~16 blocks at any size, so the streamed lambda-tune always has both
  // train and validation blocks (block i%5==4 is validation).
  const size_t block_rows = std::max<size_t>(64, rows / 16);
  reporter.Config("rows", rows);
  reporter.Config("block_rows", block_rows);

  PrintHeader("ingest throughput (adult, " + std::to_string(rows) + " rows)");

  // One synthetic adult dataset written as CSV: the shared input of both
  // the seed path and the streaming path.
  const Dataset dataset = MakeBenchDataset("adult", /*seed=*/42);
  const std::string csv_path = ScratchPath("bench_ingest.adult.csv");
  const std::string ofcd_path = ScratchPath("bench_ingest.adult.ofcd");
  OF_CHECK(WriteCsv(dataset, csv_path).ok());
  const double csv_mb =
      static_cast<double>(std::filesystem::file_size(csv_path)) / (1024.0 * 1024.0);

  // Seed path: single-threaded line parse + in-memory float32 encode.
  Stopwatch baseline_watch;
  CsvReadOptions read_options;
  read_options.label_column = dataset.label_name();
  Result<Dataset> reread = ReadCsv(csv_path, read_options);
  OF_CHECK(reread.ok()) << reread.status();
  FeatureEncoder baseline_encoder;
  EncoderOptions encoder_options;
  encoder_options.float32_features = true;
  const Matrix baseline_features =
      baseline_encoder.FitTransform(*reread, encoder_options);
  const double baseline_seconds = baseline_watch.ElapsedSeconds();

  // Streaming path: chunked read, parallel block parse, direct-to-float32
  // encode, CRC-verified spill.
  StreamIngestOptions ingest_options;
  ingest_options.label_column = dataset.label_name();
  ingest_options.group_column = "sex";
  ingest_options.block_rows = block_rows;
  Stopwatch stream_watch;
  Result<IngestStats> ingest =
      StreamCsvToChunked(csv_path, ofcd_path, ingest_options);
  OF_CHECK(ingest.ok()) << ingest.status();
  const double stream_seconds = stream_watch.ElapsedSeconds();
  const double spill_bytes =
      static_cast<double>(std::filesystem::file_size(ofcd_path));

  const double speedup =
      stream_seconds > 0.0 ? baseline_seconds / stream_seconds : 0.0;
  std::printf("csv: %.1f MiB, features: %zu\n", csv_mb,
              static_cast<size_t>(ingest->num_features));
  std::printf("%-22s %10.3fs  %12.0f rows/s\n", "readcsv+encode (seed)",
              baseline_seconds, rows / std::max(baseline_seconds, 1e-9));
  std::printf(
      "%-22s %10.3fs  %12.0f rows/s  (%zu blocks, parse %.3fs, spill %.3fs)\n",
      "stream ingest", stream_seconds, rows / std::max(stream_seconds, 1e-9),
      static_cast<size_t>(ingest->blocks), ingest->parse_seconds,
      ingest->spill_seconds);
  std::printf("ingest speedup: %.2fx\n", speedup);

  reporter.AddRow("ingest_throughput")
      .Label("dataset", "adult")
      .Value("rows", static_cast<double>(rows))
      .Value("csv_mb", csv_mb)
      .Value("baseline_seconds", baseline_seconds)
      .Value("stream_seconds", stream_seconds)
      .Value("speedup", speedup)
      .Value("stream_rows_per_second", rows / std::max(stream_seconds, 1e-9))
      .Value("spill_bytes", spill_bytes)
      .Value("peak_rss_mb", PeakRssMb());
  (void)baseline_features;  // keep the baseline's encode work observable

  PrintHeader("lambda tune: full-batch (in-memory) vs mini-batch (streamed)");

  const TuneOutcome full = RunTuneProcess("full", "");
  const TuneOutcome mini = RunTuneProcess("mini", ofcd_path);

  const double tune_speedup =
      mini.seconds > 0.0 ? full.seconds / mini.seconds : 0.0;
  for (const auto& [name, tune] :
       {std::pair{"full-batch (memory)", full},
        std::pair{"mini-batch (streamed)", mini}}) {
    std::printf("%-22s %10.3fs  acc %.4f  satisfied %s  (%d fits)  "
                "peak rss %.1f MiB\n",
                name, tune.seconds, tune.accuracy,
                tune.satisfied ? "yes" : "no", tune.models, tune.peak_rss_mb);
  }
  std::printf("tune speedup: %.2fx\n", tune_speedup);

  reporter.AddRow("lambda_tune")
      .Label("dataset", "adult")
      .Label("metric", "sp")
      .Value("rows", static_cast<double>(rows))
      .Value("full_batch_seconds", full.seconds)
      .Value("minibatch_seconds", mini.seconds)
      .Value("speedup", tune_speedup)
      .Value("full_batch_accuracy", full.accuracy)
      .Value("minibatch_accuracy", mini.accuracy)
      .Value("full_batch_satisfied", full.satisfied ? 1.0 : 0.0)
      .Value("minibatch_satisfied", mini.satisfied ? 1.0 : 0.0)
      .Value("minibatch_models", mini.models)
      .Value("full_batch_peak_rss_mb", full.peak_rss_mb)
      .Value("minibatch_peak_rss_mb", mini.peak_rss_mb);

  // The scratch CSV can be large (100+ MiB at 1M rows); clean it up but keep
  // the chunked file, which later runs can reuse via omnifair_cli --stream.
  std::error_code ec;
  std::filesystem::remove(csv_path, ec);
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--tune") == 0) {
    return omnifair::bench::RunTuneChild(argv[2], argc >= 4 ? argv[3] : "");
  }
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "ingest", "Out-of-core streaming ingest and mini-batch lambda tuning");
  omnifair::bench::Run(reporter);
  return omnifair::bench::FinishBench(reporter);
}
