// Durability-layer overhead (DESIGN.md §12). Checkpointing a tuning run
// encodes every fitted model as a bundle image and snapshots the replay log
// to disk at record barriers. Two policies are timed against a plain run: interval 0
// (fsync at every barrier, the worst case — dominated by fsync latency on
// tiny fits) and the production 5s throttle, which must stay under 2%
// overhead. Also measures resume: replaying a completed log is pure
// decoding and should beat retraining by orders of magnitude.

#include "bench/bench_common.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

namespace omnifair {
namespace bench {
namespace {

/// Returns false when a checkpointed run failed to write its snapshot or
/// the resume of a finished checkpoint failed: the table would then show
/// zero bytes and a zero-second resume instead of a measurement.
bool Run(BenchReporter& reporter) {
  const int seeds = EnvSeeds(3);
  reporter.Config("seeds", seeds);
  reporter.Config("metric", "sp");
  reporter.Config("epsilon", 0.03);
  PrintHeader("Checkpoint overhead under LR (SP epsilon = 0.03)");
  std::printf("%-10s %-8s %6s %10s %11s %9s %11s %9s %11s %11s %11s\n",
              "dataset", "trainer", "fits", "plain (s)", "ckpt@0 (s)",
              "overhead", "ckpt@5s (s)", "overhead", "resume (s)", "ckpt@0 B",
              "ckpt@5s B");

  // The checkpoint lives beside the JSON, whose directory the reporter only
  // creates at the end.
  std::error_code ec;
  std::filesystem::create_directories(BenchReporter::OutputDirectory(), ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n",
                 BenchReporter::OutputDirectory().c_str(),
                 ec.message().c_str());
    return false;
  }
  const std::string ckpt_path =
      BenchReporter::OutputDirectory() + "/bench_checkpoint.ckpt";
  const auto* write_failures =
      MetricsRegistry::Global().GetCounter("checkpoint.write_failures");
  bool measured = true;

  for (const std::string& dataset : {"compas", "adult"}) {
    for (const std::string& trainer_name : {"lr", "dt"}) {
      double plain_seconds = 0.0;
      double eager_seconds = 0.0;
      double throttled_seconds = 0.0;
      double resume_seconds = 0.0;
      double fits = 0.0;
      // Bytes each policy wrote per run (checkpoint.bytes counter deltas).
      double eager_bytes = 0.0;
      double throttled_bytes = 0.0;
      const auto* bytes_counter =
          MetricsRegistry::Global().GetCounter("checkpoint.bytes");
      for (int s = 0; s < seeds; ++s) {
        const Dataset data = MakeBenchDataset(dataset, 300 + s);
        const TrainValTestSplit split = SplitDefault(data, 400 + s);
        const FairnessSpec spec = MakeSpec(MainGroups(dataset), "sp", 0.03);

        // Plain run, then the identical search under the two checkpoint
        // policies: interval 0 fsyncs at every record barrier (worst-case
        // IO), interval 5s is the production throttle (first + final write
        // at these run lengths).
        for (int config = 0; config < 3; ++config) {
          auto trainer = MakeTrainer(trainer_name, 500 + s);
          OmniFairOptions options;
          if (config > 0) options.checkpoint.path = ckpt_path;
          if (config == 2) options.checkpoint.interval_s = 5.0;
          const long long bytes_before = bytes_counter->Value();
          const long long failures_before = write_failures->Value();
          Stopwatch stopwatch;
          auto fair =
              OmniFair(options).Train(split.train, split.val, trainer.get(), {spec});
          const double elapsed = stopwatch.ElapsedSeconds();
          if (write_failures->Value() != failures_before) {
            std::fprintf(stderr,
                         "%s %s seed %d: checkpoint writes to %s failed\n",
                         dataset.c_str(), trainer_name.c_str(), s,
                         ckpt_path.c_str());
            measured = false;
          }
          if (!fair.ok()) continue;
          (config == 0 ? plain_seconds
                       : config == 1 ? eager_seconds : throttled_seconds) +=
              elapsed;
          const double written =
              static_cast<double>(bytes_counter->Value() - bytes_before);
          if (config == 0) fits += fair->models_trained;
          if (config == 1) eager_bytes += written;
          if (config == 2) throttled_bytes += written;
        }

        // Resume the *finished* checkpoint: every fit replays from the log,
        // so this is the upper bound on recovered work per second.
        {
          auto trainer = MakeTrainer(trainer_name, 500 + s);
          OmniFairOptions options;
          options.checkpoint.resume_from = ckpt_path;
          Stopwatch stopwatch;
          auto fair =
              OmniFair(options).Train(split.train, split.val, trainer.get(), {spec});
          if (fair.ok()) {
            resume_seconds += stopwatch.ElapsedSeconds();
          } else {
            std::fprintf(stderr, "%s %s seed %d: resume failed: %s\n",
                         dataset.c_str(), trainer_name.c_str(), s,
                         fair.status().ToString().c_str());
            measured = false;
          }
        }
      }
      const double eager_overhead =
          plain_seconds > 0.0 ? eager_seconds / plain_seconds - 1.0 : 0.0;
      const double throttled_overhead =
          plain_seconds > 0.0 ? throttled_seconds / plain_seconds - 1.0 : 0.0;
      std::printf(
          "%-10s %-8s %6.1f %10.3f %11.3f %8.1f%% %11.3f %8.1f%% %11.4f %11.0f "
          "%11.0f\n",
          dataset.c_str(), trainer_name.c_str(), fits / seeds,
          plain_seconds / seeds, eager_seconds / seeds, 100.0 * eager_overhead,
          throttled_seconds / seeds, 100.0 * throttled_overhead,
          resume_seconds / seeds, eager_bytes / seeds, throttled_bytes / seeds);
      reporter.AddRow("checkpoint_overhead")
          .Label("dataset", dataset)
          .Label("trainer", trainer_name)
          .Value("plain_seconds", plain_seconds / seeds)
          .Value("checkpoint_seconds", eager_seconds / seeds)
          .Value("throttled_seconds", throttled_seconds / seeds)
          .Value("overhead_fraction", eager_overhead)
          .Value("throttled_overhead_fraction", throttled_overhead)
          .Value("resume_seconds", resume_seconds / seeds)
          .Value("fits", fits / seeds)
          .Value("checkpoint_bytes", eager_bytes / seeds)
          .Value("throttled_checkpoint_bytes", throttled_bytes / seeds);
    }
  }
  std::printf("(ckpt@0 snapshots at every fit barrier; production runs use "
              "--checkpoint-interval to throttle)\n");
  return measured;
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "checkpoint", "Checkpoint/resume durability overhead (DESIGN.md §12)");
  const bool measured = omnifair::bench::Run(reporter);
  const int status = omnifair::bench::FinishBench(reporter);
  return measured ? status : 1;
}
