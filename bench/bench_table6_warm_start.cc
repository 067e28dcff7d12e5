// Reproduces Table 6: the warm-start optimization for LR. Algorithm 1
// retrains across nearby lambda values; initializing each fit from the
// previous solution cuts total solver iterations. The paper reports
// 1.2x - 3.4x wall-clock speedups across the four datasets. Each time is the
// median over kCellRepetitions interleaved cold/warm runs of the mean over
// seeds; fits and L-BFGS iterations are per tune.

#include "bench/bench_common.h"

#include "ml/logistic_regression.h"

namespace omnifair {
namespace bench {
namespace {

void Run(BenchReporter& reporter) {
  const int seeds = EnvSeeds(3);
  reporter.Config("seeds", seeds);
  reporter.Config("metric", "sp");
  reporter.Config("epsilon", 0.03);
  reporter.Config("repetitions", kCellRepetitions);
  PrintHeader("Table 6: warm-start speedup under LR (SP epsilon = 0.03)");
  std::printf("%-10s %16s %16s %10s %11s %11s %14s\n", "dataset",
              "no warm start(s)", "warm start(s)", "speedup", "fits c/w",
              "iters c/w", "iter speedup");

  for (const std::string& dataset : {"compas", "adult", "lsac", "bank"}) {
    // Per repetition, the mean over seeds; cold and warm runs alternate.
    std::vector<double> cold_seconds(kCellRepetitions, 0.0);
    std::vector<double> warm_seconds(kCellRepetitions, 0.0);
    long long cold_iterations = 0;
    long long warm_iterations = 0;
    int cold_fits = 0;
    int warm_fits = 0;
    for (int s = 0; s < seeds; ++s) {
      const Dataset data = MakeBenchDataset(dataset, 300 + s);
      const TrainValTestSplit split = SplitDefault(data, 400 + s);
      const FairnessSpec spec = MakeSpec(MainGroups(dataset), "sp", 0.03);

      for (int rep = 0; rep < kCellRepetitions; ++rep) {
        for (const bool warm : {false, true}) {
          LogisticRegressionTrainer trainer;
          OmniFairOptions options;
          options.warm_start = warm;
          OmniFair omnifair(options);
          Stopwatch stopwatch;
          auto fair = omnifair.Train(split.train, split.val, &trainer, {spec});
          const double elapsed = stopwatch.ElapsedSeconds();
          if (!fair.ok()) continue;
          (warm ? warm_seconds : cold_seconds)[rep] += elapsed / seeds;
          if (rep > 0) continue;  // the runs are deterministic
          // One representative trajectory per dataset: the warm-start run of
          // the first seed (shows lambda progression alongside iteration
          // cost).
          if (warm && s == 0 && !fair->tune_report.empty()) {
            reporter.AddTrajectory(dataset + " warm", fair->tune_report);
          }
          (warm ? warm_iterations : cold_iterations) += trainer.total_iterations();
          (warm ? warm_fits : cold_fits) += fair->models_trained;
        }
      }
    }
    const double cold = Median(cold_seconds);
    const double warm = Median(warm_seconds);
    const double speedup = warm > 0 ? cold / warm : 0.0;
    const double iter_speedup =
        warm_iterations > 0 ? static_cast<double>(cold_iterations) /
                                  static_cast<double>(warm_iterations)
                            : 0.0;
    char fits[32];
    char iterations[32];
    std::snprintf(fits, sizeof(fits), "%.0f/%.0f",
                  static_cast<double>(cold_fits) / seeds,
                  static_cast<double>(warm_fits) / seeds);
    std::snprintf(iterations, sizeof(iterations), "%.0f/%.0f",
                  static_cast<double>(cold_iterations) / seeds,
                  static_cast<double>(warm_iterations) / seeds);
    std::printf("%-10s %16.3f %16.3f %9.2fx %11s %11s %13.2fx\n",
                dataset.c_str(), cold, warm, speedup, fits, iterations,
                iter_speedup);
    reporter.AddRow("warm_start")
        .Label("dataset", dataset)
        .Value("cold_seconds", cold)
        .Value("warm_seconds", warm)
        .Value("speedup", speedup)
        .Value("cold_iterations", static_cast<double>(cold_iterations))
        .Value("warm_iterations", static_cast<double>(warm_iterations))
        .Value("cold_fits", cold_fits)
        .Value("warm_fits", warm_fits);
  }
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "table6_warm_start",
      "Table 6: warm-start speedup under LR (SP epsilon = 0.03)");
  omnifair::bench::Run(reporter);
  return omnifair::bench::FinishBench(reporter);
}
