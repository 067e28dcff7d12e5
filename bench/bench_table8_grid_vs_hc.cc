// Reproduces Table 8: grid search vs. marginal hill climbing for the
// two-constraint COMPAS workload (SP + FNR), sweeping epsilon. Expected
// shape: whenever grid search finds a feasible Lambda, hill climbing also
// does (often at epsilons where the grid's resolution already fails), at
// roughly an order of magnitude less wall-clock time. Times are medians over
// kCellRepetitions interleaved grid/HC runs; the fits and LR solver
// iterations beside them come from the first run (all runs are identical).

#include "bench/bench_common.h"

#include "core/grid_search.h"
#include "core/hill_climbing.h"
#include "core/problem.h"

namespace omnifair {
namespace bench {
namespace {

/// One timed tuning run of either search.
struct SearchRun {
  MultiTuneResult result;
  double seconds = 0.0;
  long long lr_iterations = 0;
};

void Run(BenchReporter& reporter) {
  PrintHeader("Table 8: grid search vs hill climbing (COMPAS, SP + FNR, LR)");
  std::printf("%-8s %6s %6s %12s %10s %11s %10s %11s %10s\n", "epsilon",
              "Grid", "HC", "Grid time(s)", "HC time(s)", "Grid fits",
              "HC fits", "Grid iters", "HC iters");
  reporter.Config("dataset", "compas");
  reporter.Config("constraints", "sp+fnr");
  reporter.Config("repetitions", kCellRepetitions);

  const GroupingFunction groups = MainGroups("compas");
  const Dataset data = MakeBenchDataset("compas", 700);
  const TrainValTestSplit split = SplitDefault(data, 800);

  // Trajectories are attached for one representative epsilon so the JSON
  // stays small (the grid alone is 169 fits per epsilon).
  const double trajectory_epsilon = 0.03;

  for (double epsilon : {0.01, 0.02, 0.03, 0.04, 0.05, 0.06}) {
    const std::vector<FairnessSpec> specs = {MakeSpec(groups, "sp", epsilon),
                                             MakeSpec(groups, "fnr", epsilon)};
    const bool record = epsilon == trajectory_epsilon;
    TuneReport grid_report;
    grid_report.algorithm = "grid_search";
    TuneReport hc_report;
    hc_report.algorithm = "hill_climb";

    // Times the search only, not the problem set-up.
    auto run_search = [&](bool use_grid, TuneReport* report) {
      SearchRun run;
      auto trainer = MakeTrainer("lr");
      auto problem =
          FairnessProblem::Create(split.train, split.val, specs, trainer.get());
      Stopwatch watch;
      if (report != nullptr) (*problem)->StartTuneReport(report);
      if (use_grid) {
        GridSearchOptions grid_options;
        grid_options.points_per_dim = 13;  // 169 fits for k = 2
        grid_options.max_lambda = 0.4;
        run.result = GridSearchTuner(grid_options).Run(**problem);
      } else {
        run.result = HillClimber().Run(**problem);
      }
      (*problem)->StartTuneReport(nullptr);
      run.seconds = watch.ElapsedSeconds();
      run.lr_iterations = LrIterations(trainer.get());
      return run;
    };
    SearchRun grid_run;
    SearchRun hc_run;
    std::vector<double> grid_times;
    std::vector<double> hc_times;
    for (int rep = 0; rep < kCellRepetitions; ++rep) {
      const bool first = rep == 0;
      SearchRun g = run_search(true, first && record ? &grid_report : nullptr);
      SearchRun h = run_search(false, first && record ? &hc_report : nullptr);
      grid_times.push_back(g.seconds);
      hc_times.push_back(h.seconds);
      if (first) {
        grid_run = std::move(g);
        hc_run = std::move(h);
      }
    }
    const MultiTuneResult& grid_result = grid_run.result;
    const MultiTuneResult& hc_result = hc_run.result;
    const double grid_seconds = Median(grid_times);
    const double hc_seconds = Median(hc_times);

    if (record) {
      grid_report.models_trained = grid_result.models_trained;
      grid_report.wall_seconds = grid_seconds;
      hc_report.models_trained = hc_result.models_trained;
      hc_report.wall_seconds = hc_seconds;
      if (!grid_report.empty()) reporter.AddTrajectory("grid eps=0.03", grid_report);
      if (!hc_report.empty()) reporter.AddTrajectory("hc eps=0.03", hc_report);
    }

    std::printf("%-8.2f %6s %6s %12.3f %10.3f %11d %10d %11lld %10lld\n",
                epsilon, grid_result.satisfied ? "Yes" : "No",
                hc_result.satisfied ? "Yes" : "No", grid_seconds, hc_seconds,
                grid_result.models_trained, hc_result.models_trained,
                grid_run.lr_iterations, hc_run.lr_iterations);
    reporter.AddRow("grid_vs_hc")
        .Label("method", "grid")
        .Value("epsilon", epsilon)
        .Value("satisfied", grid_result.satisfied ? 1.0 : 0.0)
        .Value("seconds", grid_seconds)
        .Value("models_trained", grid_result.models_trained)
        .Value("lr_iterations", static_cast<double>(grid_run.lr_iterations))
        .Value("val_accuracy", grid_result.val_accuracy);
    reporter.AddRow("grid_vs_hc")
        .Label("method", "hill_climb")
        .Value("epsilon", epsilon)
        .Value("satisfied", hc_result.satisfied ? 1.0 : 0.0)
        .Value("seconds", hc_seconds)
        .Value("models_trained", hc_result.models_trained)
        .Value("lr_iterations", static_cast<double>(hc_run.lr_iterations))
        .Value("val_accuracy", hc_result.val_accuracy);
  }
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "table8_grid_vs_hc",
      "Table 8: grid search vs hill climbing (COMPAS, SP + FNR, LR)");
  omnifair::bench::Run(reporter);
  return omnifair::bench::FinishBench(reporter);
}
