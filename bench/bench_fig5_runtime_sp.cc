// Reproduces Figure 5: wall-clock training time of all methods under an SP
// constraint with the LR model, on Adult, COMPAS and LSAC. Expected shape:
// OmniFair is in the preprocessing class (Kamiran/Calmon ballpark) and
// clearly faster than the in-processing methods — about an order of
// magnitude vs Agarwal (reductions) and Celis (dense multiplier grid).
// Each cell is the median of kCellRepetitions runs per seed, averaged over
// seeds; a second table gives the fits and LR solver iterations behind it.

#include "bench/bench_common.h"

namespace omnifair {
namespace bench {
namespace {

/// RunMethod kCellRepetitions times; the last run's result with `seconds`
/// replaced by the median over the runs.
MethodResult RunMethodRepeated(const std::string& method,
                               const TrainValTestSplit& split,
                               const FairnessSpec& spec, uint64_t seed) {
  MethodResult out;
  std::vector<double> seconds;
  for (int rep = 0; rep < kCellRepetitions; ++rep) {
    out = RunMethod(method, split, "lr", spec, seed);
    seconds.push_back(out.seconds);
  }
  out.seconds = Median(seconds);
  return out;
}

void Run(BenchReporter& reporter) {
  const int seeds = EnvSeeds(2);
  reporter.Config("seeds", seeds);
  reporter.Config("metric", "sp");
  reporter.Config("epsilon", 0.03);
  reporter.Config("repetitions", kCellRepetitions);
  PrintHeader("Figure 5: running time under SP constraint (LR)");
  const std::vector<std::string> datasets = {"adult", "compas", "lsac"};
  const std::vector<std::string> methods = {"kamiran", "calmon", "omnifair",
                                            "zafar", "agarwal", "celis"};
  std::printf("%-10s", "dataset");
  for (const std::string& method : methods) std::printf(" %12s", method.c_str());
  std::printf("\n");

  std::vector<std::string> counts;  // "fits/iterations" cells, row-major
  for (const std::string& dataset : datasets) {
    std::printf("%-10s", dataset.c_str());
    for (const std::string& method : methods) {
      Aggregate agg;
      for (int s = 0; s < seeds; ++s) {
        const Dataset data = MakeBenchDataset(dataset, 1500 + s);
        const TrainValTestSplit split = SplitDefault(data, 1600 + s);
        const FairnessSpec spec = MakeSpec(MainGroups(dataset), "sp", 0.03);
        const MethodResult result = RunMethodRepeated(method, split, spec, s);
        if (result.supported) agg.Add(result);
      }
      char cell[32];
      if (agg.runs == 0) {
        std::printf(" %12s", "NA");
        counts.push_back("NA");
      } else {
        std::snprintf(cell, sizeof(cell), "%.3fs", agg.MeanSeconds());
        std::printf(" %12s", cell);
        std::snprintf(cell, sizeof(cell), "%.0f/%.0f", agg.MeanModels(),
                      agg.MeanLrIterations());
        counts.push_back(cell);
      }
      reporter.AddAggregate("runtime", agg)
          .Value("lr_iterations", agg.MeanLrIterations())
          .Label("dataset", dataset)
          .Label("method", method);
    }
    std::printf("\n");
  }
  std::printf("\n(median of %d runs per cell; fits / LR iterations per run"
              " below, OmniFair ~ O(log(1/tau)) fits vs Celis' dense grid)\n",
              kCellRepetitions);
  size_t next = 0;
  for (const std::string& dataset : datasets) {
    std::printf("%-10s", dataset.c_str());
    for (size_t m = 0; m < methods.size(); ++m) {
      std::printf(" %12s", counts[next++].c_str());
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "fig5_runtime_sp", "Figure 5: running time under SP constraint (LR)");
  omnifair::bench::Run(reporter);
  return omnifair::bench::FinishBench(reporter);
}
