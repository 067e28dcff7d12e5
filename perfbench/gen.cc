// perfbench_gen: turns a workload name and a seed into the workload's input
// files, in a process of its own, so that the measured process only reads
// files and its peak RSS holds no generator state.
//
//   perfbench_gen --workload NAME --seed N --out DIR
//
// Writes these inputs into DIR (see kTabularSets for the set counts):
//   tune-lr-sp     adult-0..6.csv     synthetic adult, 20,000 rows each
//   hc-gbdt-race   compas-0..17.csv   synthetic COMPAS, 11,001 rows each
//   stream-lr-sp   adult-0.csv        synthetic adult, 500,000 rows
//   serve-gbdt     compas.csv         training CSV (seed N)
//                  requests.csv       request rows (a different seed)
//                  model.ofb          bundle of an xgb_hist model fit on
//                                     compas.csv
//                  model.txt          the same model as a text FairModel,
//                                     loaded by the request oracle
//                  batches.txt        request batch sizes, uniform in 1..64
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/omnifair.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "ml/bundle.h"
#include "ml/trainer_registry.h"
#include "util/random.h"

namespace {

using namespace omnifair;

// Data sets per run of the tuning workloads. How much work a tuner does
// depends on the data, and figures are compared across seeds, so a run's
// ops take every set made from its seed in turn, and the run reports
// medians and means over them. Algorithm 2 at 11,001 rows took 23, 34, 45
// or 56 fits (34 on 20 of 30 seeds), and runs of 34 fits still took 1.16 to
// 1.71 s depending on the set. Algorithm 1 always took 12 fits, but the
// full-batch LR fits' cost varied by up to 25% between sets. A run measures
// whole cycles over the sets, so each count is as many ops as fit, after
// the warm-up op, in a 30 s run (about 3.7 s per tune op, 1.6 s per hill
// climb, on a 4-vCPU VM).
struct TabularSets {
  const char* workload;
  const char* dataset;
  size_t rows;
  int sets;
};
constexpr TabularSets kTabularSets[] = {
    {"tune-lr-sp", "adult", 20000, 7},
    {"hc-gbdt-race", "compas", 11001, 18},
    {"stream-lr-sp", "adult", 500000, 1},
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_gen: %s\n", what.c_str());
  return 1;
}

bool WriteSynthetic(const std::string& dataset, size_t rows, uint64_t seed,
                    const std::string& path, std::string* error) {
  SyntheticOptions options;
  options.num_rows = rows;
  options.seed = seed;
  const Status status = WriteCsv(MakeDatasetByName(dataset, options), path);
  if (!status.ok()) *error = status.ToString();
  return status.ok();
}

// Fits the served model the way a deployment would: read the training CSV,
// encode it with the default encoder, fit xgb_hist with unit weights, then
// publish it both as a bundle (served) and as a text model (the oracle).
bool WriteServeModel(const std::string& dir, std::string* error) {
  CsvReadOptions read;
  read.label_column = "two_year_recid";
  read.force_categorical = {"race"};
  Result<Dataset> train = ReadCsv(dir + "/compas.csv", read);
  if (!train.ok()) {
    *error = train.status().ToString();
    return false;
  }
  FairModel fair;
  const Matrix X = fair.encoder.FitTransform(*train, EncoderOptions{});
  fair.model = MakeTrainer("xgb_hist", 42)->Fit(X, train->labels());
  if (fair.model == nullptr) {
    *error = "xgb_hist fit returned no model";
    return false;
  }
  Status status = SaveFairModel(fair, dir + "/model.txt");
  if (status.ok()) {
    BundleMeta meta;
    meta.sensitive_attribute = "race";
    status = WriteBundle(*fair.model, fair.encoder, meta, dir + "/model.ofb");
  }
  if (!status.ok()) *error = status.ToString();
  return status.ok();
}

bool WriteBatchSizes(const std::string& path, uint64_t seed, std::string* error) {
  Rng rng(seed);
  std::ofstream out(path);
  // Enough batches to cover the request CSV several times over; the client
  // cycles through them.
  for (int i = 0; i < 4096; ++i) out << (1 + rng.NextBounded(64)) << "\n";
  if (!out.flush()) *error = "cannot write " + path;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string dir;
  long long seed = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed = std::atoll(argv[i + 1]);
    else if (flag == "--out") dir = argv[i + 1];
    else return Fail("unknown flag " + flag);
  }
  if (workload.empty() || dir.empty() || seed < 0) {
    return Fail("usage: perfbench_gen --workload NAME --seed N --out DIR");
  }
  const uint64_t base = static_cast<uint64_t>(seed);
  std::string error;
  for (const TabularSets& tabular : kTabularSets) {
    if (workload != tabular.workload) continue;
    for (int i = 0; i < tabular.sets; ++i) {
      const std::string csv =
          dir + "/" + tabular.dataset + "-" + std::to_string(i) + ".csv";
      if (!WriteSynthetic(tabular.dataset, tabular.rows,
                          base * 64 + static_cast<uint64_t>(i), csv, &error)) {
        return Fail(error);
      }
    }
    return 0;
  }
  if (workload == "serve-gbdt") {
    // The request CSV comes from its own seed, so its category dictionaries
    // (first-appearance order) are its own, as any fresh CSV's would be.
    if (!WriteSynthetic("compas", 11001, base, dir + "/compas.csv", &error) ||
        !WriteSynthetic("compas", 11001, base ^ 0x9e3779b97f4a7c15ULL,
                        dir + "/requests.csv", &error) ||
        !WriteServeModel(dir, &error) ||
        !WriteBatchSizes(dir + "/batches.txt", base + 1, &error)) {
      return Fail(error);
    }
    return 0;
  }
  return Fail("unknown workload " + workload);
}
