#ifndef OMNIFAIR_BENCH_BENCH_COMMON_H_
#define OMNIFAIR_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/agarwal.h"
#include "baselines/baseline.h"
#include "core/omnifair.h"
#include "core/tune_report.h"
#include "data/datasets.h"
#include "data/split.h"
#include "linalg/vector_ops.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/trainer_registry.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {
namespace bench {

/// Environment override helpers so all benches share the same knobs:
///   OMNIFAIR_BENCH_ROWS  - dataset size (0 = per-bench default)
///   OMNIFAIR_BENCH_SEEDS - number of random splits averaged
/// Malformed values (e.g. "5k", "", "-3") are rejected with a warning naming
/// the variable and the rejected value; the fallback is used instead. The
/// silent-atol behavior this replaces would quietly run "5k" as 5 rows.
inline long EnvPositiveLong(const char* variable, long fallback) {
  const char* value = std::getenv(variable);
  if (value == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0' || parsed <= 0) {
    OF_LOG(Warning) << variable << "=\"" << value
                    << "\" is not a positive integer; using default "
                    << fallback;
    return fallback;
  }
  return parsed;
}

inline size_t EnvRows(size_t fallback) {
  return static_cast<size_t>(
      EnvPositiveLong("OMNIFAIR_BENCH_ROWS", static_cast<long>(fallback)));
}

inline int EnvSeeds(int fallback) {
  return static_cast<int>(EnvPositiveLong("OMNIFAIR_BENCH_SEEDS", fallback));
}

/// Runs per timed cell of the paper-shape benches (Table 6, Table 8, Fig. 5).
/// Their cells take 10-50 ms, where one Stopwatch reading sits in timer
/// noise, so each cell reports the median over this many runs; the runs are
/// deterministic, so only their times differ.
constexpr int kCellRepetitions = 5;

/// Median of a non-empty sample.
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Solver iterations so far of a logistic regression trainer; 0 for any
/// other trainer (the benches print it beside fit counts and times).
inline long long LrIterations(const Trainer* trainer) {
  const auto* lr = dynamic_cast<const LogisticRegressionTrainer*>(trainer);
  return lr != nullptr ? lr->total_iterations() : 0;
}

/// Per-dataset bench defaults: a fraction of the paper's sizes so the whole
/// suite regenerates in minutes; scale up via OMNIFAIR_BENCH_ROWS to match
/// Table 4 exactly.
inline size_t DefaultRows(const std::string& dataset) {
  if (dataset == "adult") return EnvRows(5000);
  if (dataset == "compas") return EnvRows(4000);
  if (dataset == "lsac") return EnvRows(4000);
  if (dataset == "bank") return EnvRows(4000);
  return EnvRows(4000);
}

/// The two majority groups per dataset used for single-constraint
/// experiments (the paper's "groups defined on the sensitive attribute").
inline GroupingFunction MainGroups(const std::string& dataset) {
  if (dataset == "adult") return GroupByAttributeValues("sex", {"Male", "Female"});
  if (dataset == "compas") {
    return GroupByAttributeValues("race", {"African-American", "Caucasian"});
  }
  if (dataset == "lsac") return GroupByAttributeValues("race", {"White", "Black"});
  if (dataset == "bank") {
    return GroupByAttributeValues("age_group", {"working_age", "young_or_senior"});
  }
  return GroupByAttribute("sex");
}

inline Dataset MakeBenchDataset(const std::string& dataset, uint64_t seed) {
  SyntheticOptions options;
  options.num_rows = DefaultRows(dataset);
  options.seed = seed;
  return MakeDatasetByName(dataset, options);
}

/// Unified per-run outcome for every method (OmniFair, the six baselines,
/// and the unconstrained reference).
struct MethodResult {
  bool supported = false;
  bool satisfied = false;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  double test_disparity = 0.0;
  double test_auc = 0.5;
  double seconds = 0.0;
  int models_trained = 0;
  /// Logistic regression solver iterations over the run's fits (0 when the
  /// method never fits the LR trainer, e.g. Zafar's own solver).
  long long lr_iterations = 0;
};

inline MethodResult AuditToResult(const Classifier& model,
                                  const FeatureEncoder& encoder,
                                  const Dataset& test, const FairnessSpec& spec) {
  MethodResult out;
  auto audit = Audit(model, encoder, test, {spec});
  if (audit.ok()) {
    out.test_accuracy = audit->accuracy;
    out.test_disparity = audit->max_disparity;
    out.test_auc = audit->roc_auc;
  }
  return out;
}

/// Runs one method on one split. `method` is one of: "unconstrained",
/// "omnifair", "kamiran", "calmon", "zafar", "celis", "agarwal", "thomas".
/// For "thomas" the trainer is ignored (it brings its own CMA-ES model).
inline MethodResult RunMethod(const std::string& method,
                              const TrainValTestSplit& split,
                              const std::string& trainer_name,
                              const FairnessSpec& spec, uint64_t seed) {
  MethodResult out;
  if (method == "unconstrained" || method == "omnifair") {
    auto trainer = MakeTrainer(trainer_name, seed);
    FairnessSpec effective = spec;
    if (method == "unconstrained") effective.epsilon = 10.0;  // never binds
    OmniFairOptions options;
    options.warm_start = false;
    OmniFair omnifair(options);
    auto fair = omnifair.Train(split.train, split.val, trainer.get(), {effective});
    if (!fair.ok()) return out;
    out = AuditToResult(*fair->model, fair->encoder, split.test, spec);
    out.supported = true;
    out.satisfied = fair->satisfied;
    out.val_accuracy = fair->val_accuracy;
    out.seconds = fair->train_seconds;
    out.models_trained = fair->models_trained;
    out.lr_iterations = LrIterations(trainer.get());
    return out;
  }

  std::unique_ptr<FairnessBaseline> baseline;
  if (method == "agarwal") {
    // Fewer game iterations in the bench suite; quality is unaffected at
    // these dataset sizes and the method stays ~bench-scale.
    AgarwalReductions::Options options;
    options.iterations = 40;
    baseline = std::make_unique<AgarwalReductions>(options);
  } else {
    baseline = MakeBaseline(method);
  }
  std::unique_ptr<Trainer> trainer;
  if (method != "thomas") {
    trainer = MakeTrainer(trainer_name, seed);
    if (!baseline->SupportsTrainer(*trainer)) return out;  // NA(2)
  }
  if (!baseline->SupportsMetric(*spec.metric)) return out;  // NA(2)
  auto result = baseline->Train(split.train, split.val, trainer.get(), spec);
  if (!result.ok()) return out;
  out = AuditToResult(*result->model, result->encoder, split.test, spec);
  out.supported = true;
  out.satisfied = result->satisfied;
  out.val_accuracy = result->val_accuracy;
  out.seconds = result->train_seconds;
  out.models_trained = result->models_trained;
  out.lr_iterations = LrIterations(trainer.get());
  return out;
}

/// Aggregates per-seed runs. Unsupported runs (NA(2)) are skipped by Add;
/// satisfied-run means are tracked separately so tables can follow the
/// paper's protocol: a method's cell is NA(1) only when *no* split
/// satisfied the constraint, otherwise it reports the mean over the
/// satisfying splits.
struct Aggregate {
  int runs = 0;
  int satisfied = 0;
  double test_accuracy = 0.0;
  double test_disparity = 0.0;
  double test_auc = 0.0;
  double seconds = 0.0;
  double models = 0.0;
  double lr_iterations = 0.0;
  double sat_accuracy = 0.0;
  double sat_disparity = 0.0;
  double sat_auc = 0.0;

  void Add(const MethodResult& r) {
    if (!r.supported) return;
    ++runs;
    test_accuracy += r.test_accuracy;
    test_disparity += r.test_disparity;
    test_auc += r.test_auc;
    seconds += r.seconds;
    models += r.models_trained;
    lr_iterations += static_cast<double>(r.lr_iterations);
    if (r.satisfied) {
      ++satisfied;
      sat_accuracy += r.test_accuracy;
      sat_disparity += r.test_disparity;
      sat_auc += r.test_auc;
    }
  }
  double MeanAccuracy() const { return runs ? test_accuracy / runs : 0.0; }
  double MeanDisparity() const { return runs ? test_disparity / runs : 0.0; }
  double MeanAuc() const { return runs ? test_auc / runs : 0.0; }
  double MeanSeconds() const { return runs ? seconds / runs : 0.0; }
  double MeanModels() const { return runs ? models / runs : 0.0; }
  double MeanLrIterations() const { return runs ? lr_iterations / runs : 0.0; }
  double SatisfiedAccuracy() const {
    return satisfied ? sat_accuracy / satisfied : 0.0;
  }
  double SatisfiedDisparity() const {
    return satisfied ? sat_disparity / satisfied : 0.0;
  }
  double SatisfiedAuc() const { return satisfied ? sat_auc / satisfied : 0.0; }
  bool AllSatisfied() const { return runs > 0 && satisfied == runs; }
  bool AnySatisfied() const { return satisfied > 0; }
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints the process-wide recovery-event counters (DESIGN.md §8) so bench
/// output shows how often trainers diverged, metrics went non-finite, or
/// budgets expired during the run. "recovery events: none" is the healthy
/// baseline.
inline void PrintRecoveryEvents() {
  std::printf("recovery events: %s\n", RecoveryEventSummary().c_str());
}

// ---------------------------------------------------------------------------
// Machine-readable bench output (DESIGN.md §9).
//
// Every bench binary keeps its human-readable printf table and additionally
// writes one versioned JSON document to <outdir>/<bench>.json, where
// <outdir> is $OMNIFAIR_BENCH_OUT or "bench/out". Schema (validated by
// tools/check_bench_json.py):
//
//   {
//     "schema": "omnifair.bench", "schema_version": 1,
//     "bench": "<name>", "title": "...",
//     "config": {...},                       // knobs: rows, seeds, epsilon...
//     "results": [{"section": "...", "labels": {...}, "values": {...}}],
//     "tune_trajectories": [{"label": "...", "report": <TuneReport JSON>}],
//     "metrics": <MetricsSnapshot JSON>,     // counters/gauges/histograms
//     "recovery_events": {"divergence_backoff": 3, ...},  // non-zero only
//     "wall_seconds": 12.3
//   }
// ---------------------------------------------------------------------------

class BenchReporter {
 public:
  /// One result row: string labels (dataset, method...) + numeric values
  /// (accuracy, seconds...). Insertion order is preserved in the JSON.
  struct Row {
    std::string section;
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> values;

    Row& Label(std::string key, std::string value) {
      labels.emplace_back(std::move(key), std::move(value));
      return *this;
    }
    Row& Value(std::string key, double value) {
      values.emplace_back(std::move(key), value);
      return *this;
    }
  };

  BenchReporter(std::string bench_name, std::string title)
      : bench_name_(std::move(bench_name)), title_(std::move(title)) {}

  void Config(std::string key, std::string value) {
    config_strings_.emplace_back(std::move(key), std::move(value));
  }
  void Config(std::string key, double value) {
    config_numbers_.emplace_back(std::move(key), value);
  }
  void Config(std::string key, long long value) {
    Config(std::move(key), static_cast<double>(value));
  }
  void Config(std::string key, int value) {
    Config(std::move(key), static_cast<double>(value));
  }
  void Config(std::string key, size_t value) {
    Config(std::move(key), static_cast<double>(value));
  }

  /// Returned reference stays valid for the reporter's lifetime (deque).
  Row& AddRow(std::string section) {
    rows_.emplace_back();
    rows_.back().section = std::move(section);
    return rows_.back();
  }

  /// Convenience: one row per method table cell from an Aggregate.
  Row& AddAggregate(std::string section, const Aggregate& aggregate) {
    Row& row = AddRow(std::move(section));
    row.Value("runs", aggregate.runs)
        .Value("satisfied_runs", aggregate.satisfied)
        .Value("test_accuracy", aggregate.MeanAccuracy())
        .Value("test_disparity", aggregate.MeanDisparity())
        .Value("test_auc", aggregate.MeanAuc())
        .Value("seconds", aggregate.MeanSeconds())
        .Value("models_trained", aggregate.MeanModels());
    return row;
  }

  /// Attaches a full tuning trajectory (the paper's Figure 2 data). Keep it
  /// to a few representative runs per bench; every TunePoint is serialized.
  void AddTrajectory(std::string label, const TuneReport& report) {
    trajectories_.emplace_back(std::move(label), report);
  }

  const std::string& bench_name() const { return bench_name_; }
  const std::string& path() const { return path_; }

  /// Directory resolved from $OMNIFAIR_BENCH_OUT (default "bench/out").
  static std::string OutputDirectory() {
    const char* dir = std::getenv("OMNIFAIR_BENCH_OUT");
    return (dir != nullptr && *dir != '\0') ? dir : "bench/out";
  }

  /// Serializes the full document (schema above) to a string.
  std::string ToJson() const {
    std::ostringstream os;
    JsonWriter writer(os);
    writer.BeginObject();
    writer.KV("schema", "omnifair.bench");
    writer.KV("schema_version", 1);
    writer.KV("bench", bench_name_);
    writer.KV("title", title_);

    writer.Key("config");
    writer.BeginObject();
    for (const auto& [key, value] : config_strings_) writer.KV(key, value);
    for (const auto& [key, value] : config_numbers_) writer.KV(key, value);
    writer.EndObject();

    writer.Key("results");
    writer.BeginArray();
    for (const Row& row : rows_) {
      writer.BeginObject();
      writer.KV("section", row.section);
      writer.Key("labels");
      writer.BeginObject();
      for (const auto& [key, value] : row.labels) writer.KV(key, value);
      writer.EndObject();
      writer.Key("values");
      writer.BeginObject();
      for (const auto& [key, value] : row.values) writer.KV(key, value);
      writer.EndObject();
      writer.EndObject();
    }
    writer.EndArray();

    writer.Key("tune_trajectories");
    writer.BeginArray();
    for (const auto& [label, report] : trajectories_) {
      writer.BeginObject();
      writer.KV("label", label);
      writer.Key("report");
      report.WriteJson(writer);
      writer.EndObject();
    }
    writer.EndArray();

    writer.Key("metrics");
    MetricsRegistry::Global().Snapshot().WriteJson(writer);

    writer.Key("recovery_events");
    writer.BeginObject();
    for (int i = 0; i < static_cast<int>(RecoveryEvent::kCount); ++i) {
      const RecoveryEvent event = static_cast<RecoveryEvent>(i);
      const long long count = RecoveryEventCount(event);
      if (count > 0) writer.KV(RecoveryEventName(event), count);
    }
    writer.EndObject();

    writer.KV("wall_seconds", stopwatch_.ElapsedSeconds());
    writer.EndObject();
    return os.str();
  }

  /// Writes <outdir>/<bench>.json, creating the directory if needed.
  Status Write() {
    const std::filesystem::path dir(OutputDirectory());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("cannot create bench output directory " +
                              dir.string() + ": " + ec.message());
    }
    path_ = (dir / (bench_name_ + ".json")).string();
    std::ofstream out(path_);
    if (!out) return IoError(path_, "open");
    out << ToJson() << "\n";
    out.flush();
    if (!out) return IoError(path_, "write");
    return Status::Ok();
  }

 private:
  const std::string bench_name_;
  const std::string title_;
  std::string path_;
  Stopwatch stopwatch_;
  std::vector<std::pair<std::string, std::string>> config_strings_;
  std::vector<std::pair<std::string, double>> config_numbers_;
  std::deque<Row> rows_;
  std::vector<std::pair<std::string, TuneReport>> trajectories_;
};

/// Standard bench epilogue: prints the recovery-event summary, writes the
/// JSON document, and — when $OMNIFAIR_TRACE_FILE is set and the telemetry
/// level is kFullTrace — dumps the collected spans as a Chrome trace.
/// Returns the process exit code (non-zero when the JSON write failed).
inline int FinishBench(BenchReporter& reporter) {
  PrintRecoveryEvents();
  const Status status = reporter.Write();
  if (!status.ok()) {
    std::fprintf(stderr, "bench json write failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("bench json: %s\n", reporter.path().c_str());

  const char* trace_path = std::getenv("OMNIFAIR_TRACE_FILE");
  if (trace_path != nullptr && *trace_path != '\0') {
    const Status trace_status =
        TraceCollector::Global().WriteChromeJson(trace_path);
    if (trace_status.ok()) {
      std::printf("trace (%zu spans): %s  [open in chrome://tracing]\n",
                  TraceCollector::Global().EventCount(), trace_path);
    } else {
      std::fprintf(stderr, "trace write failed: %s\n",
                   trace_status.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace bench
}  // namespace omnifair

#endif  // OMNIFAIR_BENCH_BENCH_COMMON_H_
