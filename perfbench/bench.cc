// perfbench: the measured process of the end-to-end benchmark.
//
//   perfbench --workload NAME --inputs DIR [--csv-rows N] --seconds S --trace 0|1
//
// Reads the inputs perfbench_gen wrote into DIR, runs the workload's set-up
// and op in whole cycles over its inputs for S seconds (longer only to reach
// each workload's minimum cycle count), checks every op's output, and prints
// one JSON object as its last stdout line. See README.md for the workloads
// and the metrics. --csv-rows is the stream workload's expected row count.
//
// Every library call of a workload sits in that workload's adapter function
// (TabularAdapter, StreamAdapter, ServeAdapter); the loop, the checks and
// the statistics below them are workload-agnostic.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/omnifair.h"
#include "core/stream_tune.h"
#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "data/split.h"
#include "data/stream_reader.h"
#include "linalg/simd.h"
#include "ml/bundle.h"
#include "ml/trainer_registry.h"
#include "serve/server.h"
#include "spans.h"
#include "util/json_writer.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace omnifair;

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// What an adapter hands the loop.
// ---------------------------------------------------------------------------

struct SetupOutcome {
  bool ok = false;
  std::string error;
  double seconds = 0.0;
  // Ingest statistics (stream-lr-sp only).
  double parse_s = 0.0;
  double spill_s = 0.0;
  double csv_bytes = 0.0;
  double spill_bytes = 0.0;
};

struct OpOutcome {
  bool ok = false;
  std::string error;
  double seconds = 0.0;  // the timed part of the op only
  // Results every op on the same input must repeat exactly (tune, hc,
  // stream).
  std::vector<double> lambdas;
  int fits = 0;
  double accuracy = 0.0;
  double val_gap = 0.0;   // max |FP_j| on validation
  double test_gap = 0.0;  // max |FP_j| on the test split (tune, hc)
  // serve-gbdt
  size_t rows = 0;
  size_t mismatch_rows = 0;
};

struct Adapter {
  /// Distinct inputs. A timed cycle sets up each input in turn and runs
  /// `ops_per_setup` ops on it, and a run measures only whole cycles, so
  /// every run measures the same inputs whatever its speed.
  size_t inputs = 1;
  std::function<SetupOutcome(size_t input)> setup;
  /// `slot` numbers the op within the run; a traced run calls the op twice
  /// per slot, traced and untraced, and both calls must do the same work.
  std::function<OpOutcome(size_t slot, bool traced)> op;
  /// Traced runs only, after the timed ops: per-layer probes that the ops
  /// themselves do not isolate. Returns an error message or "".
  std::function<std::string()> probe;
  int ops_per_setup = 1;
  int min_cycles = 1;  // timed cycles per run
  /// tune / hc / stream: lambda, fits, accuracy and gaps must repeat in
  /// every op on the same input.
  bool repeatable = true;
};

struct Inputs {
  std::string dir;
  long long csv_rows = 0;
};

// ---------------------------------------------------------------------------
// Adapters: all library calls of a workload live in its adapter.
// ---------------------------------------------------------------------------

struct TabularConfig {
  std::vector<std::string> csvs;
  std::string label;
  std::string sensitive;
  std::string model;
  double epsilon = 0.0;
};

// tune-lr-sp and hc-gbdt-race: ReadCsv + SplitDefault 60/20/20 as
// `omnifair_cli train` does, then OmniFair::Train (Algorithm 1 for one
// induced constraint, Algorithm 2 for several) and Audit on the test split.
Adapter TabularAdapter(const Inputs& inputs, const TabularConfig& config) {
  struct State {
    std::optional<TrainValTestSplit> split;
  };
  auto state = std::make_shared<State>();
  const FairnessSpec spec =
      MakeSpec(GroupByAttribute(config.sensitive), "sp", config.epsilon);
  std::vector<std::string> paths;
  for (const std::string& csv : config.csvs) paths.push_back(inputs.dir + "/" + csv);

  Adapter adapter;
  adapter.inputs = paths.size();
  adapter.setup = [state, config, paths](size_t input) {
    SetupOutcome out;
    state->split.reset();
    CsvReadOptions read;
    read.label_column = config.label;
    read.force_categorical = {config.sensitive};
    const int64_t t0 = NowNs();
    Result<Dataset> data = [&] {
      Span span("data.read_csv");
      return ReadCsv(paths[input], read);
    }();
    if (data.ok()) {
      Span span("data.split");
      state->split = SplitDefault(*data, 42);
    }
    out.seconds = Seconds(t0, NowNs());
    out.ok = data.ok();
    if (!data.ok()) out.error = data.status().ToString();
    return out;
  };
  adapter.op = [state, config, spec](size_t /*slot*/, bool traced) {
    OpOutcome out;
    if (!state->split) {
      out.error = "no data: set-up failed";
      return out;
    }
    std::unique_ptr<Trainer> trainer = MakeTrainer(config.model, 42);
    if (traced) trainer = TraceTrainer(std::move(trainer));
    const OmniFair omnifair;  // the defaults `omnifair_cli train` runs with
    const TrainValTestSplit& split = *state->split;
    const int64_t t0 = NowNs();
    Result<FairModel> fair = [&] {
      Span span("core.train");
      return omnifair.Train(split.train, split.val, trainer.get(), {spec});
    }();
    out.seconds = Seconds(t0, NowNs());
    if (!fair.ok()) {
      out.error = "Train: " + fair.status().ToString();
      return out;
    }
    Result<AuditReport> audit = [&] {
      Span span("core.audit");
      return Audit(*fair->model, fair->encoder, split.test, {spec});
    }();
    if (!audit.ok()) {
      out.error = "Audit: " + audit.status().ToString();
      return out;
    }
    out.lambdas = fair->lambdas;
    out.fits = fair->models_trained;
    out.accuracy = audit->accuracy;
    for (const double part : fair->val_fairness_parts) {
      out.val_gap = std::max(out.val_gap, std::abs(part));
    }
    out.test_gap = audit->max_disparity;
    if (!fair->outcome.ok()) {
      out.error = "search cut short: " + fair->outcome.ToString();
    } else if (!fair->satisfied) {
      out.error = "constraint not satisfied on validation";
    } else {
      out.ok = true;
    }
    return out;
  };
  return adapter;
}

// stream-lr-sp: StreamCsvToChunked with the `train --stream` defaults into a
// fresh file, then StreamTuneLambda on it (SP over sex, Male vs Female).
Adapter StreamAdapter(const Inputs& inputs) {
  struct State {
    std::optional<ChunkedDataset> data;
  };
  auto state = std::make_shared<State>();
  const std::string csv = inputs.dir + "/adult-0.csv";
  const std::string chunked = inputs.dir + "/ingest.ofcd";
  const long long csv_rows = inputs.csv_rows;

  Adapter adapter;
  adapter.min_cycles = 4;
  adapter.setup = [state, csv, chunked, csv_rows](size_t /*input*/) {
    SetupOutcome out;
    state->data.reset();
    std::remove(chunked.c_str());
    StreamIngestOptions ingest;
    ingest.label_column = "income_gt_50k";
    ingest.group_column = "sex";
    const int64_t t0 = NowNs();
    Result<IngestStats> stats = [&] {
      Span span("data.ingest");
      return StreamCsvToChunked(csv, chunked, ingest);
    }();
    Result<ChunkedDataset> opened =
        stats.ok() ? ChunkedDataset::Open(chunked) : Result<ChunkedDataset>(stats.status());
    out.seconds = Seconds(t0, NowNs());
    if (!opened.ok()) {
      out.error = opened.status().ToString();
      return out;
    }
    if (static_cast<long long>(stats->rows) != csv_rows ||
        static_cast<long long>(opened->total_rows()) != csv_rows) {
      out.error = "ingested " + std::to_string(stats->rows) + " rows of " +
                  std::to_string(csv_rows);
      return out;
    }
    out.parse_s = stats->parse_seconds;
    out.spill_s = stats->spill_seconds;
    out.csv_bytes = static_cast<double>(stats->bytes_read);
    std::ifstream spilled(chunked, std::ios::binary | std::ios::ate);
    out.spill_bytes = static_cast<double>(spilled.tellg());
    state->data.emplace(std::move(*opened));
    out.ok = true;
    return out;
  };
  adapter.op = [state](size_t /*slot*/, bool /*traced*/) {
    OpOutcome out;
    if (!state->data) {
      out.error = "no data: set-up failed";
      return out;
    }
    const std::vector<std::string>& groups = state->data->meta().group_names;
    const auto index_of = [&](const char* name) {
      return static_cast<size_t>(
          std::find(groups.begin(), groups.end(), name) - groups.begin());
    };
    StreamTuneOptions tune;  // batch 4096, 3 epochs: the --stream defaults
    tune.group1 = index_of("Male");
    tune.group2 = index_of("Female");
    tune.epsilon = 0.03;
    tune.shuffle_seed = 42;
    if (tune.group1 >= groups.size() || tune.group2 >= groups.size()) {
      out.error = "Male/Female missing from the group dictionary";
      return out;
    }
    const int64_t t0 = NowNs();
    Result<StreamTuneResult> tuned = [&] {
      Span span("core.stream_tune");
      return StreamTuneLambda(*state->data, tune);
    }();
    out.seconds = Seconds(t0, NowNs());
    if (!tuned.ok()) {
      out.error = "StreamTuneLambda: " + tuned.status().ToString();
      return out;
    }
    out.lambdas = {tuned->lambda};
    out.fits = tuned->models_trained;
    out.accuracy = tuned->val_accuracy;
    out.val_gap = std::abs(tuned->val_fairness_gap);
    out.ok = tuned->satisfied;
    if (!out.ok) out.error = "constraint not satisfied on validation";
    return out;
  };
  adapter.probe = [state]() -> std::string {
    if (!state->data) return "no data for the materialize probe";
    for (size_t b = 0; b < state->data->num_blocks(); ++b) {
      Span span("data.materialize");
      Result<DatasetBlock> block = state->data->MaterializeBlock(b);
      if (!block.ok()) return "MaterializeBlock: " + block.status().ToString();
    }
    return "";
  };
  return adapter;
}

// Re-codes `rows` into the training category dictionary by category name.
// Only the oracle uses this: the served path gets the raw rows.
Dataset RecodeByName(const Dataset& rows, const FeatureEncoder& encoder) {
  std::map<std::string, std::vector<std::string>> dictionary;
  size_t offset = 0;
  for (const FeatureEncoder::ColumnPlan& plan : encoder.plans()) {
    if (plan.type == ColumnType::kNumeric) {
      offset += 1;
      continue;
    }
    std::vector<std::string>& names = dictionary[plan.name];
    for (size_t c = 0; c < plan.num_categories; ++c) {
      // Feature names of one-hot columns are "<column>=<category>".
      names.push_back(encoder.feature_names()[offset + c].substr(plan.name.size() + 1));
    }
    offset += plan.num_categories;
  }
  Dataset out(rows.name());
  for (const Column& column : rows.columns()) {
    const auto known = dictionary.find(column.name());
    if (column.type() == ColumnType::kNumeric || known == dictionary.end()) {
      out.AddColumn(column);
      continue;
    }
    Column recoded = Column::Categorical(column.name(), known->second);
    for (size_t r = 0; r < rows.NumRows(); ++r) recoded.AppendCategory(column.CategoryOf(r));
    out.AddColumn(std::move(recoded));
  }
  out.SetLabels(rows.labels());
  out.set_label_name(rows.label_name());
  return out;
}

// serve-gbdt: one closed-loop client sends raw rows of requests.csv in
// batches of 1-64 rows. Set-up: ModelBundle::Open + BundleServer. Op:
// MakeRequest(..., "race") + Handle. Every served score must equal the
// offline pointer model's PredictProba on the same rows, in the same batch
// and order, encoded by category name into the training dictionary.
Adapter ServeAdapter(const Inputs& inputs, std::string* error) {
  struct State {
    std::vector<Dataset> batches;
    std::vector<std::vector<double>> oracle;
    std::shared_ptr<const ModelBundle> bundle;
    std::unique_ptr<BundleServer> server;
    std::unique_ptr<Classifier> flat;  // probe copy of the bundle's model
  };
  auto state = std::make_shared<State>();
  const std::string bundle_path = inputs.dir + "/model.ofb";
  Adapter adapter;
  adapter.ops_per_setup = 250;
  adapter.min_cycles = 5;  // at least 1,250 requests, so a p99 has 12 beyond it
  adapter.repeatable = false;

  CsvReadOptions read;
  read.label_column = "two_year_recid";
  read.force_categorical = {"race"};
  Result<Dataset> rows = ReadCsv(inputs.dir + "/requests.csv", read);
  Result<FairModel> offline = LoadFairModel(inputs.dir + "/model.txt");
  std::ifstream sizes_file(inputs.dir + "/batches.txt");
  std::vector<size_t> sizes;
  for (size_t size = 0; sizes_file >> size;) sizes.push_back(size);
  if (!rows.ok() || !offline.ok() || sizes.empty() || rows->NumRows() == 0) {
    *error = !rows.ok()      ? rows.status().ToString()
             : !offline.ok() ? offline.status().ToString()
                             : "no batch sizes or no request rows";
    return adapter;
  }
  // Consecutive rows, wrapping, until every row has been requested once.
  size_t cursor = 0;
  for (size_t i = 0; cursor < rows->NumRows(); ++i) {
    std::vector<size_t> indices(sizes[i % sizes.size()]);
    for (size_t& index : indices) index = cursor++ % rows->NumRows();
    Dataset batch = rows->SelectRows(indices);
    const Matrix X = offline->encoder.Transform(RecodeByName(batch, offline->encoder));
    state->oracle.push_back(offline->model->PredictProba(X));
    state->batches.push_back(std::move(batch));
  }

  adapter.setup = [state, bundle_path](size_t /*input*/) {
    SetupOutcome out;
    state->server.reset();
    state->flat.reset();
    state->bundle.reset();
    const int64_t t0 = NowNs();
    Result<std::shared_ptr<const ModelBundle>> bundle = [&] {
      Span span("ml.bundle.open");
      return ModelBundle::Open(bundle_path);
    }();
    if (bundle.ok()) {
      Span span("serve.server_init");
      state->server = std::make_unique<BundleServer>(*bundle);
    }
    out.seconds = Seconds(t0, NowNs());
    if (!bundle.ok()) {
      out.error = bundle.status().ToString();
      return out;
    }
    state->bundle = *bundle;
    if (Tracer::Get().enabled()) state->flat = state->bundle->MakeModel();
    out.ok = true;
    return out;
  };
  adapter.op = [state](size_t slot, bool traced) {
    OpOutcome out;
    if (!state->server) {
      out.error = "no server: set-up failed";
      return out;
    }
    const size_t index = slot % state->batches.size();
    const Dataset& batch = state->batches[index];
    const int64_t t0 = NowNs();
    Result<PredictRequest> request = [&] {
      Span span("serve.encode", static_cast<double>(batch.NumRows()));
      return MakeRequest(*state->bundle, batch, "race");
    }();
    Result<PredictResponse> response = Status::Internal("no request");
    if (request.ok()) {
      Span span("serve.handle", static_cast<double>(batch.NumRows()));
      response = state->server->Handle(*request);
    }
    out.seconds = Seconds(t0, NowNs());
    out.rows = batch.NumRows();
    if (!response.ok()) {
      out.error = response.status().ToString();
      return out;
    }
    if (traced && state->flat != nullptr) {
      Span span("ml.flat_predict", static_cast<double>(batch.NumRows()));
      state->flat->PredictProba(request->features);
    }
    const std::vector<double>& expected = state->oracle[index];
    if (response->scores.size() != expected.size()) {
      out.mismatch_rows = out.rows;
    } else {
      for (size_t r = 0; r < expected.size(); ++r) {
        if (std::memcmp(&expected[r], &response->scores[r], sizeof(double)) != 0) {
          ++out.mismatch_rows;
        }
      }
    }
    out.ok = out.mismatch_rows == 0;
    if (!out.ok) {
      out.error = std::to_string(out.mismatch_rows) + " of " +
                  std::to_string(out.rows) + " served scores differ from the oracle";
    }
    return out;
  };
  return adapter;
}

// ---------------------------------------------------------------------------
// The loop.
// ---------------------------------------------------------------------------

// What a run keeps. Per op it keeps one latency (and, for traced ops, the
// fit count), so the hundreds of thousands of requests of a serve run add
// a few MiB at most to peak_rss_mb.
struct RunLog {
  std::vector<SetupOutcome> setups;  // the first is the warm-up set-up
  std::vector<double> op_seconds;      // timed untraced ops
  std::vector<double> traced_seconds;  // timed traced ops
  std::map<int, int> traced_fits;      // op id -> models_trained, traced ops
  std::map<size_t, OpOutcome> reference;  // first good op per input
  long long attempted = 0;  // op ids count up from 0
  long long ok = 0;
  double rows = 0.0;  // rows of the timed untraced ops
  double mismatch_rows = 0.0;
  std::string first_error;
  std::string probe_error;
  std::vector<double> copy_gbps;
};

// Empty when `op` repeats `reference` exactly, else what differs.
std::string CompareToReference(const OpOutcome& op, const OpOutcome& reference) {
  if (op.lambdas != reference.lambdas) return "lambda differs from the first op";
  if (op.fits != reference.fits) return "fit count differs from the first op";
  if (op.accuracy != reference.accuracy) return "accuracy differs from the first op";
  if (op.val_gap != reference.val_gap || op.test_gap != reference.test_gap) {
    return "fairness gap differs from the first op";
  }
  return "";
}

// Copy bandwidth of this process, GB/s (median of 5 copies of 64 MiB).
double CopyGbps() {
  const size_t bytes = size_t{64} << 20;
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::vector<double> rates;
  for (size_t i = 0; i < 5; ++i) {
    const int64_t t0 = NowNs();
    std::memcpy(dst.data(), src.data(), bytes);
    const int64_t t1 = NowNs();
    rates.push_back(static_cast<double>(bytes) / static_cast<double>(t1 - t0));
    src[i] = dst[bytes - 1 - i];  // keep the copies observable
  }
  return Median(rates);
}

class Runner {
 public:
  Runner(Adapter& adapter, bool trace_mode) : adapter_(adapter), trace_mode_(trace_mode) {}

  RunLog Run(double seconds) {
    if (trace_mode_) log_.copy_gbps.push_back(CopyGbps());
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    // Warm-up: lazy pool start, allocator growth and page cache, checked and
    // counted but kept out of every timing.
    Setup(0);
    RunSlot(0, 0, /*warmup=*/true);
    // Timed cycles over every input, input 0 first, so every run also
    // repeats the warm-up's op on its input. Another cycle starts only if
    // one as long as the last still ends by the deadline.
    size_t slot = 1;
    int64_t cycle_ns = 0;
    for (int cycle = 0; cycle < adapter_.min_cycles || NowNs() + cycle_ns <= deadline;
         ++cycle) {
      const int64_t start = NowNs();
      for (size_t input = 0; input < adapter_.inputs; ++input) {
        Setup(input);
        for (int k = 0; k < adapter_.ops_per_setup; ++k) RunSlot(slot++, input, false);
      }
      cycle_ns = NowNs() - start;
    }
    Tracer& tracer = Tracer::Get();
    tracer.SetOp(-1);
    if (trace_mode_ && adapter_.probe) {
      tracer.SetEnabled(true);
      log_.probe_error = adapter_.probe();
      tracer.SetEnabled(false);
    }
    if (trace_mode_) log_.copy_gbps.push_back(CopyGbps());
    return std::move(log_);
  }

 private:
  void Setup(size_t input) {
    Tracer& tracer = Tracer::Get();
    tracer.SetOp(-1);
    tracer.SetEnabled(trace_mode_);
    log_.setups.push_back(adapter_.setup(input));
    tracer.SetEnabled(false);
    const SetupOutcome& setup = log_.setups.back();
    setup_error_ = setup.ok ? "" : "set-up: " + setup.error;
  }

  // Runs slot `slot` once untraced and, in a traced run, once more traced,
  // so trace.overhead_frac compares the same work under the same host
  // conditions. The order alternates so that neither side always runs on
  // caches the other warmed.
  void RunSlot(size_t slot, size_t input, bool warmup) {
    const bool traced_first = trace_mode_ && !warmup && slot % 2 == 1;
    if (traced_first) RunOp(slot, input, true, warmup);
    RunOp(slot, input, false, warmup);
    if (trace_mode_ && !warmup && !traced_first) RunOp(slot, input, true, warmup);
  }

  void RunOp(size_t slot, size_t input, bool traced, bool warmup) {
    Tracer& tracer = Tracer::Get();
    const int id = static_cast<int>(log_.attempted++);
    tracer.SetOp(id);
    tracer.SetEnabled(traced);
    OpOutcome op = adapter_.op(slot, traced);
    tracer.SetEnabled(false);
    if (op.ok && !setup_error_.empty()) {
      op.ok = false;
      op.error = setup_error_;
    }
    if (op.ok && adapter_.repeatable) {
      const auto [reference, first] = log_.reference.try_emplace(input, op);
      if (std::string diff = CompareToReference(op, reference->second);
          !first && !diff.empty()) {
        op.ok = false;
        op.error = diff;
      }
    }
    if (op.ok) {
      ++log_.ok;
    } else if (log_.first_error.empty()) {
      log_.first_error = op.error;
    }
    log_.mismatch_rows += static_cast<double>(op.mismatch_rows);
    if (warmup) return;
    if (traced) {
      log_.traced_seconds.push_back(op.seconds);
      if (op.fits > 0) log_.traced_fits[id] = op.fits;
    } else {
      log_.op_seconds.push_back(op.seconds);
      log_.rows += static_cast<double>(op.rows);
    }
  }

  Adapter& adapter_;
  const bool trace_mode_;
  RunLog log_;
  std::string setup_error_;
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

Metrics EndToEnd(const RunLog& log) {
  Metrics m;
  std::vector<double> setup_s;
  for (size_t i = 1; i < log.setups.size(); ++i) setup_s.push_back(log.setups[i].seconds);
  std::vector<double> op_ms;
  double busy_s = 0.0;
  for (const double seconds : log.op_seconds) {
    op_ms.push_back(seconds * 1e3);
    busy_s += seconds;
  }
  m["setup_s"] = Median(setup_s);
  m["op_ms"] = Median(op_ms);
  m["op_p99_ms"] = Quantile(op_ms, 0.99);
  m["rows_per_s"] = busy_s > 0.0 ? log.rows / busy_s : 0.0;
  m["ok_frac"] = static_cast<double>(log.ok) / static_cast<double>(log.attempted);
  // Each input's results repeat exactly in every op on it; the quality
  // figures are means across inputs, the fit count a median.
  if (!log.reference.empty()) {
    const double n = static_cast<double>(log.reference.size());
    std::vector<double> fits;
    for (const auto& [input, op] : log.reference) {
      m["accuracy"] += op.accuracy / n;
      m["fair_gap"] += op.val_gap / n;
      m["test_fair_gap"] += op.test_gap / n;
      fits.push_back(op.fits);
    }
    m["fits"] = Median(fits);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return m;
}

double DurationMs(const SpanRecord& s) { return static_cast<double>(s.end_ns - s.start_ns) * 1e-6; }

// Span duration minus the part of it that its direct children cover.
double SelfMs(const std::vector<SpanRecord>& spans, size_t index) {
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent == static_cast<int>(index)) children.emplace_back(s.start_ns, s.end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t reach = spans[index].start_ns;
  for (const auto& [start, end] : children) {
    const int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(spans[index].end_ns - spans[index].start_ns - covered) * 1e-6;
}

bool Named(const SpanRecord& s, const char* name) { return std::strcmp(s.name, name) == 0; }

// Whether span `index` lies inside a span called `name`.
bool Within(const std::vector<SpanRecord>& spans, size_t index, const char* name) {
  for (int p = spans[index].parent; p >= 0; p = spans[static_cast<size_t>(p)].parent) {
    if (Named(spans[static_cast<size_t>(p)], name)) return true;
  }
  return false;
}

Metrics PerLayer(const RunLog& log, const std::vector<SpanRecord>& spans) {
  // Per-op sums over the traced ops, then medians across those ops.
  struct PerOp {
    double fit_calls = 0, fit_ms = 0, fit_rows = 0;
    double predict_calls = 0, predict_ms = 0, predict_rows = 0;
    double train_self_ms = 0, stream_ms = 0, handle_us = -1, flat_us = -1;
  };
  std::map<int, PerOp> per_op;
  std::map<std::string, std::vector<double>> samples;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double ms = DurationMs(s);
    if (s.op < 0) {  // set-ups and probes
      if (Named(s, "data.read_csv")) samples["data.read_csv.ms"].push_back(ms);
      if (Named(s, "data.split")) samples["data.split.ms"].push_back(ms);
      if (Named(s, "data.ingest")) samples["data.ingest.ms"].push_back(ms);
      if (Named(s, "data.materialize")) samples["data.materialize.ms_per_block"].push_back(ms);
      if (Named(s, "ml.bundle.open")) samples["ml.bundle.open_us"].push_back(ms * 1e3);
      if (Named(s, "serve.server_init")) samples["serve.server_init_us"].push_back(ms * 1e3);
      continue;
    }
    PerOp& op = per_op[s.op];
    if (Named(s, "ml.fit") && Within(spans, i, "core.train")) {
      op.fit_calls += 1;
      op.fit_ms += ms;
      op.fit_rows += s.rows;
    } else if (Named(s, "ml.predict") && Within(spans, i, "core.train")) {
      op.predict_calls += 1;
      op.predict_ms += ms;
      op.predict_rows += s.rows;
    } else if (Named(s, "core.train")) {
      op.train_self_ms += SelfMs(spans, i);
    } else if (Named(s, "core.stream_tune")) {
      op.stream_ms += ms;
    } else if (Named(s, "serve.encode")) {
      samples["serve.encode_us"].push_back(ms * 1e3);
    } else if (Named(s, "serve.handle")) {
      samples["serve.handle_us"].push_back(ms * 1e3);
      op.handle_us = ms * 1e3;
    } else if (Named(s, "ml.flat_predict")) {
      samples["ml.flat_predict_us"].push_back(ms * 1e3);
      op.flat_us = ms * 1e3;
    }
  }
  for (const auto& [id, op] : per_op) {
    if (op.train_self_ms > 0) {
      samples["ml.fit.calls"].push_back(op.fit_calls);
      samples["ml.fit.ms"].push_back(op.fit_ms);
      samples["ml.fit.rows"].push_back(op.fit_rows);
      samples["ml.predict.calls"].push_back(op.predict_calls);
      samples["ml.predict.ms"].push_back(op.predict_ms);
      samples["ml.predict.rows"].push_back(op.predict_rows);
      samples["core.self_ms"].push_back(op.train_self_ms);
    }
    if (const auto fits = log.traced_fits.find(id);
        op.stream_ms > 0 && fits != log.traced_fits.end()) {
      samples["core.stream_tune.ms_per_fit"].push_back(op.stream_ms / fits->second);
    }
    if (op.handle_us >= 0 && op.flat_us >= 0) {
      samples["serve.audit_us"].push_back(op.handle_us - op.flat_us);
    }
  }
  for (const auto& [id, fits] : log.traced_fits) samples["core.fits"].push_back(fits);
  for (size_t i = 1; i < log.setups.size(); ++i) {
    const SetupOutcome& s = log.setups[i];
    if (s.csv_bytes <= 0) continue;
    samples["data.ingest.parse_ms"].push_back(s.parse_s * 1e3);
    samples["data.ingest.spill_ms"].push_back(s.spill_s * 1e3);
    samples["data.ingest.csv_mbps"].push_back(s.csv_bytes / s.seconds * 1e-6);
    samples["data.ingest.spill_bytes"].push_back(s.spill_bytes);
  }

  // Only the layers the workload reached; the report reads 0 for the rest.
  Metrics m;
  for (const auto& [name, values] : samples) m[name] = Median(values);
  m["serve.mismatch_rows"] = log.mismatch_rows;
  m["hw.copy_gbps"] = Median(log.copy_gbps);
  // Every timed slot ran once traced and once untraced (see RunSlot).
  const double untraced = Median(log.op_seconds);
  m["trace.overhead_frac"] = untraced > 0 ? Median(log.traced_seconds) / untraced - 1.0 : 0.0;
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --inputs DIR [--csv-rows N] "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  Inputs inputs;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--inputs") inputs.dir = value;
    else if (flag == "--csv-rows") inputs.csv_rows = std::atoll(value);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else return Usage();
  }
  if (workload.empty() || inputs.dir.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  Adapter adapter;
  std::string error;
  // The tuning workloads' inputs are <dataset>-0.csv, <dataset>-1.csv, ...
  const auto sets = [&](const std::string& dataset) {
    std::vector<std::string> csvs;
    for (int i = 0;; ++i) {
      std::string csv = dataset + "-" + std::to_string(i) + ".csv";
      if (!std::ifstream(inputs.dir + "/" + csv)) return csvs;
      csvs.push_back(std::move(csv));
    }
  };
  if (workload == "tune-lr-sp") {
    adapter = TabularAdapter(inputs, {sets("adult"), "income_gt_50k", "sex", "lr", 0.03});
  } else if (workload == "hc-gbdt-race") {
    adapter = TabularAdapter(inputs, {sets("compas"), "two_year_recid", "race", "xgb_hist", 0.10});
  } else if (workload == "stream-lr-sp") {
    adapter = StreamAdapter(inputs);
  } else if (workload == "serve-gbdt") {
    adapter = ServeAdapter(inputs, &error);
  } else {
    error = "unknown workload " + workload;
  }
  if (error.empty() && adapter.inputs == 0) error = "no input CSVs in " + inputs.dir;
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  const RunLog log = Runner(adapter, trace == 1).Run(seconds);
  // A traced run reports the end-to-end figures too, so its fit counts and
  // quality can be compared with an untraced run's.
  Metrics metrics = EndToEnd(log);
  if (trace == 1) metrics.merge(PerLayer(log, Tracer::Get().Take()));

  std::ostringstream line;
  JsonWriter json(line);
  json.BeginObject();
  json.KV("attempted", log.attempted);
  json.KV("failed", log.attempted - log.ok);
  json.KV("probe_error", log.probe_error);
  json.KV("first_error", log.first_error);
  json.KV("setups", log.setups.size());
  if (log.op_seconds.size() <= 200) {  // every sample, where that stays readable
    json.Key("op_seconds");
    json.BeginArray();
    for (const double seconds : log.op_seconds) json.Double(seconds);
    json.EndArray();
    json.Key("setup_seconds");
    json.BeginArray();
    for (const SetupOutcome& setup : log.setups) json.Double(setup.seconds);
    json.EndArray();
  }
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, value] : metrics) json.KV(name, value);
  json.EndObject();
  json.Key("env");
  json.BeginObject();
  json.KV("simd.path", simd::BackendName(simd::ActiveBackend()));
  json.KV("pool_width", omnifair::ThreadPool::Global().NumThreads());
  json.KV("nproc", static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.KV("telemetry", static_cast<int>(omnifair::EffectiveTelemetryLevel()));
  json.KV("compiler", PERFBENCH_COMPILER);
  json.KV("cxx_flags", PERFBENCH_CXX_FLAGS);
  json.EndObject();
  json.EndObject();
  std::cout << line.str() << std::endl;
  return 0;
}
