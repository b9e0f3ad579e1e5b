// Micro-benchmarks of the data pipeline substrates: log synthesis
// throughput, CSV ingest and entity interning, feature extraction, deviation computation, compound
// matrix assembly, the critic, and the parallel ensemble runtime
// (serial-vs-parallel train+score speedup).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "behavior/compound_matrix.h"
#include "behavior/normalized_day.h"
#include "common/health.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/attribution.h"
#include "core/critic.h"
#include "core/ensemble.h"
#include "features/cert_features.h"
#include "logs/entity_table.h"
#include "logs/log_io.h"
#include "logs/log_sink.h"
#include "simdata/cert_simulator.h"

using namespace acobe;

namespace {

sim::CertSimConfig SmallSim(int users_per_department) {
  sim::CertSimConfig cfg;
  cfg.org.departments = 2;
  cfg.org.users_per_department = users_per_department;
  cfg.org.extra_users = 0;
  cfg.start = Date(2010, 1, 2);
  cfg.end = Date(2010, 3, 31);
  cfg.profiles.rate_scale = 0.5;
  cfg.seed = 11;
  return cfg;
}

void BM_SimulateLogs(benchmark::State& state) {
  const int users = state.range(0);
  std::size_t events = 0;
  for (auto _ : state) {
    LogStore store;
    sim::CertSimulator simulator(SmallSim(users), store);
    LogStore sink;
    simulator.Run(sink);
    events = sink.TotalEvents();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_SimulateLogs)->Arg(10)->Arg(40);

void BM_ExtractFeatures(benchmark::State& state) {
  LogStore store;
  sim::CertSimulator simulator(SmallSim(20), store);
  LogStore sink;
  simulator.Run(sink);
  sink.SortChronologically();
  const int days =
      static_cast<int>(DaysBetween(Date(2010, 1, 2), Date(2010, 3, 31))) + 1;
  for (auto _ : state) {
    CertAcobeExtractor extractor(Date(2010, 1, 2), days);
    ReplayStore(sink, extractor);
    benchmark::DoNotOptimize(extractor.cube().users());
  }
  state.SetItemsProcessed(state.iterations() * sink.TotalEvents());
}
BENCHMARK(BM_ExtractFeatures);

MeasurementCube MakeCube(int users, int days) {
  MeasurementCube cube(Date(2010, 1, 2), days, 16, 2);
  Rng rng(3);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(u);
    for (int f = 0; f < 16; ++f) {
      for (int d = 0; d < days; ++d) {
        for (int t = 0; t < 2; ++t) {
          cube.At(u, f, d, t) = static_cast<float>(rng.NextPoisson(4.0));
        }
      }
    }
  }
  return cube;
}

void BM_DeviationCompute(benchmark::State& state) {
  const int users = state.range(0);
  const MeasurementCube cube = MakeCube(users, 365);
  DeviationConfig cfg;
  cfg.omega = 30;
  for (auto _ : state) {
    auto dev = DeviationSeries::Compute(cube, cfg);
    benchmark::DoNotOptimize(dev.entities());
  }
  state.SetItemsProcessed(state.iterations() * users * 16 * 365 * 2);
}
BENCHMARK(BM_DeviationCompute)->Arg(25)->Arg(100);

void BM_CompoundMatrixBuild(benchmark::State& state) {
  const MeasurementCube cube = MakeCube(25, 365);
  DeviationConfig cfg;
  cfg.omega = 30;
  cfg.include_group = false;
  const auto dev = DeviationSeries::Compute(cube, cfg);
  CompoundMatrixBuilder builder(&dev, {}, {});
  std::vector<int> features;
  for (int f = 0; f < 16; ++f) features.push_back(f);
  for (auto _ : state) {
    auto m = builder.Build(0, features, 100);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompoundMatrixBuild);

std::vector<AspectGroup> MakeAspects(int n_aspects, int features_per_aspect) {
  std::vector<AspectGroup> aspects;
  for (int a = 0; a < n_aspects; ++a) {
    AspectGroup g;
    g.name = "aspect" + std::to_string(a);
    for (int f = 0; f < features_per_aspect; ++f) {
      g.feature_indices.push_back(a * features_per_aspect + f);
    }
    aspects.push_back(std::move(g));
  }
  return aspects;
}

EnsembleConfig SmallEnsembleConfig(int threads) {
  EnsembleConfig cfg;
  cfg.encoder_dims = {32, 16};
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.learning_rate = 1e-3f;
  cfg.train.epochs = 4;
  cfg.train.batch_size = 32;
  cfg.threads = threads;
  return cfg;
}

double TrainScoreSeconds(const MeasurementCube& cube, int users,
                         int threads) {
  NormalizedDayBuilder builder(&cube, 0, 60);
  const auto start = std::chrono::steady_clock::now();
  AspectEnsemble ensemble(MakeAspects(4, 4), SmallEnsembleConfig(threads));
  ensemble.Train(builder, users, 0, 60);
  const ScoreGrid grid = ensemble.Score(builder, users, 60, 90);
  benchmark::DoNotOptimize(grid.users());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Multi-aspect train+score at a fixed thread count (real time, since
/// the work happens on pool workers).
void BM_EnsembleTrainScore(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int users = 24;
  const MeasurementCube cube = MakeCube(users, 90);
  for (auto _ : state) {
    TrainScoreSeconds(cube, users, threads);
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_EnsembleTrainScore)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// End-to-end serial-vs-parallel comparison in one benchmark so the
/// speedup lands directly in BENCH output. Parallel uses the resolved
/// default (ACOBE_THREADS env or hardware concurrency).
void BM_EnsembleParallelSpeedup(benchmark::State& state) {
  const int users = 24;
  const MeasurementCube cube = MakeCube(users, 90);
  const int parallel_threads = DefaultThreadCount();
  double serial_s = 0.0, parallel_s = 0.0;
  for (auto _ : state) {
    serial_s += TrainScoreSeconds(cube, users, /*threads=*/1);
    parallel_s += TrainScoreSeconds(cube, users, parallel_threads);
  }
  state.counters["serial_ms"] = 1e3 * serial_s / state.iterations();
  state.counters["parallel_ms"] = 1e3 * parallel_s / state.iterations();
  state.counters["threads"] = parallel_threads;
  state.counters["speedup"] = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
}
BENCHMARK(BM_EnsembleParallelSpeedup)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The <2% overhead contract: the same train+score pipeline with the
/// metrics registry off vs on (spans, counters, histograms all active).
/// Reported as overhead_pct; trace buffering is measured separately by
/// the tracing_pct counter since it additionally records events.
void BM_TelemetryOverhead(benchmark::State& state) {
  const int users = 24;
  const MeasurementCube cube = MakeCube(users, 90);
  const bool metrics_was = telemetry::MetricsEnabled();
  const bool tracing_was = telemetry::TracingEnabled();
  double off_s = 0.0, on_s = 0.0, trace_s = 0.0;
  for (auto _ : state) {
    telemetry::EnableMetrics(false);
    telemetry::EnableTracing(false);
    off_s += TrainScoreSeconds(cube, users, /*threads=*/2);
    telemetry::EnableMetrics(true);
    on_s += TrainScoreSeconds(cube, users, /*threads=*/2);
    telemetry::EnableTracing(true);
    trace_s += TrainScoreSeconds(cube, users, /*threads=*/2);
  }
  telemetry::EnableMetrics(metrics_was);
  telemetry::EnableTracing(tracing_was);
  state.counters["off_ms"] = 1e3 * off_s / state.iterations();
  state.counters["on_ms"] = 1e3 * on_s / state.iterations();
  state.counters["overhead_pct"] =
      off_s > 0.0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
  state.counters["tracing_pct"] =
      off_s > 0.0 ? 100.0 * (trace_s - off_s) / off_s : 0.0;
}
BENCHMARK(BM_TelemetryOverhead)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The health plane's own <2% contract: the same metrics-on train+score
/// pipeline with and without the background heartbeat sampler running
/// (stage tracking, span-stack bookkeeping and the crash snapshot
/// double-buffer are always on; the sampler at a 50ms interval is the
/// only part this toggles). Reported as health_pct.
void BM_HealthOverhead(benchmark::State& state) {
  const int users = 24;
  const MeasurementCube cube = MakeCube(users, 90);
  const bool metrics_was = telemetry::MetricsEnabled();
  telemetry::EnableMetrics(true);
  const std::string heartbeat_path =
      std::filesystem::temp_directory_path() /
      ("acobe-bench-health-" + std::to_string(::getpid()) + ".jsonl");
  double off_s = 0.0, on_s = 0.0;
  for (auto _ : state) {
    off_s += TrainScoreSeconds(cube, users, /*threads=*/2);
    health::HealthOptions opts;
    opts.path = heartbeat_path;
    opts.interval_ms = 50;
    opts.tool = "micro-pipeline";
    opts.crash_recorder = false;  // don't hook the bench's signals
    if (!health::StartHealth(opts)) {
      state.SkipWithError("StartHealth failed");
      break;
    }
    health::SetStage("bench", 1);
    on_s += TrainScoreSeconds(cube, users, /*threads=*/2);
    health::StageAdvance();
    health::StopHealth();
  }
  telemetry::EnableMetrics(metrics_was);
  std::error_code ec;
  std::filesystem::remove(heartbeat_path, ec);
  state.counters["off_ms"] = 1e3 * off_s / state.iterations();
  state.counters["on_ms"] = 1e3 * on_s / state.iterations();
  state.counters["health_pct"] =
      off_s > 0.0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
}
BENCHMARK(BM_HealthOverhead)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One detection pass (train + score + rank), optionally followed by
/// the per-detection attribution pass (core/attribution.h).
double DetectSeconds(const MeasurementCube& cube, int users, bool attribute) {
  NormalizedDayBuilder builder(&cube, 0, 60);
  const auto start = std::chrono::steady_clock::now();
  AspectEnsemble ensemble(MakeAspects(4, 4), SmallEnsembleConfig(2));
  ensemble.Train(builder, users, 0, 60);
  const ScoreGrid grid = ensemble.Score(builder, users, 60, 90);
  const auto list = RankUsers(grid, 3);
  benchmark::DoNotOptimize(list.size());
  if (attribute) {
    AttributionConfig cfg;
    cfg.enabled = true;
    cfg.top_users = 10;
    cfg.top_cells = 5;
    const auto attributions =
        AttributeDetections(ensemble, builder, grid, list, cfg);
    benchmark::DoNotOptimize(attributions.size());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The <5% attribution-overhead contract: detection with attribution
/// off is the unchanged pipeline (attribution never touches the
/// scoring path); with it on, the added cost is one inference batch
/// per attributed (user, aspect). Reported as attribution_pct.
void BM_AttributionOverhead(benchmark::State& state) {
  const int users = 24;
  const MeasurementCube cube = MakeCube(users, 90);
  double off_s = 0.0, on_s = 0.0;
  for (auto _ : state) {
    off_s += DetectSeconds(cube, users, /*attribute=*/false);
    on_s += DetectSeconds(cube, users, /*attribute=*/true);
  }
  state.counters["off_ms"] = 1e3 * off_s / state.iterations();
  state.counters["on_ms"] = 1e3 * on_s / state.iterations();
  state.counters["attribution_pct"] =
      off_s > 0.0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
}
BENCHMARK(BM_AttributionOverhead)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Critic(benchmark::State& state) {
  const int users = state.range(0);
  ScoreGrid grid({"a", "b", "c"}, users, 0, 30);
  Rng rng(9);
  for (int a = 0; a < 3; ++a) {
    for (int u = 0; u < users; ++u) {
      for (int d = 0; d < 30; ++d) {
        grid.At(a, u, d) = static_cast<float>(rng.NextDouble());
      }
    }
  }
  for (auto _ : state) {
    auto list = RankUsers(grid, 3);
    benchmark::DoNotOptimize(list.data());
  }
  state.SetItemsProcessed(state.iterations() * users);
}
BENCHMARK(BM_Critic)->Arg(100)->Arg(1000);

/// Counts events and drops them: isolates CSV parsing and interning
/// from any downstream store or spool.
class CountingSink : public LogSink {
 public:
  void Consume(const LogonEvent&) override { ++rows; }
  void Consume(const DeviceEvent&) override { ++rows; }
  void Consume(const FileEvent&) override { ++rows; }
  void Consume(const HttpEvent&) override { ++rows; }
  void Consume(const EmailEvent&) override { ++rows; }
  void Consume(const EnterpriseEvent&) override { ++rows; }
  void Consume(const ProxyEvent&) override { ++rows; }
  std::size_t rows = 0;
};

/// CSV ingest rate (items = rows) of ReadFileCsv (arg 0) and ReadHttpCsv
/// (arg 1) over a simulated CERT-layout log held in memory, interning
/// into a fresh catalog each iteration as a detect run does.
void BM_IngestCsv(benchmark::State& state) {
  const bool http = state.range(0) == 1;
  LogStore store;
  sim::CertSimulator simulator(SmallSim(40), store);
  simulator.Run(store);
  std::ostringstream csv;
  if (http) {
    WriteHttpCsv(store, csv);
  } else {
    WriteFileCsv(store, csv);
  }
  const std::string text = csv.str();
  std::size_t rows = 0;
  for (auto _ : state) {
    EntityCatalog tables;
    CountingSink sink;
    std::istringstream in(text);
    if (http) {
      ReadHttpCsv(in, tables, sink, IngestOptions{});
    } else {
      ReadFileCsv(in, tables, sink, IngestOptions{});
    }
    rows = sink.rows;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetBytesProcessed(state.iterations() * text.size());
  state.counters["rows"] = static_cast<double>(rows);
  state.SetLabel(http ? "http.csv" : "file.csv");
}
BENCHMARK(BM_IngestCsv)->Arg(0)->Arg(1);

/// EntityTable::Lookup rate (items = lookups) at ~120k interned names,
/// probed in a shuffled order so the access pattern is not sequential.
void BM_EntityIntern(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("share/dept-" + std::to_string(i % 12) + "/doc-" +
                    std::to_string(i));
  }
  EntityTable table;
  for (const std::string& name : names) table.Intern(name);
  Rng rng(5);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(names[i - 1], names[rng.NextBounded(i)]);
  }
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (const std::string& name : names) sum += table.Lookup(name);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EntityIntern)->Arg(120000);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off --metrics-out/
// --trace-out (google-benchmark rejects flags it does not know) and
// flush the telemetry registry after the run so micro benches emit the
// same JSON artifacts as the tools.
int main(int argc, char** argv) {
  std::string metrics_out, trace_out;
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  telemetry::EnableMetrics(true);
  telemetry::EnableTracing(!trace_out.empty());

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!telemetry::FlushTelemetry("micro_pipeline", metrics_out, trace_out,
                                 std::cerr)) {
    return 1;
  }
  return 0;
}
