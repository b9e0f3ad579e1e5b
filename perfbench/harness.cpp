// perfbench_harness: the benchmark's in-process half. It calls the
// public functions of the system's modules directly and records its own
// spans around those calls; nothing inside src/ is instrumented for it.
//
//   perfbench_harness detect --in=DIR --train-end=DATE --list-out=FILE
//                     --report-out=FILE [--epochs=N] [--threads=N]
//                     [--stream --shards=N --spool-dir=DIR] [--run-id=ID]
//       Replays acobe_detect's pipeline (in-memory, or --stream) call for
//       call, with a span around each layer call. Writes the printed
//       investigation lists exactly as acobe_detect prints them with a
//       --top at or above the department size, so the two can be
//       byte-compared, and a JSON report with the spans and layer counts.
//
//   perfbench_harness serve --staging=DIR --work=DIR --roster=FILE
//                     --report-out=FILE [--trace] [--run-id=ID]
//       Runs a ServiceSupervisor in this process over the batch
//       directories under --staging in a closed loop: each batch is
//       copied into the watch directory (READY written last) only after
//       the previous ProcessAvailableBatches() call returned.
//
//   perfbench_harness auc --list=FILE --truth=FILE
//       Reads printed investigation lists and truth.csv and prints the
//       per-department eval::RocAuc of the planted insiders as JSON.
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "behavior/compound_matrix.h"
#include "behavior/deviation.h"
#include "common/date.h"
#include "common/faults.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/telemetry.h"
#include "common/timeframe.h"
#include "core/critic.h"
#include "core/detector.h"
#include "core/ensemble.h"
#include "eval/metrics.h"
#include "features/cert_features.h"
#include "features/measurement_cube.h"
#include "features/shard_extract.h"
#include "logs/log_io.h"
#include "logs/log_store.h"
#include "logs/spool.h"
#include "service/supervisor.h"

using namespace acobe;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// acobe_detect's event-timestamp plausibility window and spool budget.
constexpr std::int64_t kTsMin = 315532800;
constexpr std::int64_t kTsMax = 4102444800;
constexpr std::size_t kSpoolBufferBytes = 256u << 20;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// JSON number with enough digits for span timestamps and flop counts
/// (telemetry::JsonNumber keeps only six).
void Num(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  out << buf;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// In-memory span log: name, start, end, parent span. Written out once,
/// when the run ends. A disabled recorder records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, Seconds(epoch_, Clock::now()), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Seconds(epoch_, Clock::now());
    stack_.pop_back();
  }

  void WriteJson(std::ostream& out) const {
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) out << ',';
      out << "\n{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start\":";
      Num(out, s.start);
      out << ",\"end\":";
      Num(out, s.end);
      out << ",\"parent\":" << s.parent << '}';
    }
    out << ']';
  }

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.Begin(name)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Named layer counts, emitted next to the spans.
using Counts = std::map<std::string, double>;

void WriteCounts(std::ostream& out, const Counts& counts) {
  out << '{';
  bool first = true;
  for (const auto& [name, value] : counts) {
    if (!first) out << ',';
    first = false;
    out << "\n\"" << name << "\":";
    Num(out, value);
  }
  out << '}';
}

std::string FlagValue(int argc, char** argv, const char* flag,
                      const std::string& fallback = "") {
  const std::size_t n = std::strlen(flag);
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') {
      return argv[i] + n + 1;
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::string Required(int argc, char** argv, const char* flag) {
  std::string v = FlagValue(argc, argv, flag);
  if (v.empty()) throw std::invalid_argument(std::string("missing ") + flag);
  return v;
}

int IntFlag(int argc, char** argv, const char* flag, int fallback) {
  const std::string v = FlagValue(argc, argv, flag);
  return v.empty() ? fallback : std::stoi(v);
}

// --- detect ----------------------------------------------------------------

struct DeptResult {
  std::string name;
  std::vector<UserId> members;
  std::vector<InvestigationEntry> list;
};

struct LayerTotals {
  IngestStats ingest;
  double train_cpu_s = 0.0;
  double score_cpu_s = 0.0;
  double cells = 0.0;
  double events_replayed = 0.0;
  double spool_bytes = 0.0;
};

/// One department, the way Detector::Run does it, with a span around
/// each layer call: behavior (deviation series), core (train, score,
/// calibrate, rank).
DeptResult DetectDepartment(SpanRecorder& rec, LayerTotals& totals,
                            const DetectorSpec& spec,
                            const MeasurementCube& cube,
                            const FeatureCatalog& catalog,
                            const std::string& department,
                            const std::vector<UserId>& members, int train_end,
                            int test_end) {
  std::vector<int> member_map;
  std::vector<UserId> member_ids;
  for (UserId user : members) {
    const int idx = cube.UserIndex(user);
    if (idx < 0) continue;
    member_map.push_back(idx);
    member_ids.push_back(user);
  }
  if (member_map.empty()) {
    throw std::runtime_error("no member of " + department + " has events");
  }
  const int n_members = static_cast<int>(member_map.size());

  std::unique_ptr<DeviationSeries> user_series;
  std::unique_ptr<CompoundMatrixBuilder> base_builder;
  {
    ScopedSpan span(rec, "behavior.deviation");
    DeviationConfig dev_config = spec.deviation;
    if (dev_config.threads == 0) dev_config.threads = spec.ensemble.threads;
    user_series = std::make_unique<DeviationSeries>(
        DeviationSeries::Compute(cube, dev_config));
    const std::vector<float> mean =
        TrimmedGroupMeanSeries(cube, member_map, spec.deviation.group_trim);
    std::vector<DeviationSeries> groups;
    groups.push_back(DeviationSeries::ComputeFromSeries(
        mean, cube.features(), cube.days(), cube.frames(), spec.deviation));
    totals.cells += static_cast<double>(user_series->entities() + 1) *
                    user_series->features() * user_series->days() *
                    user_series->frames();
    base_builder = std::make_unique<CompoundMatrixBuilder>(
        user_series.get(), std::move(groups),
        std::vector<int>(static_cast<std::size_t>(cube.users()), 0));
  }
  const SubsetBuilder builder(base_builder.get(), member_map);

  AspectEnsemble ensemble(catalog.aspects(), spec.ensemble);
  {
    ScopedSpan span(rec, "core.train");
    const double cpu0 = CpuSeconds();
    ensemble.Train(builder, n_members, 0, train_end);
    totals.train_cpu_s += CpuSeconds() - cpu0;
  }
  ScoreGrid grid, train_grid;
  {
    ScopedSpan span(rec, "core.score");
    const double cpu0 = CpuSeconds();
    grid = ensemble.Score(builder, n_members, train_end, test_end);
    train_grid = ensemble.Score(builder, n_members, 0, train_end);
    totals.score_cpu_s += CpuSeconds() - cpu0;
  }
  {
    // Detector::Run's per-user calibration, step for step.
    ScopedSpan span(rec, "core.calibrate");
    const int threads = spec.ensemble.threads;
    for (int a = 0; a < grid.aspects(); ++a) {
      std::vector<double> user_mean(static_cast<std::size_t>(n_members), 0.0);
      ParallelFor(0, n_members, threads, [&](int u) {
        for (int d = train_grid.day_begin(); d < train_grid.day_end(); ++d) {
          user_mean[u] += train_grid.At(a, u, d);
        }
        user_mean[u] /= train_grid.day_count();
      });
      double population_mean = 0.0;
      for (int u = 0; u < n_members; ++u) population_mean += user_mean[u];
      population_mean /= n_members;
      ParallelFor(0, n_members, threads, [&](int u) {
        const float denom = static_cast<float>(
            user_mean[u] + 0.5 * population_mean + 1e-9);
        for (int d = grid.day_begin(); d < grid.day_end(); ++d) {
          grid.At(a, u, d) /= denom;
        }
      });
    }
  }
  DeptResult result;
  {
    ScopedSpan span(rec, "core.rank");
    result.list = RankUsers(grid, spec.critic_votes, spec.score_top_k_days);
  }
  result.name = department;
  result.members = std::move(member_ids);
  return result;
}

/// Reads one CERT CSV if present, adding its ingest stats to the totals.
template <typename ReadFn>
bool ReadCsv(SpanRecorder& rec, LayerTotals& totals, const std::string& dir,
             const std::string& name, const IngestOptions& options,
             ReadFn&& read) {
  ScopedSpan span(rec, "logs.read");
  std::ifstream in(dir + "/" + name);
  if (!in) return false;
  totals.ingest.Merge(read(in, options));
  return true;
}

int RunDetect(int argc, char** argv) {
  const std::string in_dir = Required(argc, argv, "--in");
  const std::string list_out = Required(argc, argv, "--list-out");
  const std::string report_out = Required(argc, argv, "--report-out");
  const Date train_end_date =
      Date::FromString(Required(argc, argv, "--train-end"));
  const bool stream = HasFlag(argc, argv, "--stream");
  const int shards = IntFlag(argc, argv, "--shards", 8);
  const std::string spool_dir =
      FlagValue(argc, argv, "--spool-dir", in_dir + "/.perfbench-spool");

  DetectorSpec spec;  // acobe_detect's spec at its defaults
  spec.deviation.omega = 14;
  spec.deviation.matrix_days = 14;
  spec.ensemble.encoder_dims = {64, 32, 16, 8};
  spec.ensemble.train.epochs = IntFlag(argc, argv, "--epochs", 25);
  spec.ensemble.train_stride = 2;
  spec.ensemble.optimizer = OptimizerKind::kAdam;
  spec.ensemble.learning_rate = 1e-3f;
  spec.critic_votes = 2;
  spec.ensemble.threads = IntFlag(argc, argv, "--threads", 0);

  IngestOptions ingest;
  ingest.ts_min = kTsMin;
  ingest.ts_max = kTsMax;

  telemetry::EnableMetrics(true);  // as acobe_detect runs
  SpanRecorder rec(true);
  LayerTotals totals;
  std::vector<DeptResult> results;
  const EntityCatalog* tables_view = nullptr;

  LogStore store;
  EntityCatalog streaming_tables;
  const Clock::time_point t0 = Clock::now();
  const int root = rec.Begin("detect");
  Timestamp lo = std::numeric_limits<Timestamp>::max();
  Timestamp hi = std::numeric_limits<Timestamp>::min();
  std::unique_ptr<ShardSpooler> spooler;
  std::vector<std::string> departments;

  if (stream) {
    tables_view = &streaming_tables;
    EntityCatalog& tables = streaming_tables;
    const bool roster = ReadCsv(
        rec, totals, in_dir, "ldap.csv", ingest,
        [&](std::istream& in, const IngestOptions& o) {
          return ReadLdapCsv(in, tables, o, "ldap.csv");
        });
    if (!roster || tables.ldap().empty()) {
      throw std::runtime_error("no roster under " + in_dir);
    }
    departments = tables.Departments();
    const int n_shards = std::max(
        1, std::min(shards, static_cast<int>(departments.size())));
    spooler = std::make_unique<ShardSpooler>(spool_dir, n_shards,
                                             kSpoolBufferBytes);
    std::map<std::string, int> dept_shard;
    for (std::size_t d = 0; d < departments.size(); ++d) {
      dept_shard[departments[d]] = static_cast<int>(d) % n_shards;
    }
    for (const LdapRecord& r : tables.ldap()) {
      spooler->AssignUser(r.user, dept_shard[r.department]);
    }
    using Reader = IngestStats (*)(std::istream&, EntityCatalog&, LogSink&,
                                   const IngestOptions&, const std::string&);
    const std::pair<const char*, Reader> readers[] = {
        {"device.csv", ReadDeviceCsv}, {"file.csv", ReadFileCsv},
        {"http.csv", ReadHttpCsv},     {"logon.csv", ReadLogonCsv}};
    for (const auto& [name, reader] : readers) {
      ReadCsv(rec, totals, in_dir, name, ingest,
              [&](std::istream& in, const IngestOptions& o) {
                return reader(in, tables, *spooler, o, name);
              });
    }
    {
      ScopedSpan span(rec, "logs.spool_finish");
      spooler->Finish();
    }
    totals.spool_bytes = static_cast<double>(spooler->bytes_spooled());
    lo = spooler->ts_lo();
    hi = spooler->ts_hi();
  } else {
    tables_view = &store;
    using Reader = IngestStats (*)(std::istream&, LogStore&,
                                   const IngestOptions&, const std::string&);
    const std::pair<const char*, Reader> readers[] = {
        {"device.csv", ReadDeviceCsv}, {"file.csv", ReadFileCsv},
        {"http.csv", ReadHttpCsv},     {"logon.csv", ReadLogonCsv},
        {"ldap.csv", ReadLdapCsv}};
    for (const auto& [name, reader] : readers) {
      ReadCsv(rec, totals, in_dir, name, ingest,
              [&](std::istream& in, const IngestOptions& o) {
                return reader(in, store, o, name);
              });
    }
    {
      ScopedSpan span(rec, "logs.sort");
      store.SortChronologically();
    }
    auto scan = [&](const auto& events) {
      for (const auto& e : events) {
        lo = std::min(lo, e.ts);
        hi = std::max(hi, e.ts);
      }
    };
    scan(store.devices());
    scan(store.file_events());
    scan(store.http_events());
    scan(store.logons());
    departments = store.Departments();
  }
  if (lo > hi) throw std::runtime_error("no events under " + in_dir);
  const Date start = DateOf(lo);
  const int days = static_cast<int>(DaysBetween(start, DateOf(hi))) + 1;
  const int train_end = static_cast<int>(DaysBetween(start, train_end_date));
  const int test_end = days;
  // acobe_detect's catalog anchor for the streaming path.
  const CertAcobeExtractor meta(start, 1);
  const EntityCatalog& tables = *tables_view;

  if (stream) {
    const int n_shards = spooler->shards();
    for (int s = 0; s < n_shards; ++s) {
      DepartmentDemux demux(start, days);
      std::vector<std::pair<std::string, std::vector<UserId>>> shard_depts;
      for (std::size_t d = 0; d < departments.size(); ++d) {
        if (static_cast<int>(d) % n_shards != s) continue;
        auto members = tables.UsersInDepartment(departments[d]);
        if (members.size() < 3) continue;
        demux.AddDepartment(departments[d], members);
        shard_depts.emplace_back(departments[d], std::move(members));
      }
      if (shard_depts.empty()) continue;
      {
        ScopedSpan span(rec, "features.replay");
        spooler->Replay(s, demux);
      }
      totals.events_replayed += static_cast<double>(demux.events_routed());
      for (int d = 0; d < demux.departments(); ++d) {
        const auto& [department, members] = shard_depts[d];
        results.push_back(DetectDepartment(
            rec, totals, spec, demux.extractor(d).cube(),
            meta.catalog(), department, members, train_end,
            test_end));
      }
    }
    std::map<std::string, std::size_t> order;
    for (std::size_t d = 0; d < departments.size(); ++d) {
      order[departments[d]] = d;
    }
    std::sort(results.begin(), results.end(),
              [&](const DeptResult& a, const DeptResult& b) {
                return order[a.name] < order[b.name];
              });
    spooler->Remove();
  } else {
    CertAcobeExtractor extractor(start, days);
    {
      ScopedSpan span(rec, "features.replay");
      ReplayStore(store, extractor);
      for (const LdapRecord& r : store.ldap()) {
        extractor.cube().RegisterUser(r.user);
      }
    }
    totals.events_replayed = static_cast<double>(store.TotalEvents());
    for (const std::string& department : departments) {
      const auto members = store.UsersInDepartment(department);
      if (members.size() < 3) continue;
      results.push_back(DetectDepartment(rec, totals, spec, extractor.cube(),
                                         extractor.catalog(), department,
                                         members, train_end, test_end));
    }
  }

  {
    ScopedSpan span(rec, "emit");
    std::ofstream out(list_out, std::ios::trunc);
    char line[256];
    for (const DeptResult& r : results) {
      std::snprintf(line, sizeof(line), "\n=== %s (%zu users) ===\n",
                    r.name.c_str(), r.members.size());
      out << line;
      for (std::size_t i = 0; i < r.list.size(); ++i) {
        const UserId user = r.members[r.list[i].user_idx];
        std::snprintf(line, sizeof(line), "%3zu. %-10s priority %.0f\n", i + 1,
                      tables.users().NameOf(user).c_str(), r.list[i].priority);
        out << line;
      }
    }
    if (!out) throw std::runtime_error("cannot write " + list_out);
  }
  rec.End(root);
  const double wall = Seconds(t0, Clock::now());

  Counts counts;
  counts["wall_s"] = wall;
  counts["logs.rows"] = static_cast<double>(totals.ingest.rows_read);
  counts["logs.rows_rejected"] = static_cast<double>(totals.ingest.rows_rejected);
  counts["logs.spool_bytes"] = totals.spool_bytes;
  counts["features.events"] = totals.events_replayed;
  counts["behavior.cells"] = totals.cells;
  counts["core.train_cpu_s"] = totals.train_cpu_s;
  counts["core.score_cpu_s"] = totals.score_cpu_s;
  counts["nn.gemm_flops"] =
      static_cast<double>(telemetry::GetCounter("nn.gemm.flops").value());
  counts["nn.epochs"] =
      static_cast<double>(telemetry::GetCounter("nn.epochs").value());
  counts["departments"] = static_cast<double>(results.size());
  counts["peak_rss_bytes"] = static_cast<double>(PeakRssBytes());

  std::ofstream report(report_out, std::ios::trunc);
  report << "{\"run_id\":\"" << FlagValue(argc, argv, "--run-id", "detect")
         << "\",\"counts\":";
  WriteCounts(report, counts);
  report << ",\"spans\":";
  rec.WriteJson(report);
  report << "}\n";
  if (!report) throw std::runtime_error("cannot write " + report_out);
  return 0;
}

// --- serve -----------------------------------------------------------------

void CopyBatch(const fs::path& from, const fs::path& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), to / entry.path().filename(),
                  fs::copy_options::overwrite_existing);
  }
  std::ofstream ready(to / "READY");  // the marker lands last
}

int RunServe(int argc, char** argv) {
  const fs::path staging = Required(argc, argv, "--staging");
  const fs::path work = Required(argc, argv, "--work");
  const std::string report_out = Required(argc, argv, "--report-out");
  const bool trace = HasFlag(argc, argv, "--trace");

  std::vector<std::string> batches;
  for (const auto& entry : fs::directory_iterator(staging)) {
    if (entry.is_directory()) batches.push_back(entry.path().filename());
  }
  std::sort(batches.begin(), batches.end());
  if (batches.empty()) throw std::runtime_error("no staged batches");

  ServiceConfig cfg;  // acobe_serve's defaults for every other knob
  cfg.watch_dir = (work / "watch").string();
  cfg.out_dir = (work / "out").string();
  cfg.roster_path = Required(argc, argv, "--roster");
  cfg.window_days = IntFlag(argc, argv, "--window-days", 28);
  cfg.train_days = IntFlag(argc, argv, "--train-days", 14);
  cfg.omega = IntFlag(argc, argv, "--omega", 7);
  cfg.epochs = IntFlag(argc, argv, "--epochs", 6);
  cfg.shards = IntFlag(argc, argv, "--shards", 2);
  cfg.ingest.ts_min = kTsMin;
  cfg.ingest.ts_max = kTsMax;
  fs::create_directories(cfg.watch_dir);

  telemetry::EnableMetrics(true);  // as acobe_serve runs
  SpanRecorder rec(trace);
  std::ostringstream cycles_json;
  double start_s = 0.0, warmup_s = 0.0;
  std::size_t scored_seen = 0;
  const Clock::time_point t0 = Clock::now();
  const int root = rec.Begin("serve");
  {
    const Clock::time_point s0 = Clock::now();
    const int start_span = rec.Begin("service.start");
    ServiceSupervisor sup(cfg);
    sup.Start();
    rec.End(start_span);
    start_s = Seconds(s0, Clock::now());
    const std::size_t expected = sup.departments();

    int warmup_span = rec.Begin("service.warmup");
    cycles_json << '[';
    for (std::size_t b = 0; b < batches.size(); ++b) {
      {
        ScopedSpan span(rec, "service.release");
        CopyBatch(staging / batches[b], fs::path(cfg.watch_dir) / batches[b]);
      }
      const Clock::time_point c0 = Clock::now();
      std::vector<CycleReport> reports;
      {
        ScopedSpan span(rec, "service.cycle");
        reports = sup.ProcessAvailableBatches();
      }
      const double wall = Seconds(c0, Clock::now());
      if (reports.size() != 1 || reports[0].batch != batches[b]) {
        throw std::runtime_error("batch " + batches[b] +
                                 " was not consumed as one cycle");
      }
      const CycleReport& r = reports[0];
      const bool scored = r.scored_to >= r.scored_from;
      if (scored && scored_seen++ == 0) {
        // The first scored cycle ends the warm-up that filled the first
        // training window.
        rec.End(warmup_span);
        warmup_span = -1;
        warmup_s = Seconds(s0, c0) - start_s;
      }
      const ServiceStatus status = sup.Status();
      std::uint64_t failures = 0, quarantined = 0, shed = 0;
      for (const ShardStatus& s : status.shards) {
        failures += s.failures;
        quarantined += s.quarantined ? 1 : 0;
        shed += s.queue_shed;
      }
      if (b) cycles_json << ',';
      cycles_json << "\n{\"batch\":\"" << r.batch << "\",\"wall_s\":";
      Num(cycles_json, wall);
      cycles_json << ",\"scored\":" << (scored ? "true" : "false")
                  << ",\"departments_scored\":" << r.departments_scored
                  << ",\"departments_expected\":" << (scored ? expected : 0)
                  << ",\"events_admitted\":" << r.events_admitted
                  << ",\"events_dropped\":" << r.events_dropped
                  << ",\"shard_failures\":" << failures
                  << ",\"shards_quarantined\":" << quarantined
                  << ",\"events_shed\":" << shed << '}';
    }
    rec.End(warmup_span);  // no-op once closed
    cycles_json << ']';
    sup.Finish("drained");
    rec.End(root);

    Counts counts;
    counts["wall_s"] = Seconds(t0, Clock::now());
    counts["start_s"] = start_s;
    counts["warmup_s"] = warmup_s;
    counts["departments"] = static_cast<double>(expected);
    std::uint64_t queue_peak = 0, failures = 0, shed = 0;
    for (const ShardStatus& s : sup.Status().shards) {
      queue_peak = std::max<std::uint64_t>(queue_peak, s.queue_peak_rows);
      failures += s.failures;
      shed += s.queue_shed;
    }
    counts["service.queue_peak_rows"] = static_cast<double>(queue_peak);
    counts["service.shard_failures"] = static_cast<double>(failures);
    counts["service.events_shed"] = static_cast<double>(shed);
    counts["nn.gemm_flops"] =
        static_cast<double>(telemetry::GetCounter("nn.gemm.flops").value());
    counts["nn.epochs"] =
        static_cast<double>(telemetry::GetCounter("nn.epochs").value());
    counts["peak_rss_bytes"] = static_cast<double>(PeakRssBytes());

    std::ostringstream stats_json;
    stats_json << '[';
    const std::vector<service::CycleStat> stats =
        sup.cycle_stats().Recent(sup.cycle_stats().capacity());
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const service::CycleStat& s = stats[i];
      if (i) stats_json << ',';
      stats_json << "\n{\"batch\":\"" << s.batch << "\",\"ingest_s\":";
      Num(stats_json, s.ingest_s);
      stats_json << ",\"train_s\":";
      Num(stats_json, s.train_s);
      stats_json << ",\"score_s\":";
      Num(stats_json, s.score_s);
      stats_json << ",\"commit_s\":";
      Num(stats_json, s.commit_s);
      stats_json << ",\"total_s\":";
      Num(stats_json, s.total_s);
      stats_json << ",\"events_admitted\":" << s.events_admitted
                 << ",\"events_shed\":" << s.events_shed << '}';
    }
    stats_json << ']';

    std::ofstream report(report_out, std::ios::trunc);
    report << "{\"run_id\":\"" << FlagValue(argc, argv, "--run-id", "serve")
           << "\",\"counts\":";
    WriteCounts(report, counts);
    report << ",\"cycles\":" << cycles_json.str()
           << ",\"cycle_stats\":" << stats_json.str() << ",\"spans\":";
    rec.WriteJson(report);
    report << "}\n";
    if (!report) throw std::runtime_error("cannot write " + report_out);
  }
  return 0;
}

// --- auc -------------------------------------------------------------------

/// Per-department ROC-AUC of truth.csv's users over printed lists
/// ("=== NAME (N users) ===" headers, "  1. USER  priority P" rows).
int RunAuc(int argc, char** argv) {
  std::ifstream truth_in(Required(argc, argv, "--truth"));
  std::ifstream list_in(Required(argc, argv, "--list"));
  if (!truth_in || !list_in) throw std::runtime_error("cannot read inputs");
  std::set<std::string> insiders;
  std::string line;
  std::getline(truth_in, line);  // header
  while (std::getline(truth_in, line)) {
    if (!line.empty()) insiders.insert(line.substr(0, line.find(',')));
  }
  std::vector<std::pair<std::string, std::vector<eval::RankedUser>>> depts;
  while (std::getline(list_in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      const std::size_t end = line.find(" (");
      depts.emplace_back(line.substr(4, end - 4),
                         std::vector<eval::RankedUser>{});
      continue;
    }
    std::istringstream row(line);
    std::string rank, user, word;
    double priority = 0.0;
    if (depts.empty() || !(row >> rank >> user >> word >> priority) ||
        word != "priority") {
      continue;
    }
    eval::RankedUser r;
    r.user = static_cast<std::uint32_t>(depts.back().second.size());
    r.priority = priority;
    r.positive = insiders.count(user) > 0;
    depts.back().second.push_back(r);
  }
  std::cout << "{\"departments\":[";
  bool first = true;
  for (auto& [name, ranked] : depts) {
    const std::size_t positives = static_cast<std::size_t>(std::count_if(
        ranked.begin(), ranked.end(),
        [](const eval::RankedUser& r) { return r.positive; }));
    eval::SortWorstCase(ranked);
    const double auc = eval::RocAuc(eval::PositiveFlags(ranked));
    std::cout << (first ? "" : ",") << "{\"name\":\"" << name
              << "\",\"users\":" << ranked.size()
              << ",\"positives\":" << positives << ",\"auc\":";
    Num(std::cout, auc);
    std::cout << '}';
    first = false;
  }
  std::cout << "]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness detect|serve|auc ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    if (mode == "detect") return RunDetect(argc, argv);
    if (mode == "serve") return RunServe(argc, argv);
    if (mode == "auc") return RunAuc(argc, argv);
    std::fprintf(stderr, "perfbench_harness: unknown mode '%s'\n",
                 mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
