#include "common/health.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/resource.h"
#include "common/telemetry.h"

namespace acobe::health {
namespace {

using telemetry::JsonEscape;
using telemetry::JsonNumber;
using telemetry::NowNs;

// --- Stage tracker ---------------------------------------------------
//
// One slot per distinct stage name. `done`/`total` are lock-free (the
// hot StageAdvance path from pool workers is one relaxed RMW); episode
// bookkeeping (which stage is current, accumulated wall) is rare and
// sits under a mutex.

struct StageState {
  const char* name = nullptr;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> total{0};
  std::uint64_t closed_wall_ns = 0;   // completed episodes (under mutex)
  std::uint64_t episode_start_ns = 0; // nonzero while current
};

struct StageTracker {
  std::mutex mutex;
  std::vector<std::unique_ptr<StageState>> stages;  // first-use order
  std::string detail;
};

StageTracker& Stages() {
  static StageTracker* tracker = new StageTracker;
  return *tracker;
}

// The current stage, readable without the tracker mutex so
// StageAdvance stays a load + RMW.
std::atomic<StageState*> g_current_stage{nullptr};

double StageElapsedSeconds(const StageState& s, std::uint64_t now_ns) {
  std::uint64_t ns = s.closed_wall_ns;
  if (s.episode_start_ns != 0) ns += now_ns - s.episode_start_ns;
  return static_cast<double>(ns) / 1e9;
}

// --- Span stacks + edge profile --------------------------------------

constexpr int kMaxSpanDepth = 48;
constexpr int kMaxSpanThreads = 256;
constexpr int kEdgeStripes = 16;

// Fixed storage, atomically readable from the crash signal handler.
struct SpanStack {
  std::atomic<int> tid{0};  // dense telemetry tid; 0 = free slot
  std::atomic<int> depth{0};
  std::atomic<const char*> names[kMaxSpanDepth] = {};
};

SpanStack g_span_stacks[kMaxSpanThreads];

// Releases the slot when its thread exits (threads come and go — a
// local ThreadPool's workers, a supervisor's shard workers — so slots
// must recycle).
struct SlotHolder {
  SpanStack* slot = nullptr;
  int overflow = 0;  // pushes beyond kMaxSpanDepth, to keep pops paired
  ~SlotHolder() {
    if (slot) {
      slot->depth.store(0, std::memory_order_relaxed);
      slot->tid.store(0, std::memory_order_release);
    }
  }
};
thread_local SlotHolder t_slot;

SpanStack* MySlot() {
  if (t_slot.slot == nullptr) {
    const int tid = telemetry::CurrentThreadTid();
    for (SpanStack& s : g_span_stacks) {
      int expected = 0;
      if (s.tid.compare_exchange_strong(expected, tid,
                                        std::memory_order_acq_rel)) {
        t_slot.slot = &s;
        break;
      }
    }
    // All slots taken: spans on this thread go unstacked (edges still
    // record with an unknown parent).
  }
  return t_slot.slot;
}

struct EdgeCell {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

// Striped by thread like the telemetry histograms: concurrent span
// exits almost never share a lock.
struct EdgeStripe {
  std::mutex mutex;
  std::map<std::pair<const char*, const char*>, EdgeCell> edges;
};
EdgeStripe g_edges[kEdgeStripes];

// --- Crash flight recorder -------------------------------------------

constexpr std::size_t kCrashPathMax = 512;
char g_crash_path[kCrashPathMax] = {};
std::atomic<bool> g_recorder_installed{false};
std::atomic<int> g_crash_taken{0};

// Last fully rendered heartbeat, pre-escaped JSON, double-buffered so
// the handler always finds one consistent snapshot.
constexpr std::size_t kSnapshotBytes = 1u << 16;
char g_snapshot[2][kSnapshotBytes];
std::atomic<int> g_snapshot_idx{-1};
std::atomic<bool> g_crashing{false};

// write() the whole string, ignoring short writes beyond a few retries
// (we are crashing; best effort).
void WriteRaw(int fd, const char* s, std::size_t n) {
  std::size_t off = 0;
  for (int attempts = 0; off < n && attempts < 16; ++attempts) {
    const ssize_t w = ::write(fd, s + off, n - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
}
void WriteStr(int fd, const char* s) { WriteRaw(fd, s, std::strlen(s)); }
void WriteU64(int fd, std::uint64_t v) {
  char buf[24];
  int i = sizeof(buf);
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  WriteRaw(fd, buf + i, sizeof(buf) - static_cast<std::size_t>(i));
}

const char* SigName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case 0: return "terminate";
    default: return "signal";
  }
}

/// The dump itself: async-signal-safe (open/write/close, no stdio, no
/// allocation, only relaxed/acquire atomic loads of fixed storage).
void WriteCrashDump(int sig) {
  const int fd =
      ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  WriteStr(fd, "{\"schema\":\"acobe.crash.v1\",\"signal\":");
  WriteU64(fd, static_cast<std::uint64_t>(sig < 0 ? 0 : sig));
  WriteStr(fd, ",\"signame\":\"");
  WriteStr(fd, SigName(sig));
  WriteStr(fd, "\",\"threads\":[");
  bool first = true;
  for (const SpanStack& s : g_span_stacks) {
    const int tid = s.tid.load(std::memory_order_acquire);
    if (tid == 0) continue;
    if (!first) WriteStr(fd, ",");
    first = false;
    WriteStr(fd, "{\"tid\":");
    WriteU64(fd, static_cast<std::uint64_t>(tid));
    WriteStr(fd, ",\"spans\":[");
    int depth = s.depth.load(std::memory_order_acquire);
    depth = std::min(depth, kMaxSpanDepth);
    for (int i = 0; i < depth; ++i) {
      const char* name = s.names[i].load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      if (i) WriteStr(fd, ",");
      // Span names are static C identifiers with dots; no escaping
      // needed (and none would be signal-safe).
      WriteStr(fd, "\"");
      WriteStr(fd, name);
      WriteStr(fd, "\"");
    }
    WriteStr(fd, "]}");
  }
  WriteStr(fd, "],\"heartbeat\":");
  const int idx = g_snapshot_idx.load(std::memory_order_acquire);
  if (idx >= 0) {
    WriteStr(fd, g_snapshot[idx]);
  } else {
    WriteStr(fd, "null");
  }
  WriteStr(fd, "}\n");
  ::close(fd);
}

void CrashSignalHandler(int sig) {
  if (g_crash_taken.exchange(1) == 0) {
    g_crashing.store(true, std::memory_order_relaxed);
    WriteCrashDump(sig);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void TerminateDump() {
  if (g_crash_taken.exchange(1) == 0) {
    g_crashing.store(true, std::memory_order_relaxed);
    WriteCrashDump(0);
  }
  std::abort();
}

// --- Heartbeat monitor -----------------------------------------------

struct Monitor {
  HealthOptions opts;
  std::ofstream out;
  std::thread thread;
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;

  std::uint64_t seq = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t prev_ns = 0;
  double prev_cpu_s = 0.0;
  std::map<std::string, std::uint64_t> prev_counters;
};

std::mutex g_monitor_mutex;
Monitor* g_monitor = nullptr;  // owned; deleted by StopHealth

/// Renders one heartbeat line (no trailing newline) and advances the
/// monitor's delta state. Called from the sampler thread and, for the
/// final beat, from StopHealth.
std::string RenderHeartbeat(Monitor& m, bool final_beat) {
  const std::uint64_t now_ns = NowNs();
  const double dt_s =
      std::max(1e-9, static_cast<double>(now_ns - m.prev_ns) / 1e9);
  const double cpu_s = CpuSeconds();
  const telemetry::MetricsSnapshot snap =
      telemetry::SnapshotCountersAndGauges();
  const StageSnapshot stage = CurrentStage();
  const std::vector<StageTime> stages = StageTimes();
  const std::vector<SpanEdge> spans = SpanProfile();

  ++m.seq;
  std::ostringstream out;
  out << "{\"schema\":\"acobe.health.v1\",\"tool\":\"";
  JsonEscape(out, m.opts.tool);
  out << "\",\"seq\":" << m.seq << ",\"uptime_ms\":"
      << (now_ns - m.start_ns) / 1000000u
      << ",\"interval_ms\":" << m.opts.interval_ms
      << ",\"final\":" << (final_beat ? "true" : "false");

  out << ",\"stage\":{\"name\":\"";
  JsonEscape(out, stage.name);
  out << "\",\"detail\":\"";
  JsonEscape(out, stage.detail);
  out << "\",\"done\":" << stage.done << ",\"total\":" << stage.total
      << ",\"elapsed_s\":";
  JsonNumber(out, stage.elapsed_s);
  out << ",\"eta_s\":";
  JsonNumber(out, stage.eta_s);
  out << "}";

  out << ",\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i) out << ',';
    out << "{\"stage\":\"";
    JsonEscape(out, stages[i].name);
    out << "\",\"seconds\":";
    JsonNumber(out, stages[i].seconds);
    out << ",\"done\":" << stages[i].done << ",\"total\":" << stages[i].total
        << "}";
  }
  out << "]";

  out << ",\"rss_bytes\":" << CurrentRssBytes()
      << ",\"peak_rss_bytes\":" << PeakRssBytes();
  out << ",\"cpu\":{\"proc_seconds\":";
  JsonNumber(out, cpu_s);
  out << ",\"utilization\":";
  JsonNumber(out, std::max(0.0, cpu_s - m.prev_cpu_s) / dt_s);
  out << "}";

  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;  // keep lines lean: untouched counters skip
    const auto it = m.prev_counters.find(name);
    const std::uint64_t prev = it == m.prev_counters.end() ? 0 : it->second;
    const std::uint64_t delta = value >= prev ? value - prev : 0;
    if (!first) out << ',';
    first = false;
    out << "\"";
    JsonEscape(out, name);
    out << "\":{\"total\":" << value << ",\"delta\":" << delta
        << ",\"rate\":";
    JsonNumber(out, static_cast<double>(delta) / dt_s);
    out << "}";
  }
  out << "}";

  out << ",\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out << ',';
    first = false;
    out << "\"";
    JsonEscape(out, name);
    out << "\":";
    JsonNumber(out, value);
  }
  out << "}";

  out << ",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i) out << ',';
    out << "{\"name\":\"";
    JsonEscape(out, spans[i].name);
    out << "\",\"parent\":\"";
    JsonEscape(out, spans[i].parent);
    out << "\",\"count\":" << spans[i].count << ",\"total_ms\":";
    JsonNumber(out, spans[i].total_ms);
    out << ",\"self_ms\":";
    JsonNumber(out, spans[i].self_ms);
    out << "}";
  }
  out << "]}";

  m.prev_ns = now_ns;
  m.prev_cpu_s = cpu_s;
  m.prev_counters.clear();
  for (const auto& [name, value] : snap.counters) {
    m.prev_counters.emplace(name, value);
  }
  return out.str();
}

/// Publish the line for the crash handler, then append it to the file.
/// One write + flush per beat: a reader sees whole lines only.
void EmitHeartbeat(Monitor& m, bool final_beat) {
  if (g_crashing.load(std::memory_order_relaxed)) return;
  const std::string line = RenderHeartbeat(m, final_beat);
  const int next = (g_snapshot_idx.load(std::memory_order_relaxed) + 1) & 1;
  const std::size_t n = std::min(line.size(), kSnapshotBytes - 1);
  std::memcpy(g_snapshot[next], line.data(), n);
  g_snapshot[next][n] = '\0';
  g_snapshot_idx.store(next, std::memory_order_release);
  m.out << line << '\n';
  m.out.flush();
}

void MonitorLoop(Monitor* m) {
  telemetry::SetCurrentThreadName("health-sampler");
  std::unique_lock<std::mutex> lock(m->mutex);
  while (!m->stop) {
    m->cv.wait_for(lock, std::chrono::milliseconds(m->opts.interval_ms));
    if (m->stop) break;
    EmitHeartbeat(*m, /*final_beat=*/false);
  }
}

void StopHealthAtExit() { StopHealth(); }

}  // namespace

// --- Stage API -------------------------------------------------------

void SetStage(const char* name, std::uint64_t add_total) {
  StageTracker& t = Stages();
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(t.mutex);
  StageState* current = g_current_stage.load(std::memory_order_relaxed);
  if (current != nullptr && std::strcmp(current->name, name) == 0) {
    if (add_total > 0) {
      current->total.fetch_add(add_total, std::memory_order_relaxed);
    }
    return;
  }
  if (current != nullptr && current->episode_start_ns != 0) {
    current->closed_wall_ns += now - current->episode_start_ns;
    current->episode_start_ns = 0;
  }
  StageState* next = nullptr;
  for (const auto& s : t.stages) {
    if (std::strcmp(s->name, name) == 0) {
      next = s.get();
      break;
    }
  }
  if (next == nullptr) {
    t.stages.push_back(std::make_unique<StageState>());
    next = t.stages.back().get();
    next->name = name;
  }
  if (add_total > 0) next->total.fetch_add(add_total, std::memory_order_relaxed);
  next->episode_start_ns = now;
  t.detail.clear();
  g_current_stage.store(next, std::memory_order_release);
}

void StageAdvance(std::uint64_t n) {
  StageState* current = g_current_stage.load(std::memory_order_acquire);
  if (current != nullptr) {
    current->done.fetch_add(n, std::memory_order_relaxed);
  }
}

void SetStageDetail(const std::string& detail) {
  StageTracker& t = Stages();
  std::lock_guard<std::mutex> lock(t.mutex);
  t.detail = detail;
}

StageSnapshot CurrentStage() {
  StageTracker& t = Stages();
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(t.mutex);
  StageSnapshot snap;
  const StageState* current = g_current_stage.load(std::memory_order_relaxed);
  if (current == nullptr) return snap;
  snap.name = current->name;
  snap.detail = t.detail;
  snap.done = current->done.load(std::memory_order_relaxed);
  snap.total = current->total.load(std::memory_order_relaxed);
  snap.elapsed_s = StageElapsedSeconds(*current, now);
  if (snap.total > 0 && snap.done > 0 && snap.done < snap.total) {
    snap.eta_s = snap.elapsed_s *
                 static_cast<double>(snap.total - snap.done) /
                 static_cast<double>(snap.done);
  } else if (snap.total > 0 && snap.done >= snap.total) {
    snap.eta_s = 0.0;
  }
  return snap;
}

std::vector<StageTime> StageTimes() {
  StageTracker& t = Stages();
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(t.mutex);
  std::vector<StageTime> times;
  times.reserve(t.stages.size());
  for (const auto& s : t.stages) {
    times.push_back(StageTime{s->name, StageElapsedSeconds(*s, now),
                              s->done.load(std::memory_order_relaxed),
                              s->total.load(std::memory_order_relaxed)});
  }
  return times;
}

std::string StageTimesJson() {
  const std::vector<StageTime> times = StageTimes();
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (i) out << ',';
    out << "{\"stage\":\"";
    JsonEscape(out, times[i].name);
    out << "\",\"seconds\":";
    JsonNumber(out, times[i].seconds);
    out << ",\"done\":" << times[i].done << ",\"total\":" << times[i].total
        << '}';
  }
  out << ']';
  return out.str();
}

void ResetStages() {
  StageTracker& t = Stages();
  std::lock_guard<std::mutex> lock(t.mutex);
  g_current_stage.store(nullptr, std::memory_order_relaxed);
  t.stages.clear();
  t.detail.clear();
}

// --- Span stack + profile --------------------------------------------

const char* SpanStackPush(const char* name) {
  SpanStack* slot = MySlot();
  if (slot == nullptr) return nullptr;
  const int depth = slot->depth.load(std::memory_order_relaxed);
  if (depth >= kMaxSpanDepth) {
    ++t_slot.overflow;
    return slot->names[kMaxSpanDepth - 1].load(std::memory_order_relaxed);
  }
  slot->names[depth].store(name, std::memory_order_release);
  slot->depth.store(depth + 1, std::memory_order_release);
  return depth > 0 ? slot->names[depth - 1].load(std::memory_order_relaxed)
                   : nullptr;
}

void SpanStackPop(const char* name, const char* parent,
                  std::uint64_t duration_ns) {
  SpanStack* slot = t_slot.slot;
  if (slot != nullptr) {
    if (t_slot.overflow > 0) {
      --t_slot.overflow;
    } else {
      const int depth = slot->depth.load(std::memory_order_relaxed);
      if (depth > 0) slot->depth.store(depth - 1, std::memory_order_release);
    }
  }
  EdgeStripe& stripe =
      g_edges[telemetry::CurrentThreadTid() % kEdgeStripes];
  std::lock_guard<std::mutex> lock(stripe.mutex);
  EdgeCell& cell = stripe.edges[{parent == nullptr ? "" : parent, name}];
  ++cell.count;
  cell.total_ns += duration_ns;
}

std::vector<SpanEdge> SpanProfile() {
  // Merge the stripes by string value (identical literals are not
  // guaranteed to share a pointer across translation units).
  std::map<std::pair<std::string, std::string>, EdgeCell> merged;
  for (EdgeStripe& stripe : g_edges) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, cell] : stripe.edges) {
      EdgeCell& into = merged[{key.first, key.second}];
      into.count += cell.count;
      into.total_ns += cell.total_ns;
    }
  }
  std::map<std::string, std::uint64_t> name_total;   // wall per span name
  std::map<std::string, std::uint64_t> child_total;  // wall under a parent
  for (const auto& [key, cell] : merged) {
    name_total[key.second] += cell.total_ns;
    if (!key.first.empty()) child_total[key.first] += cell.total_ns;
  }
  std::vector<SpanEdge> profile;
  profile.reserve(merged.size());
  for (const auto& [key, cell] : merged) {
    SpanEdge edge;
    edge.parent = key.first;
    edge.name = key.second;
    edge.count = cell.count;
    edge.total_ms = static_cast<double>(cell.total_ns) / 1e6;
    // A name's child time is apportioned across its parent edges by
    // each edge's share of the name's total wall.
    const auto children = child_total.find(key.second);
    double self_ns = static_cast<double>(cell.total_ns);
    if (children != child_total.end() && name_total[key.second] > 0) {
      const double share = static_cast<double>(cell.total_ns) /
                           static_cast<double>(name_total[key.second]);
      self_ns -= share * static_cast<double>(children->second);
    }
    edge.self_ms = std::max(0.0, self_ns / 1e6);
    profile.push_back(std::move(edge));
  }
  std::sort(profile.begin(), profile.end(),
            [](const SpanEdge& a, const SpanEdge& b) {
              return a.total_ms > b.total_ms;
            });
  return profile;
}

void ResetSpanProfile() {
  for (EdgeStripe& stripe : g_edges) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.edges.clear();
  }
}

// --- Monitor ---------------------------------------------------------

bool StartHealth(const HealthOptions& options) {
  std::lock_guard<std::mutex> lock(g_monitor_mutex);
  if (g_monitor != nullptr) {
    std::fprintf(stderr, "health: monitor already running\n");
    return false;
  }
  auto monitor = std::make_unique<Monitor>();
  monitor->opts = options;
  monitor->opts.interval_ms = std::max(10, options.interval_ms);
  monitor->out.open(options.path, std::ios::trunc);
  if (!monitor->out) {
    std::fprintf(stderr, "health: cannot write %s\n", options.path.c_str());
    return false;
  }
  monitor->start_ns = NowNs();
  monitor->prev_ns = monitor->start_ns;
  monitor->prev_cpu_s = CpuSeconds();
  if (options.crash_recorder) {
    InstallCrashRecorder(options.path + ".crash.json");
  }
  // First beat immediately: a run that dies before the first interval
  // still leaves its identity line behind.
  EmitHeartbeat(*monitor, /*final_beat=*/false);
  Monitor* raw = monitor.release();
  raw->thread = std::thread(MonitorLoop, raw);
  g_monitor = raw;
  static const bool atexit_registered =
      (std::atexit(StopHealthAtExit), true);
  (void)atexit_registered;
  return true;
}

void StopHealth() {
  Monitor* monitor = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_monitor_mutex);
    monitor = g_monitor;
    g_monitor = nullptr;
  }
  if (monitor == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(monitor->mutex);
    monitor->stop = true;
  }
  monitor->cv.notify_all();
  monitor->thread.join();
  EmitHeartbeat(*monitor, /*final_beat=*/true);
  delete monitor;
}

bool HealthRunning() {
  std::lock_guard<std::mutex> lock(g_monitor_mutex);
  return g_monitor != nullptr;
}

// --- Crash recorder --------------------------------------------------

void InstallCrashRecorder(const std::string& path) {
  const std::size_t n = std::min(path.size(), kCrashPathMax - 1);
  std::memcpy(g_crash_path, path.data(), n);
  g_crash_path[n] = '\0';
  if (g_recorder_installed.exchange(true)) return;  // path updated above
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashSignalHandler;
  sigemptyset(&action.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    sigaction(sig, &action, nullptr);
  }
  g_prev_terminate = std::set_terminate(TerminateDump);
}

}  // namespace acobe::health
