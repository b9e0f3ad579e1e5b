// Data plane: the event spool (in RAM under its buffer budget, spilled
// runs past it), the per-department demux, and the contract both rest
// on — spooled, per-department cubes and detection scores are
// bit-identical to a ReplayStore over the whole LogStore, in every
// spill regime.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "features/cert_features.h"
#include "features/shard_extract.h"
#include "common/timeframe.h"
#include "logs/log_store.h"
#include "logs/spool.h"
#include "simdata/cert_simulator.h"

namespace acobe {
namespace {

std::string SpoolDir(const char* name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Records everything replayed into it, preserving arrival order.
struct RecordingSink : LogSink {
  std::vector<LogonEvent> logons;
  std::vector<DeviceEvent> devices;
  std::vector<FileEvent> files;
  std::vector<HttpEvent> https;
  std::vector<Timestamp> arrival;  // all events, in replay order

  void Consume(const LogonEvent& e) override {
    logons.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const DeviceEvent& e) override {
    devices.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const FileEvent& e) override {
    files.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const HttpEvent& e) override {
    https.push_back(e);
    arrival.push_back(e.ts);
  }
  void Consume(const EmailEvent& e) override { arrival.push_back(e.ts); }
  void Consume(const EnterpriseEvent& e) override { arrival.push_back(e.ts); }
  void Consume(const ProxyEvent& e) override { arrival.push_back(e.ts); }
};

constexpr Timestamp kDay = kSecondsPerDay;

/// Entries in `dir`; 0 when it does not exist.
std::size_t FilesIn(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return 0;
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator(dir),
      std::filesystem::directory_iterator()));
}

TEST(SpoolTest, RoundTripPreservesFieldsAndRouting) {
  ShardSpooler spool(SpoolDir("spool_roundtrip"), 2, 1 << 12);
  spool.AssignUser(1, 0);
  spool.AssignUser(2, 1);
  // user 3 stays unassigned (outside the roster) and must be dropped.

  LogonEvent logon;
  logon.ts = 3 * kDay + 100;
  logon.user = 1;
  logon.pc = 7;
  logon.activity = LogonActivity::kLogon;
  spool.Consume(logon);

  DeviceEvent device;
  device.ts = 1 * kDay + 50;
  device.user = 1;
  device.pc = 7;
  device.activity = DeviceActivity::kConnect;
  spool.Consume(device);

  FileEvent file;
  file.ts = 2 * kDay + 10;
  file.user = 2;
  file.pc = 9;
  file.file = 4;
  file.activity = FileActivity::kWrite;
  file.from = FileLocation::kRemote;
  file.to = FileLocation::kLocal;
  spool.Consume(file);

  HttpEvent http;
  http.ts = 1 * kDay + 20;
  http.user = 3;  // dropped
  http.domain = 5;
  spool.Consume(http);

  spool.Finish();
  EXPECT_EQ(spool.events_spooled(), 3u);
  EXPECT_EQ(spool.events_dropped(), 1u);
  // The timestamp range covers every event seen, dropped ones included,
  // exactly like the in-memory path's scan over the raw streams.
  EXPECT_EQ(spool.ts_lo(), 1 * kDay + 20);
  EXPECT_EQ(spool.ts_hi(), 3 * kDay + 100);

  RecordingSink shard0, shard1;
  spool.Replay(0, shard0);
  spool.Replay(1, shard1);

  ASSERT_EQ(shard0.logons.size(), 1u);
  ASSERT_EQ(shard0.devices.size(), 1u);
  EXPECT_TRUE(shard0.files.empty());
  EXPECT_TRUE(shard0.https.empty());
  EXPECT_EQ(shard0.logons[0].ts, logon.ts);
  EXPECT_EQ(shard0.logons[0].user, 1u);
  EXPECT_EQ(shard0.logons[0].pc, 7u);
  EXPECT_EQ(shard0.logons[0].activity, LogonActivity::kLogon);
  EXPECT_EQ(shard0.devices[0].ts, device.ts);
  EXPECT_EQ(shard0.devices[0].activity, DeviceActivity::kConnect);
  // Day order within the shard: the device (day 1) before the logon
  // (day 3).
  ASSERT_EQ(shard0.arrival.size(), 2u);
  EXPECT_LT(shard0.arrival[0] / kDay, shard0.arrival[1] / kDay);

  ASSERT_EQ(shard1.files.size(), 1u);
  EXPECT_EQ(shard1.files[0].ts, file.ts);
  EXPECT_EQ(shard1.files[0].user, 2u);
  EXPECT_EQ(shard1.files[0].file, 4u);
  EXPECT_EQ(shard1.files[0].activity, FileActivity::kWrite);
  EXPECT_EQ(shard1.files[0].from, FileLocation::kRemote);
  EXPECT_EQ(shard1.files[0].to, FileLocation::kLocal);
}

TEST(SpoolTest, ManySpilledRunsMergeInNondecreasingDayOrder) {
  // A buffer this small forces dozens of spilled runs; the k-way merge
  // must still replay days in nondecreasing order with nothing lost.
  ShardSpooler spool(SpoolDir("spool_merge"), 1, 1 << 10);
  spool.AssignUser(0, 0);
  std::vector<Timestamp> sent;
  std::uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    LogonEvent e;
    e.ts = static_cast<Timestamp>((state >> 33) % (90 * kDay));
    e.user = 0;
    e.pc = 1;
    sent.push_back(e.ts);
    spool.Consume(e);
  }
  spool.Finish();
  RecordingSink sink;
  spool.Replay(0, sink);
  ASSERT_EQ(sink.arrival.size(), sent.size());
  for (std::size_t i = 1; i < sink.arrival.size(); ++i) {
    EXPECT_LE(sink.arrival[i - 1] / kDay, sink.arrival[i] / kDay);
  }
  // Exact multiset of timestamps survives the round trip.
  std::vector<Timestamp> got = sink.arrival;
  std::sort(got.begin(), got.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(got, sent);
}

TEST(SpoolTest, RemoveCleansUpShardFilesAndDirectory) {
  const std::string dir = SpoolDir("spool_cleanup");
  {
    // 1 << 12 bytes floors to 1024 events per shard: 1500 events spill
    // shard 0 once, and Finish writes the rest as a second run.
    ShardSpooler spool(dir, 2, 1 << 12);
    spool.AssignUser(0, 0);
    for (int i = 0; i < 1500; ++i) {
      LogonEvent e;
      e.ts = (i % 30) * kDay;
      e.user = 0;
      spool.Consume(e);
    }
    spool.Finish();
    EXPECT_TRUE(std::filesystem::exists(dir));
    EXPECT_EQ(FilesIn(dir), 1u);  // shard 1 never spilled: no file
  }  // destructor removes
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(SpoolTest, UnderCapCreatesNoFiles) {
  const std::string dir = SpoolDir("spool_under_cap");
  std::vector<Timestamp> sent;
  {
    ShardSpooler spool(dir, 2, 1 << 20);
    spool.AssignUser(0, 0);
    spool.AssignUser(1, 1);
    for (int i = 0; i < 500; ++i) {
      LogonEvent e;
      e.ts = ((i * 7) % 40) * kDay + i;  // days out of arrival order
      e.user = static_cast<UserId>(i % 2);
      sent.push_back(e.ts);
      spool.Consume(e);
    }
    spool.Finish();
    EXPECT_FALSE(std::filesystem::exists(dir));

    std::vector<Timestamp> got;
    for (int s = 0; s < 2; ++s) {
      RecordingSink sink;
      spool.Replay(s, sink);
      EXPECT_EQ(sink.arrival.size(), 250u);
      for (std::size_t i = 1; i < sink.arrival.size(); ++i) {
        EXPECT_LE(sink.arrival[i - 1] / kDay, sink.arrival[i] / kDay);
      }
      got.insert(got.end(), sink.arrival.begin(), sink.arrival.end());
    }
    std::sort(got.begin(), got.end());
    std::sort(sent.begin(), sent.end());
    EXPECT_EQ(got, sent);

    spool.Remove();  // nothing was created: a no-op
    EXPECT_FALSE(std::filesystem::exists(dir));
  }

  // A spool directory the user made beforehand outlives an under-cap run.
  std::filesystem::create_directories(dir);
  {
    ShardSpooler spool(dir, 1, 1 << 20);
    spool.AssignUser(0, 0);
    LogonEvent e;
    e.ts = kDay;
    e.user = 0;
    spool.Consume(e);
    spool.Finish();
    RecordingSink sink;
    spool.Replay(0, sink);
    EXPECT_EQ(sink.arrival.size(), 1u);
  }
  EXPECT_TRUE(std::filesystem::exists(dir));
  EXPECT_EQ(FilesIn(dir), 0u);
}

TEST(SpoolTest, PreEpochDaysReplayInFloorDayOrder) {
  // Days -2 .. +1: truncating division would file day -1 under day 0
  // and let the merge interleave them.
  auto floor_day = [](Timestamp ts) {
    return ts >= 0 ? ts / kDay : -((-ts + kDay - 1) / kDay);
  };
  for (const std::size_t buffer :
       {std::size_t{1} << 10, std::size_t{1} << 20}) {
    SCOPED_TRACE(buffer);
    ShardSpooler spool(SpoolDir("spool_pre_epoch"), 1, buffer);
    spool.AssignUser(0, 0);
    std::uint64_t state = 777;
    for (int i = 0; i < 3000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      LogonEvent e;
      e.ts = static_cast<Timestamp>((state >> 33) % (4 * kDay)) - 2 * kDay;
      e.user = 0;
      spool.Consume(e);
    }
    spool.Finish();
    RecordingSink sink;
    spool.Replay(0, sink);
    ASSERT_EQ(sink.arrival.size(), 3000u);
    EXPECT_EQ(floor_day(sink.arrival.front()), -2);
    EXPECT_EQ(floor_day(sink.arrival.back()), 1);
    for (std::size_t i = 1; i < sink.arrival.size(); ++i) {
      ASSERT_LE(floor_day(sink.arrival[i - 1]), floor_day(sink.arrival[i]))
          << "at event " << i;
    }
  }
}

TEST(SpoolTest, DayNumberOfFloors) {
  EXPECT_EQ(DayNumberOf(0), 0);
  EXPECT_EQ(DayNumberOf(kDay - 1), 0);
  EXPECT_EQ(DayNumberOf(kDay), 1);
  EXPECT_EQ(DayNumberOf(-1), -1);
  EXPECT_EQ(DayNumberOf(-kDay), -1);
  EXPECT_EQ(DayNumberOf(-kDay - 1), -2);
}

/// SortByDay against std::stable_sort on the same day key: identical
/// records in identical order (day ascending, arrival order within a
/// day) on every input shape, including keys whose day span is most of
/// the int64 range — extra memory must not grow with the span.
TEST(SortByDayTest, MatchesStableSortOracle) {
  std::uint64_t state = 99;
  auto random = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  auto build = [](std::size_t n, const std::function<Timestamp(std::size_t)>& ts) {
    std::vector<PackedEvent> events(n);
    for (std::size_t i = 0; i < n; ++i) {
      events[i].ts = ts(i);
      events[i].user = static_cast<std::uint32_t>(i);  // arrival tag
      events[i].e1 = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return events;
  };
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  const std::vector<std::pair<const char*, std::vector<PackedEvent>>> cases = {
      {"empty", {}},
      {"one", build(1, [](std::size_t) { return Timestamp{5}; })},
      {"two_reversed",
       build(2, [](std::size_t i) { return i ? Timestamp{0} : 3 * kDay; })},
      {"random_73_days", build(5001, [&](std::size_t) {
         return static_cast<Timestamp>(random() % (73 * kDay));
       })},
      {"random_400_days", build(4096, [&](std::size_t) {
         return static_cast<Timestamp>(random() % (400 * kDay)) + 14000 * kDay;
       })},
      {"sorted", build(3000, [](std::size_t i) {
         return static_cast<Timestamp>(i) * 997;
       })},
      {"reversed", build(3001, [](std::size_t i) {
         return static_cast<Timestamp>(3001 - i) * 997;
       })},
      {"one_day", build(2000, [&](std::size_t) {
         return 14600 * kDay + static_cast<Timestamp>(random() % kDay);
       })},
      {"pre_epoch", build(3000, [&](std::size_t) {
         return static_cast<Timestamp>(random() % (5 * kDay)) - 3 * kDay;
       })},
      {"int64_extremes", build(999, [&](std::size_t i) {
         switch (i % 5) {
           case 0: return kMin;
           case 1: return kMax;
           case 2: return Timestamp{-1};
           case 3: return Timestamp{0};
           default: return static_cast<Timestamp>(random());
         }
       })},
      {"full_span", build(2500, [&](std::size_t) {
         return static_cast<Timestamp>(random());
       })},
      {"two_days_far_apart", build(1500, [&](std::size_t) {
         // Days 0 and 2^40: only the key's sixth byte varies.
         return (random() & 1) ? Timestamp{0} : (Timestamp{1} << 40) * kDay;
       })},
  };
  for (const auto& [name, input] : cases) {
    SCOPED_TRACE(name);
    std::vector<PackedEvent> want = input;
    std::stable_sort(want.begin(), want.end(),
                     [](const PackedEvent& a, const PackedEvent& b) {
                       return DayNumberOf(a.ts) < DayNumberOf(b.ts);
                     });
    std::vector<PackedEvent> got = input;
    SortByDay(got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].ts, want[i].ts) << "at " << i;
      ASSERT_EQ(got[i].user, want[i].user) << "at " << i;
      ASSERT_EQ(got[i].e1, want[i].e1) << "at " << i;
    }
  }
}

/// Simulates a small two-department org and returns the sorted store.
LogStore* SharedCertStore() {
  static LogStore* store = [] {
    auto* s = new LogStore;
    sim::CertSimConfig cfg;
    cfg.org.departments = 2;
    cfg.org.users_per_department = 8;
    cfg.org.extra_users = 0;
    cfg.start = Date(2010, 1, 2);
    cfg.end = Date(2010, 3, 15);
    cfg.profiles.rate_scale = 0.3;
    cfg.seed = 424242;
    sim::CertSimulator simulator(cfg, *s);
    simulator.Run(*s);
    s->SortChronologically();
    return s;
  }();
  return store;
}

constexpr Date kStart{2010, 1, 2};
constexpr int kDays = 73;  // 2010-01-02 .. 2010-03-15

/// Spools every event of `store` with department d routed to shard d.
std::unique_ptr<ShardSpooler> SpoolByDepartment(
    const LogStore& store, const std::vector<std::string>& departments,
    const std::string& dir, std::size_t buffer_bytes) {
  auto spool = std::make_unique<ShardSpooler>(
      dir, static_cast<int>(departments.size()), buffer_bytes);
  for (const LdapRecord& r : store.ldap()) {
    const auto it =
        std::find(departments.begin(), departments.end(), r.department);
    spool->AssignUser(r.user, static_cast<int>(it - departments.begin()));
  }
  ReplayStore(store, *spool);
  spool->Finish();
  return spool;
}

TEST(StreamingTest, CubesBitIdenticalToInMemory) {
  LogStore& store = *SharedCertStore();

  // In-memory path: one cube over everyone.
  CertAcobeExtractor full(kStart, kDays);
  ReplayStore(store, full);
  for (const LdapRecord& r : store.ldap()) full.cube().RegisterUser(r.user);

  const std::vector<std::string> departments = store.Departments();
  ASSERT_EQ(departments.size(), 2u);
  constexpr std::size_t kNeverSpills = std::size_t{64} << 20;

  // Events per shard, to place one buffer between the two shard sizes.
  std::size_t small = 0, large = 0;
  {
    auto spool = SpoolByDepartment(store, departments,
                                   SpoolDir("spool_count"), kNeverSpills);
    RecordingSink a, b;
    spool->Replay(0, a);
    spool->Replay(1, b);
    small = std::min(a.arrival.size(), b.arrival.size());
    large = std::max(a.arrival.size(), b.arrival.size());
  }
  // 16 KiB floors to 1024 events per shard, which both shards exceed.
  ASSERT_GT(small, 1024u);
  ASSERT_LT(small + 1, large);

  struct Regime {
    const char* name;
    std::size_t buffer_bytes;
    std::size_t spilled_shards;
  };
  const Regime regimes[] = {
      {"never spilled", kNeverSpills, 0},
      {"many spilled runs", std::size_t{1} << 14, 2},
      {"one shard spilled", (small + large) / 2 * sizeof(PackedEvent) * 2, 1},
  };
  for (const Regime& regime : regimes) {
    SCOPED_TRACE(regime.name);
    const std::string dir = SpoolDir("spool_identity");
    auto spool =
        SpoolByDepartment(store, departments, dir, regime.buffer_bytes);
    EXPECT_EQ(FilesIn(dir), regime.spilled_shards);

    for (int s = 0; s < 2; ++s) {
      DepartmentDemux demux(kStart, kDays);
      const std::string& dept = departments[s];
      const std::vector<UserId> members = store.UsersInDepartment(dept);
      demux.AddDepartment(dept, members);
      spool->Replay(s, demux);
      const MeasurementCube& dept_cube = demux.extractor(0).cube();
      const MeasurementCube& full_cube = full.cube();
      for (UserId user : members) {
        const int di = dept_cube.UserIndex(user);
        const int fi = full_cube.UserIndex(user);
        ASSERT_GE(di, 0);
        ASSERT_GE(fi, 0);
        for (int f = 0; f < full_cube.features(); ++f) {
          for (int d = 0; d < full_cube.days(); ++d) {
            for (int fr = 0; fr < full_cube.frames(); ++fr) {
              // Exact float equality: the contract is bit-identity, not
              // tolerance.
              ASSERT_EQ(dept_cube.At(di, f, d, fr),
                        full_cube.At(fi, f, d, fr))
                  << "user " << user << " feature " << f << " day " << d
                  << " frame " << fr;
            }
          }
        }
      }
    }
  }
}

TEST(StreamingTest, ScoresBitIdenticalToInMemory) {
  LogStore& store = *SharedCertStore();

  CertAcobeExtractor full(kStart, kDays);
  ReplayStore(store, full);
  for (const LdapRecord& r : store.ldap()) full.cube().RegisterUser(r.user);

  const std::vector<std::string> departments = store.Departments();
  const std::string& dept = departments[0];
  const std::vector<UserId> members = store.UsersInDepartment(dept);

  ShardSpooler spool(SpoolDir("spool_scores"), 1, 1 << 14);
  for (UserId user : members) spool.AssignUser(user, 0);
  ReplayStore(store, spool);
  spool.Finish();
  DepartmentDemux demux(kStart, kDays);
  demux.AddDepartment(dept, members);
  spool.Replay(0, demux);

  DetectorSpec spec;
  spec.deviation.omega = 10;
  spec.deviation.matrix_days = 10;
  spec.ensemble.encoder_dims = {16, 8};
  spec.ensemble.train.epochs = 2;
  spec.ensemble.train_stride = 4;
  spec.critic_votes = 1;

  const Detector detector(spec);
  const DetectionOutput in_memory =
      detector.Run(full.cube(), full.catalog(), members, 0, 50, 50, kDays);
  const DetectionOutput streamed = detector.Run(
      demux.extractor(0).cube(), full.catalog(), members, 0, 50, 50, kDays);

  EXPECT_EQ(in_memory.grid.Digest(), streamed.grid.Digest());
  ASSERT_EQ(in_memory.members, streamed.members);
  ASSERT_EQ(in_memory.list.size(), streamed.list.size());
  for (std::size_t i = 0; i < in_memory.list.size(); ++i) {
    EXPECT_EQ(in_memory.list[i].user_idx, streamed.list[i].user_idx);
    EXPECT_EQ(in_memory.list[i].priority, streamed.list[i].priority);
  }
}

TEST(DepartmentDemuxTest, RoutesMultiDepartmentUsersToEveryMembership) {
  DepartmentDemux demux(kStart, 10);
  const int a = demux.AddDepartment("A", {1, 2});
  const int b = demux.AddDepartment("B", {2, 3});
  DeviceEvent e;
  e.ts = MakeTimestamp(kStart, 10, 0, 0);
  e.user = 2;  // member of both departments
  e.pc = 1;
  e.activity = DeviceActivity::kConnect;
  demux.Consume(e);
  EXPECT_EQ(demux.events_routed(), 1u);
  const int feature = CertAcobeExtractor::kDevConnection;
  float in_a = 0, in_b = 0;
  for (int fr = 0; fr < demux.extractor(a).cube().frames(); ++fr) {
    in_a += demux.extractor(a).cube().At(
        demux.extractor(a).cube().UserIndex(2), feature, 0, fr);
    in_b += demux.extractor(b).cube().At(
        demux.extractor(b).cube().UserIndex(2), feature, 0, fr);
  }
  EXPECT_EQ(in_a, 1.0f);
  EXPECT_EQ(in_b, 1.0f);
}

}  // namespace
}  // namespace acobe
