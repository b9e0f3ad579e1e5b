// Unit tests for src/logs: entity tables, records, store, CSV I/O, tee.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/telemetry.h"
#include "logs/entity_table.h"
#include "logs/log_io.h"
#include "logs/log_store.h"
#include "logs/tee_sink.h"

namespace acobe {
namespace {

TEST(EntityTableTest, InternIsIdempotent) {
  EntityTable t;
  const auto a = t.Intern("alice");
  const auto b = t.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alice"), a);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.NameOf(a), "alice");
  EXPECT_EQ(t.NameOf(b), "bob");
}

TEST(EntityTableTest, LookupMissingReturnsInvalid) {
  EntityTable t;
  EXPECT_EQ(t.Lookup("ghost"), kInvalidId);
  t.Intern("real");
  EXPECT_NE(t.Lookup("real"), kInvalidId);
}

TEST(EntityTableTest, IdsStayDenseAndFirstSeenAcrossGrowth) {
  EntityTable t;
  constexpr std::uint32_t kNames = 200000;
  auto name = [](std::uint32_t i) { return "user-" + std::to_string(i); };
  for (std::uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(t.Intern(name(i)), i);
    // Re-interning an earlier name never allocates a new id.
    ASSERT_EQ(t.Intern(name(i / 2)), i / 2);
  }
  ASSERT_EQ(t.size(), kNames);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(t.Lookup(name(i)), i);
    ASSERT_EQ(t.NameOf(i), name(i));
  }
}

TEST(EntityTableTest, InternsViewIntoLargerUnterminatedBuffer) {
  const char buf[] = {'a', 'l', 'i', 'c', 'e', 'b', 'o', 'b'};  // no NUL
  EntityTable t;
  const auto alice = t.Intern(std::string_view(buf, 5));
  const auto bob = t.Intern(std::string_view(buf + 5, 3));
  const auto al = t.Intern(std::string_view(buf, 2));
  EXPECT_EQ(t.NameOf(alice), "alice");
  EXPECT_EQ(t.NameOf(bob), "bob");
  EXPECT_EQ(t.NameOf(al), "al");
  EXPECT_EQ(t.Lookup("alice"), alice);
  EXPECT_EQ(t.Lookup(std::string_view(buf, 3)), kInvalidId);
  // A view into the table's own storage is copied before it can move.
  const auto ali = t.Intern(std::string_view(t.NameOf(alice)).substr(0, 3));
  EXPECT_EQ(t.NameOf(ali), "ali");
}

TEST(EntityTableTest, EmptyNameIsAName) {
  EntityTable t;
  EXPECT_EQ(t.Lookup(""), kInvalidId);
  const auto x = t.Intern("x");
  const auto empty = t.Intern("");
  EXPECT_NE(empty, x);
  EXPECT_EQ(t.Intern(std::string_view()), empty);
  EXPECT_EQ(t.Lookup(""), empty);
  EXPECT_EQ(t.NameOf(empty), "");
  EXPECT_EQ(t.size(), 2u);
}

TEST(EntityTableTest, LookupAbsentAfterGrowthReturnsInvalid) {
  EntityTable t;
  for (int i = 0; i < 5000; ++i) t.Intern("pc-" + std::to_string(i));
  EXPECT_EQ(t.Lookup("pc-5000"), kInvalidId);
  EXPECT_EQ(t.Lookup("pc-"), kInvalidId);
  EXPECT_EQ(t.Lookup(""), kInvalidId);
  EXPECT_EQ(t.Lookup("pc-4999"), 4999u);
  EXPECT_EQ(t.size(), 5000u);
}

TEST(EntityTableTest, NameOfBadIdThrows) {
  EntityTable t;
  EXPECT_THROW(t.NameOf(0), std::out_of_range);
}

TEST(RecordsTest, EnumStringRoundTrips) {
  for (auto a : {LogonActivity::kLogon, LogonActivity::kLogoff}) {
    EXPECT_EQ(LogonActivityFromString(ToString(a)), a);
  }
  for (auto a : {DeviceActivity::kConnect, DeviceActivity::kDisconnect}) {
    EXPECT_EQ(DeviceActivityFromString(ToString(a)), a);
  }
  for (auto a : {FileActivity::kOpen, FileActivity::kWrite,
                 FileActivity::kCopy, FileActivity::kDelete}) {
    EXPECT_EQ(FileActivityFromString(ToString(a)), a);
  }
  for (auto a : {HttpActivity::kVisit, HttpActivity::kDownload,
                 HttpActivity::kUpload}) {
    EXPECT_EQ(HttpActivityFromString(ToString(a)), a);
  }
  for (auto t : {HttpFileType::kNone, HttpFileType::kDoc, HttpFileType::kExe,
                 HttpFileType::kJpg, HttpFileType::kPdf, HttpFileType::kTxt,
                 HttpFileType::kZip}) {
    EXPECT_EQ(HttpFileTypeFromString(ToString(t)), t);
  }
  for (auto a : {EnterpriseAspect::kFile, EnterpriseAspect::kCommand,
                 EnterpriseAspect::kConfig, EnterpriseAspect::kResource}) {
    EXPECT_EQ(EnterpriseAspectFromString(ToString(a)), a);
  }
  EXPECT_THROW(LogonActivityFromString("nope"), std::invalid_argument);
  EXPECT_THROW(HttpFileTypeFromString(""), std::invalid_argument);
}

LogStore MakeSampleStore() {
  LogStore store;
  const UserId u = store.users().Intern("JPH1910");
  const PcId pc = store.pcs().Intern("PC-1");
  const FileId f = store.files().Intern("doc,with comma");
  const DomainId d = store.domains().Intern("wikileaks.org");

  store.Add(DeviceEvent{200, u, pc, DeviceActivity::kConnect});
  store.Add(DeviceEvent{100, u, pc, DeviceActivity::kDisconnect});
  store.Add(FileEvent{150, u, pc, FileActivity::kCopy, f, FileLocation::kLocal,
                      FileLocation::kRemote});
  store.Add(HttpEvent{120, u, pc, HttpActivity::kUpload, d, HttpFileType::kDoc});
  store.Add(LogonEvent{90, u, pc, LogonActivity::kLogon});

  LdapRecord ldap;
  ldap.user = u;
  ldap.user_name = "JPH1910";
  ldap.department = "Dept-A";
  ldap.team = "T1";
  ldap.role = "Employee";
  store.AddLdap(std::move(ldap));
  return store;
}

TEST(LogStoreTest, TotalAndSort) {
  LogStore store = MakeSampleStore();
  EXPECT_EQ(store.TotalEvents(), 5u);
  store.SortChronologically();
  EXPECT_EQ(store.devices()[0].activity, DeviceActivity::kDisconnect);
  EXPECT_EQ(store.devices()[1].activity, DeviceActivity::kConnect);
}

TEST(LogStoreTest, DepartmentsAndMembers) {
  LogStore store = MakeSampleStore();
  const auto depts = store.Departments();
  ASSERT_EQ(depts.size(), 1u);
  EXPECT_EQ(depts[0], "Dept-A");
  EXPECT_EQ(store.UsersInDepartment("Dept-A").size(), 1u);
  EXPECT_TRUE(store.UsersInDepartment("Dept-Z").empty());
}

TEST(LogIoTest, DeviceCsvRoundTrip) {
  LogStore store = MakeSampleStore();
  std::stringstream ss;
  WriteDeviceCsv(store, ss);
  LogStore loaded;
  ReadDeviceCsv(ss, loaded, IngestOptions{});
  ASSERT_EQ(loaded.devices().size(), 2u);
  EXPECT_EQ(loaded.devices()[0].ts, 200);
  EXPECT_EQ(loaded.users().NameOf(loaded.devices()[0].user), "JPH1910");
  EXPECT_EQ(loaded.devices()[0].activity, DeviceActivity::kConnect);
}

TEST(LogIoTest, FileCsvRoundTripWithQuoting) {
  LogStore store = MakeSampleStore();
  std::stringstream ss;
  WriteFileCsv(store, ss);
  LogStore loaded;
  ReadFileCsv(ss, loaded, IngestOptions{});
  ASSERT_EQ(loaded.file_events().size(), 1u);
  const FileEvent& e = loaded.file_events()[0];
  EXPECT_EQ(loaded.files().NameOf(e.file), "doc,with comma");
  EXPECT_EQ(e.from, FileLocation::kLocal);
  EXPECT_EQ(e.to, FileLocation::kRemote);
}

TEST(LogIoTest, HttpLogonLdapRoundTrips) {
  LogStore store = MakeSampleStore();
  std::stringstream http, logon, ldap;
  WriteHttpCsv(store, http);
  WriteLogonCsv(store, logon);
  WriteLdapCsv(store, ldap);

  LogStore loaded;
  ReadHttpCsv(http, loaded, IngestOptions{});
  ReadLogonCsv(logon, loaded, IngestOptions{});
  ReadLdapCsv(ldap, loaded, IngestOptions{});
  ASSERT_EQ(loaded.http_events().size(), 1u);
  EXPECT_EQ(loaded.http_events()[0].filetype, HttpFileType::kDoc);
  ASSERT_EQ(loaded.logons().size(), 1u);
  ASSERT_EQ(loaded.ldap().size(), 1u);
  EXPECT_EQ(loaded.ldap()[0].department, "Dept-A");
}

TEST(LogIoTest, MalformedRowThrows) {
  std::stringstream ss("ts,user,pc,activity\n1,alice\n");
  LogStore store;
  EXPECT_THROW(ReadDeviceCsv(ss, store, IngestOptions{}),
               std::invalid_argument);
}

TEST(LogIoTest, EmptyStreamYieldsNothing) {
  std::stringstream ss;
  LogStore store;
  ReadDeviceCsv(ss, store, IngestOptions{});
  EXPECT_TRUE(store.devices().empty());
}

// --- Ingestion policies ------------------------------------------------

// Six data rows: three malformed (bad timestamp, missing field, unknown
// enum), one exact consecutive duplicate, two more good rows.
constexpr const char* kMixedDeviceCsv =
    "ts,user,pc,activity\n"
    "100,alice,pc1,connect\n"
    "bad!ts,bob,pc1,connect\n"
    "200,alice,pc1\n"
    "300,bob,pc2,disconnect\n"
    "300,bob,pc2,disconnect\n"
    "400,carol,pc3,teleport\n"
    "500,dave,pc1,connect\n";

TEST(IngestPolicyTest, StrictThrowsWithFileLineContext) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;  // strict by default
  try {
    ReadDeviceCsv(ss, store, opts, "device.csv");
    FAIL() << "expected IngestError";
  } catch (const IngestError& e) {
    EXPECT_EQ(e.file(), "device.csv");
    EXPECT_EQ(e.line(), 3u);  // header is line 1
    EXPECT_NE(std::string(e.what()).find("device.csv:3:"), std::string::npos)
        << e.what();
  }
}

TEST(IngestPolicyTest, PermissiveSkipsBadRowsAndCounts) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_read, 7u);
  EXPECT_EQ(stats.rows_rejected, 3u);
  EXPECT_EQ(stats.rows_quarantined, 0u);
  EXPECT_EQ(stats.rows_deduped, 0u);  // dedupe off: duplicate accepted
  EXPECT_EQ(store.devices().size(), 4u);
  EXPECT_NE(stats.first_error.find("device.csv:3:"), std::string::npos);
  // Entity tables hold only users from accepted rows: validation runs
  // before interning, so a rejected row pollutes nothing.
  EXPECT_EQ(store.users().Lookup("carol"), kInvalidId);
  EXPECT_NE(store.users().Lookup("dave"), kInvalidId);
}

TEST(IngestPolicyTest, DedupeDropsConsecutiveDuplicates) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  opts.drop_consecutive_duplicates = true;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_deduped, 1u);
  EXPECT_EQ(store.devices().size(), 3u);
}

TEST(IngestPolicyTest, QuarantineCapturesRawRows) {
  std::stringstream ss(kMixedDeviceCsv);
  std::ostringstream sink;
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kQuarantine;
  opts.error_budget = 1.0;
  opts.quarantine = &sink;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_rejected, 3u);
  EXPECT_EQ(stats.rows_quarantined, 3u);
  EXPECT_EQ(sink.str(),
            "bad!ts,bob,pc1,connect\n"
            "200,alice,pc1\n"
            "400,carol,pc3,teleport\n");
}

TEST(IngestPolicyTest, ErrorBudgetAborts) {
  std::stringstream ss(kMixedDeviceCsv);
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 0.1;
  opts.budget_min_rows = 1;
  try {
    ReadDeviceCsv(ss, store, opts, "device.csv");
    FAIL() << "expected budget abort";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("error budget exceeded"),
              std::string::npos)
        << e.what();
  }
}

TEST(IngestPolicyTest, TimestampPlausibilityWindow) {
  std::stringstream ss(
      "ts,user,pc,activity\n"
      "100,alice,pc1,connect\n"
      "99999999999,alice,pc1,connect\n");
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  opts.ts_min = 0;
  opts.ts_max = 1000;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_rejected, 1u);
  ASSERT_EQ(store.devices().size(), 1u);
  EXPECT_EQ(store.devices()[0].ts, 100);
  EXPECT_NE(stats.first_error.find("plausibility"), std::string::npos);
}

TEST(IngestPolicyTest, StrayQuoteDamagesOneRowOnly) {
  // A corrupted byte that happens to be '"' must not swallow the rest
  // of the file into one unterminated "row".
  std::stringstream ss(
      "ts,user,pc,activity\n"
      "100,al\"ice,pc1,connect\n"
      "200,bob,pc1,connect\n"
      "300,carol,pc1,disconnect\n");
  LogStore store;
  IngestOptions opts;
  opts.policy = IngestPolicy::kPermissive;
  opts.error_budget = 1.0;
  const IngestStats stats = ReadDeviceCsv(ss, store, opts, "device.csv");
  EXPECT_EQ(stats.rows_read, 3u);
  EXPECT_EQ(stats.rows_rejected, 1u);
  EXPECT_EQ(store.devices().size(), 2u);
}

/// Serves `data`, then fails the way a dying disk or a broken pipe
/// does: underflow throws, which the istream turns into badbit.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 protected:
  int_type underflow() override {
    throw std::runtime_error("device I/O error");
  }

 private:
  std::string data_;
};

TEST(IngestPolicyTest, ReadErrorIsNotEndOfFile) {
  // More than one read block of whole rows, then the stream fails
  // inside a row.
  std::string served = "ts,user,pc,activity\n";
  std::size_t lines = 1;
  while (served.size() < kCsvReadBlockBytes + kCsvReadBlockBytes / 2) {
    served += "100,alice,pc1,connect\n";
    ++lines;
  }
  served += "300,car";
  // The first read (one block) succeeds and the second fails: exactly
  // the lines completed within the first block are delivered, whatever
  // the range size or thread count.
  const std::size_t first_block_lines = static_cast<std::size_t>(
      std::count(served.begin(), served.begin() + kCsvReadBlockBytes, '\n'));
  for (const std::size_t range_bytes :
       {kCsvRangeBlocks * kCsvReadBlockBytes, std::size_t{16} << 10}) {
    const ScopedCsvRangeBytes split(range_bytes);
    for (const int threads : {1, 4}) {
      for (const IngestPolicy policy :
           {IngestPolicy::kStrict, IngestPolicy::kPermissive,
            IngestPolicy::kQuarantine}) {
        FailingBuf buf(served);
        std::istream in(&buf);
        std::ostringstream quarantine;
        LogStore store;
        IngestOptions opts;
        opts.policy = policy;
        opts.error_budget = 1.0;
        opts.quarantine = &quarantine;
        opts.threads = threads;
        SCOPED_TRACE(std::string(ToString(policy)) + " threads=" +
                     std::to_string(threads) +
                     " range_bytes=" + std::to_string(range_bytes));
        try {
          ReadDeviceCsv(in, store, opts, "device.csv");
          FAIL() << "a failed read was taken for end of file";
        } catch (const IngestError& e) {
          EXPECT_EQ(e.file(), "device.csv");
          EXPECT_NE(std::string(e.what()).find("read error"),
                    std::string::npos)
              << e.what();
          // Every row before the named line parsed; the rest never did.
          EXPECT_EQ(store.devices().size(), first_block_lines - 1);
          EXPECT_EQ(e.line(), store.devices().size() + 2);  // header: line 1
          EXPECT_LE(e.line(), lines + 1);
        }
        EXPECT_EQ(quarantine.str(), "");
      }
    }
  }
}

/// Everything one ingest leaves behind, for comparing thread counts:
/// the stats or the error, the events and entity tables, and the
/// logs.rows_* counters.
struct IngestRun {
  IngestStats stats;
  std::string error;
  std::string devices;
  std::string tables;
  std::vector<std::uint64_t> counters;
};

IngestRun RunDeviceIngest(const std::string& csv, IngestOptions opts) {
  telemetry::ResetTelemetry();
  IngestRun run;
  LogStore store;
  std::istringstream in(csv);
  try {
    run.stats = ReadDeviceCsv(in, store, opts, "device.csv");
  } catch (const IngestError& e) {
    run.error = e.what();
  }
  std::ostringstream out;
  WriteDeviceCsv(store, out);
  run.devices = out.str();
  for (const EntityTable* t : {&store.users(), &store.pcs()}) {
    for (std::uint32_t id = 0; id < t->size(); ++id) {
      run.tables += t->NameOf(id) + '\n';
    }
    run.tables += "--\n";
  }
  for (const char* name :
       {"logs.rows_read", "logs.rows_rejected", "logs.rows_quarantined",
        "logs.rows_deduped", "logs.parse_errors"}) {
    run.counters.push_back(telemetry::GetCounter(name).value());
  }
  return run;
}

TEST(IngestPolicyTest, StatsTablesAndCountersMatchAcrossThreadCounts) {
  // ~40 ranges of 16 KiB: rejects, duplicates and new names throughout,
  // so every range seam carries state the merge must continue.
  std::string csv = "ts,user,pc,activity\n";
  std::size_t bad_row_line = 0;  // a bad row in the last few ranges
  for (int i = 0, line = 2; csv.size() < (std::size_t{640} << 10);
       ++i, ++line) {
    const std::string row = std::to_string(100 + i) + ",user" +
                            std::to_string(i % 997) + ",pc" +
                            std::to_string(i % 89) + ",connect\n";
    csv += row;
    if (i % 53 == 0) {  // a redelivery
      csv += row;
      ++line;
    }
    if (i % 71 == 0) {  // an unknown activity
      csv += std::to_string(100 + i) + ",user" + std::to_string(i) +
             ",pcX,teleport\n";
      ++line;
    }
    if (bad_row_line == 0 && csv.size() > (std::size_t{600} << 10)) {
      bad_row_line = static_cast<std::size_t>(line);
    }
  }
  ASSERT_GT(bad_row_line, 0u);
  const ScopedCsvRangeBytes split(std::size_t{16} << 10);
  telemetry::EnableMetrics(true);

  IngestOptions permissive;
  permissive.policy = IngestPolicy::kPermissive;
  permissive.error_budget = 1.0;
  permissive.drop_consecutive_duplicates = true;
  IngestOptions strict;
  // Strict stops at the first unknown activity (line 3); make the only
  // bad row a late one instead.
  std::string late_bad;
  std::size_t oops_line = 0;
  {
    std::istringstream in(csv);
    std::string l;
    for (std::size_t line = 1, out = 1; std::getline(in, l); ++line) {
      if (l.find("teleport") != std::string::npos) continue;
      if (line == bad_row_line) {
        l = "oops";
        oops_line = out;
      }
      late_bad += l + '\n';
      ++out;
    }
  }
  ASSERT_GT(late_bad.size() - late_bad.find("oops"), std::size_t{16} << 10)
      << "the bad row must sit ranges before the end";
  for (const auto& [name, text, base] :
       {std::tuple{"permissive", csv, permissive},
        std::tuple{"strict", late_bad, strict}}) {
    SCOPED_TRACE(name);
    IngestOptions one = base;
    one.threads = 1;
    IngestOptions four = base;
    four.threads = 4;
    const IngestRun serial = RunDeviceIngest(text, one);
    const IngestRun parallel = RunDeviceIngest(text, four);
    EXPECT_EQ(parallel.error, serial.error);
    EXPECT_EQ(parallel.stats.rows_read, serial.stats.rows_read);
    EXPECT_EQ(parallel.stats.rows_rejected, serial.stats.rows_rejected);
    EXPECT_EQ(parallel.stats.rows_deduped, serial.stats.rows_deduped);
    EXPECT_EQ(parallel.stats.first_error, serial.stats.first_error);
    EXPECT_EQ(parallel.devices, serial.devices);
    EXPECT_EQ(parallel.tables, serial.tables);
    EXPECT_EQ(parallel.counters, serial.counters);
    if (std::string(name) == "permissive") {
      EXPECT_GT(serial.stats.rows_rejected, 10u);
      EXPECT_GT(serial.stats.rows_deduped, 10u);
      EXPECT_EQ(serial.counters[0], serial.stats.rows_read);
    } else {
      // Rows past the bad line were parsed by other ranges but never
      // delivered or counted.
      EXPECT_NE(serial.error.find("device.csv:" + std::to_string(oops_line) +
                                  ":"),
                std::string::npos)
          << serial.error;
      EXPECT_EQ(serial.counters[0], oops_line - 1);  // rows_read
      EXPECT_EQ(serial.counters[1], 1u);                // rows_rejected
    }
  }
  telemetry::EnableMetrics(false);
}

TEST(LogIoTest, EnterpriseAndProxyCsvRoundTrips) {
  LogStore store;
  const UserId u = store.users().Intern("emp1");
  const auto obj = store.objects().Intern("registry/HKCU-Run");
  const DomainId d = store.domains().Intern("cnc.example.net");
  store.Add(EnterpriseEvent{500, u, EnterpriseAspect::kConfig, 13, obj});
  store.Add(ProxyEvent{600, u, d, false, 0});

  std::stringstream ent, proxy;
  WriteEnterpriseCsv(store, ent);
  WriteProxyCsv(store, proxy);

  LogStore loaded;
  ReadEnterpriseCsv(ent, loaded, IngestOptions{});
  ReadProxyCsv(proxy, loaded, IngestOptions{});
  ASSERT_EQ(loaded.enterprise_events().size(), 1u);
  const EnterpriseEvent& e = loaded.enterprise_events()[0];
  EXPECT_EQ(e.ts, 500);
  EXPECT_EQ(e.aspect, EnterpriseAspect::kConfig);
  EXPECT_EQ(e.event_id, 13);
  EXPECT_EQ(loaded.objects().NameOf(e.object), "registry/HKCU-Run");
  ASSERT_EQ(loaded.proxy_events().size(), 1u);
  EXPECT_FALSE(loaded.proxy_events()[0].success);
  EXPECT_EQ(loaded.domains().NameOf(loaded.proxy_events()[0].domain),
            "cnc.example.net");
}

TEST(TeeSinkTest, FansOutToAllSinks) {
  LogStore a, b;
  TeeSink tee({&a, &b});
  tee.Consume(LogonEvent{1, 0, 0, LogonActivity::kLogon});
  tee.Consume(ProxyEvent{2, 0, 0, true, 10});
  EXPECT_EQ(a.logons().size(), 1u);
  EXPECT_EQ(b.logons().size(), 1u);
  EXPECT_EQ(a.proxy_events().size(), 1u);
  EXPECT_EQ(b.proxy_events().size(), 1u);
}

}  // namespace
}  // namespace acobe
