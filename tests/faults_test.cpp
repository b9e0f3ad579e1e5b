// Robustness tests: the deterministic fault injector, fuzz-style
// round-trips of corrupted CSVs through every log reader, redelivery
// recovery (the property the end-to-end smoke leans on), the block CSV
// reader against a line-at-a-time reference implementation, ensemble
// checkpoint/resume crash-safety, and graceful degradation when an
// aspect's training diverges irrecoverably.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "behavior/normalized_day.h"
#include "common/csv.h"
#include "common/faults.h"
#include "common/rng.h"
#include "core/ensemble.h"
#include "logs/log_io.h"
#include "simdata/fault_injector.h"

namespace acobe {
namespace {

using sim::FaultInjector;
using sim::FaultInjectorConfig;
using sim::FaultReport;

// --- Shared fixtures -----------------------------------------------------

/// A store exercising every stream with unique rows (strictly increasing
/// timestamps), so consecutive-duplicate suppression never touches
/// legitimate data and redelivery recovery can demand exact equality.
LogStore MakeRichStore() {
  LogStore store;
  std::vector<UserId> users;
  for (int i = 0; i < 6; ++i) {
    users.push_back(store.users().Intern("user" + std::to_string(i)));
  }
  std::vector<PcId> pcs;
  for (int i = 0; i < 4; ++i) {
    pcs.push_back(store.pcs().Intern("PC-" + std::to_string(i)));
  }
  const FileId plain = store.files().Intern("report.doc");
  const FileId tricky = store.files().Intern("doc,with comma");
  const DomainId dom = store.domains().Intern("example.org");
  const DomainId dom2 = store.domains().Intern("files.example.net");
  const auto obj = store.objects().Intern("registry/HKCU-Run");

  for (int k = 0; k < 60; ++k) {
    const Timestamp ts = 100000 + 37 * k;
    const UserId u = users[k % users.size()];
    const PcId pc = pcs[k % pcs.size()];
    store.Add(DeviceEvent{ts, u, pc,
                          k % 2 ? DeviceActivity::kConnect
                                : DeviceActivity::kDisconnect});
    store.Add(FileEvent{ts + 1, u, pc,
                        static_cast<FileActivity>(k % 4),
                        k % 3 ? plain : tricky, FileLocation::kLocal,
                        k % 5 ? FileLocation::kLocal : FileLocation::kRemote});
    store.Add(HttpEvent{ts + 2, u, pc, static_cast<HttpActivity>(k % 3),
                        k % 2 ? dom : dom2, static_cast<HttpFileType>(k % 4)});
    store.Add(LogonEvent{ts + 3, u, pc,
                         k % 2 ? LogonActivity::kLogon
                               : LogonActivity::kLogoff});
    store.Add(EnterpriseEvent{ts + 4, u, static_cast<EnterpriseAspect>(k % 4),
                              static_cast<std::uint16_t>(4600 + k % 100),
                              obj});
    store.Add(ProxyEvent{ts + 5, u, k % 2 ? dom : dom2, k % 7 != 0,
                         static_cast<std::uint32_t>(512 + 13 * k)});
  }
  for (int i = 0; i < 6; ++i) {
    LdapRecord rec;
    rec.user = users[static_cast<std::size_t>(i)];
    rec.user_name = "user" + std::to_string(i);
    rec.department = i < 3 ? "Dept-A" : "Dept-B";
    rec.team = "T" + std::to_string(i % 2);
    rec.role = "Employee";
    store.AddLdap(std::move(rec));
  }
  return store;
}

struct Stream {
  const char* name;
  std::function<void(const LogStore&, std::ostream&)> write;
  std::function<IngestStats(std::istream&, LogStore&, const IngestOptions&)>
      read;
};

std::vector<Stream> AllStreams() {
  return {
      {"device.csv", WriteDeviceCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadDeviceCsv(in, s, o, "device.csv");
       }},
      {"file.csv", WriteFileCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadFileCsv(in, s, o, "file.csv");
       }},
      {"http.csv", WriteHttpCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadHttpCsv(in, s, o, "http.csv");
       }},
      {"logon.csv", WriteLogonCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadLogonCsv(in, s, o, "logon.csv");
       }},
      {"ldap.csv", WriteLdapCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadLdapCsv(in, s, o, "ldap.csv");
       }},
      {"enterprise.csv", WriteEnterpriseCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadEnterpriseCsv(in, s, o, "enterprise.csv");
       }},
      {"proxy.csv", WriteProxyCsv,
       [](std::istream& in, LogStore& s, const IngestOptions& o) {
         return ReadProxyCsv(in, s, o, "proxy.csv");
       }},
  };
}

std::string Render(const Stream& stream, const LogStore& store) {
  std::ostringstream out;
  stream.write(store, out);
  return out.str();
}

// --- Fault injector ------------------------------------------------------

TEST(FaultInjectorTest, DeterministicAcrossRuns) {
  const LogStore store = MakeRichStore();
  const std::string clean = Render(AllStreams()[0], store);
  FaultInjectorConfig cfg;
  cfg.rate = 0.5;
  cfg.seed = 7;
  const FaultInjector inj(cfg);

  std::string a = clean;
  std::string b = clean;
  const FaultReport ra = inj.Corrupt(a, /*key=*/11);
  const FaultReport rb = inj.Corrupt(b, /*key=*/11);
  EXPECT_GT(ra.rows_corrupted, 0u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.rows_corrupted, rb.rows_corrupted);
  EXPECT_EQ(ra.bytes_flipped, rb.bytes_flipped);

  // A different file key draws an independent fault stream.
  std::string c = clean;
  inj.Corrupt(c, /*key=*/12);
  EXPECT_NE(a, c);
}

TEST(FaultInjectorTest, HeaderLineIsNeverTouched) {
  const LogStore store = MakeRichStore();
  const std::string clean = Render(AllStreams()[0], store);
  const std::string header = clean.substr(0, clean.find('\n'));
  FaultInjectorConfig cfg;
  cfg.rate = 1.0;
  const std::string corrupted = FaultInjector(cfg).Corrupted(clean, 1);
  EXPECT_EQ(corrupted.substr(0, corrupted.find('\n')), header);
}

TEST(FaultInjectorTest, RedeliverKeepsEveryOriginalRow) {
  const LogStore store = MakeRichStore();
  const std::string clean = Render(AllStreams()[1], store);
  FaultInjectorConfig cfg;
  cfg.rate = 0.6;
  cfg.redeliver = true;
  const std::string corrupted = FaultInjector(cfg).Corrupted(clean, 3);

  // Every clean line must survive somewhere in the corrupted text: a
  // garbled emission is always followed by a retransmission.
  std::istringstream corrupt_lines(corrupted);
  std::multiset<std::string> have;
  for (std::string line; std::getline(corrupt_lines, line);) {
    have.insert(line);
  }
  std::istringstream clean_lines(clean);
  for (std::string line; std::getline(clean_lines, line);) {
    const auto it = have.find(line);
    ASSERT_NE(it, have.end()) << "lost row: " << line;
    have.erase(it);
  }
}

// --- Fuzz-style round-trips ----------------------------------------------

IngestOptions PermissiveOptions() {
  IngestOptions options;
  options.policy = IngestPolicy::kPermissive;
  options.error_budget = 1.0;
  options.drop_consecutive_duplicates = true;
  return options;
}

/// Corrupted input must never crash a permissive reader, and both the
/// ingest counters and the accepted dataset must be reproducible.
TEST(FuzzRoundTripTest, CorruptedStreamsParseDeterministically) {
  const LogStore store = MakeRichStore();
  struct Variant {
    double rate;
    std::uint64_t seed;
    bool truncate_file;
  };
  const Variant variants[] = {
      {0.05, 1, false}, {0.35, 7, true}, {0.9, 13, false}};

  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    for (const Variant& v : variants) {
      FaultInjectorConfig cfg;
      cfg.rate = v.rate;
      cfg.seed = v.seed;
      cfg.truncate_file = v.truncate_file;
      const std::string corrupted =
          FaultInjector(cfg).Corrupted(clean, /*key=*/5);

      auto ingest = [&](IngestStats& stats) {
        LogStore fresh;
        std::istringstream in(corrupted);
        stats = stream.read(in, fresh, PermissiveOptions());
        return Render(stream, fresh);
      };
      IngestStats s1, s2;
      const std::string out1 = ingest(s1);
      const std::string out2 = ingest(s2);
      SCOPED_TRACE(std::string(stream.name) + " rate=" +
                   std::to_string(v.rate));
      EXPECT_EQ(out1, out2);
      EXPECT_EQ(s1.rows_read, s2.rows_read);
      EXPECT_EQ(s1.rows_rejected, s2.rows_rejected);
      EXPECT_EQ(s1.rows_deduped, s2.rows_deduped);
      EXPECT_EQ(s1.first_error, s2.first_error);
    }
  }
}

/// The property the end-to-end corruption test stands on: with
/// redelivery (an at-least-once shipper), permissive ingestion plus
/// consecutive-duplicate suppression recovers the clean stream exactly.
TEST(FuzzRoundTripTest, RedeliveryRecoversCleanStreamExactly) {
  const LogStore store = MakeRichStore();
  FaultInjectorConfig cfg;
  cfg.rate = 0.4;
  cfg.seed = 21;
  cfg.redeliver = true;
  const FaultInjector inj(cfg);

  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    const std::string corrupted = inj.Corrupted(clean, /*key=*/9);
    LogStore fresh;
    std::istringstream in(corrupted);
    const IngestStats stats = stream.read(in, fresh, PermissiveOptions());
    SCOPED_TRACE(stream.name);
    EXPECT_GT(stats.rows_rejected + stats.rows_deduped, 0u);
    EXPECT_EQ(Render(stream, fresh), clean);
  }
}

// --- Differential: block reader vs the line-mode reference ---------------

/// The line-at-a-time reader the block reader replaced, kept as the
/// reference: std::getline per physical line, one trailing '\r'
/// stripped, SplitCsvLineChecked, then the shared policy loop (header,
/// blank-line skip, dedup against the last accepted row, structural
/// check, field count, parse, reject/quarantine/budget). Parsing the
/// fields of a well-formed row is delegated to `stream.read` on a
/// one-row CSV re-rendered by CsvWriter into the same store, so this
/// pins the framing, splitting and policy order of the new reader
/// against an independent implementation; the per-field parsers are
/// the same code on both sides.
IngestStats ReferenceIngest(const Stream& stream, const std::string& text,
                            std::size_t n_fields, LogStore& store,
                            const IngestOptions& opts) {
  const std::string source = stream.name;
  std::istringstream in(text);
  IngestStats stats;
  std::string raw, prev_raw;
  std::vector<std::string> row;
  std::size_t line = 0;

  auto reject = [&](const std::string& reason) {
    ++stats.rows_rejected;
    if (stats.first_error.empty()) {
      stats.first_error = source + ":" + std::to_string(line) + ": " + reason;
    }
    if (opts.policy == IngestPolicy::kStrict) {
      throw IngestError(source, line, reason);
    }
    if (opts.policy == IngestPolicy::kQuarantine && opts.quarantine) {
      (*opts.quarantine) << raw << '\n';
      ++stats.rows_quarantined;
    }
    if (stats.rows_read >= opts.budget_min_rows &&
        static_cast<double>(stats.rows_rejected) >
            opts.error_budget * static_cast<double>(stats.rows_read)) {
      throw IngestError(
          source, line,
          "error budget exceeded: " + std::to_string(stats.rows_rejected) +
              " of " + std::to_string(stats.rows_read) +
              " rows rejected (budget " + std::to_string(opts.error_budget) +
              ")");
    }
  };

  while (std::getline(in, raw)) {
    if (++line == 1) continue;  // header
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (raw.empty()) continue;
    ++stats.rows_read;
    if (opts.drop_consecutive_duplicates && !prev_raw.empty() &&
        raw == prev_raw) {
      ++stats.rows_deduped;
      continue;
    }
    if (SplitCsvLineChecked(raw, row) != CsvRowStatus::kOk) {
      reject("unterminated quoted field (truncated row?)");
      continue;
    }
    if (row.size() != n_fields) {
      reject("expected " + std::to_string(n_fields) + " fields, got " +
             std::to_string(row.size()));
      continue;
    }
    std::ostringstream one;
    CsvWriter writer(one);
    writer.WriteRow(std::vector<std::string>(n_fields, "h"));
    writer.WriteRow(row);
    std::istringstream one_in(one.str());
    IngestOptions strict;
    strict.ts_min = opts.ts_min;
    strict.ts_max = opts.ts_max;
    try {
      stream.read(one_in, store, strict);
      prev_raw = raw;
    } catch (const IngestError& e) {
      const std::string prefix = source + ":2: ";
      reject(std::string(e.what()).substr(prefix.size()));
    }
  }
  return stats;
}

/// Everything an ingest leaves behind: the stats (or the error that
/// ended it), the accepted rows rendered back to CSV, every entity
/// table in id order, and the quarantine bytes.
struct IngestOutcome {
  IngestStats stats;
  std::string error;
  std::string accepted;
  std::string quarantine;
};

std::string DumpTables(const LogStore& store) {
  std::string out;
  for (const EntityTable* t : {&store.users(), &store.pcs(), &store.files(),
                               &store.domains(), &store.objects()}) {
    for (std::uint32_t id = 0; id < t->size(); ++id) {
      out += t->NameOf(id) + '\n';
    }
    out += "--\n";
  }
  return out;
}

template <typename Read>
IngestOutcome RunIngest(const Stream& stream, IngestOptions opts,
                        Read&& read) {
  IngestOutcome o;
  LogStore store;
  std::ostringstream quarantine;
  opts.quarantine = &quarantine;
  try {
    o.stats = read(store, opts);
  } catch (const IngestError& e) {
    o.error = e.what();
  }
  o.accepted = Render(stream, store) + DumpTables(store);
  o.quarantine = quarantine.str();
  return o;
}

std::vector<std::pair<const char*, IngestOptions>> DiffPolicies() {
  IngestOptions strict;
  IngestOptions permissive = PermissiveOptions();
  IngestOptions quarantine;
  quarantine.policy = IngestPolicy::kQuarantine;
  quarantine.error_budget = 0.3;
  quarantine.budget_min_rows = 20;
  quarantine.drop_consecutive_duplicates = true;
  quarantine.ts_max = 101500;  // a plausibility window cutting the tail
  return {{"strict", strict},
          {"permissive", permissive},
          {"quarantine", quarantine}};
}

/// Ingests `text` with the reader under test and with the reference
/// under every policy and demands identical outcomes, with the reader
/// cutting parse ranges every `range_bytes[i]` bytes and running on 1,
/// 2 and 4 threads.
void ExpectSplitsMatchReference(const Stream& stream, const std::string& text,
                                std::size_t n_fields,
                                const std::vector<std::size_t>& range_bytes) {
  for (const auto& [policy, opts] : DiffPolicies()) {
    SCOPED_TRACE(policy);
    const IngestOutcome want =
        RunIngest(stream, opts, [&](LogStore& s, const IngestOptions& o) {
          return ReferenceIngest(stream, text, n_fields, s, o);
        });
    for (const std::size_t bytes : range_bytes) {
      const ScopedCsvRangeBytes split(bytes);
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE("range_bytes=" + std::to_string(bytes) +
                     " threads=" + std::to_string(threads));
        IngestOptions parallel = opts;
        parallel.threads = threads;
        const IngestOutcome got = RunIngest(
            stream, parallel, [&](LogStore& s, const IngestOptions& o) {
              std::istringstream in(text);
              return stream.read(in, s, o);
            });
        EXPECT_EQ(got.error, want.error);
        EXPECT_EQ(got.stats.rows_read, want.stats.rows_read);
        EXPECT_EQ(got.stats.rows_rejected, want.stats.rows_rejected);
        EXPECT_EQ(got.stats.rows_quarantined, want.stats.rows_quarantined);
        EXPECT_EQ(got.stats.rows_deduped, want.stats.rows_deduped);
        EXPECT_EQ(got.stats.first_error, want.stats.first_error);
        EXPECT_EQ(got.accepted, want.accepted);
        EXPECT_EQ(got.quarantine, want.quarantine);
      }
    }
  }
}

/// The same, with `text` forced into exactly 1, 2, 3, 4 and 7 nominal
/// ranges. A line that spans a whole range leaves that range empty.
void ExpectMatchesReference(const Stream& stream, const std::string& text,
                            std::size_t n_fields) {
  std::vector<std::size_t> range_bytes;
  for (const std::size_t ranges : {1, 2, 3, 4, 7}) {
    range_bytes.push_back(
        std::max<std::size_t>(1, (text.size() + ranges - 1) / ranges));
  }
  ExpectSplitsMatchReference(stream, text, n_fields, range_bytes);
}

std::size_t HeaderFields(const std::string& clean) {
  return SplitCsvLine(clean.substr(0, clean.find('\n'))).size();
}

TEST(BlockReaderDiffTest, CorruptedInputsMatchLineModeReference) {
  const LogStore store = MakeRichStore();
  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    for (const double rate : {0.05, 0.35, 0.9}) {
      for (const bool truncate_file : {false, true}) {
        FaultInjectorConfig cfg;
        cfg.rate = rate;
        cfg.seed = 17;
        cfg.truncate_file = truncate_file;
        SCOPED_TRACE(std::string(stream.name) + " rate=" +
                     std::to_string(rate) +
                     (truncate_file ? " truncated" : ""));
        ExpectMatchesReference(stream,
                               FaultInjector(cfg).Corrupted(clean, 3),
                               HeaderFields(clean));
      }
    }
  }
}

TEST(BlockReaderDiffTest, RowsStraddlingBlocksMatchLineModeReference) {
  const LogStore store = MakeRichStore();
  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    const std::size_t header_end = clean.find('\n') + 1;
    const std::string rows = clean.substr(header_end);
    // Well past two block boundaries, which land mid-row wherever the
    // row lengths put them.
    std::string big = clean.substr(0, header_end);
    while (big.size() < 2 * kCsvReadBlockBytes + kCsvReadBlockBytes / 2) {
      big += rows;
    }
    SCOPED_TRACE(stream.name);
    ExpectMatchesReference(stream, big, HeaderFields(clean));
    // A row longer than a whole block, which must grow the buffer.
    std::string huge = clean + "1," +
                       std::string(kCsvReadBlockBytes + 999, 'x') + ",y\n" +
                       rows;
    ExpectMatchesReference(stream, huge, HeaderFields(clean));
  }
}

/// Quotes every field of a data line, whether or not it needs it.
std::string QuoteAll(const std::string& line) {
  std::string out;
  for (const std::string& f : SplitCsvLine(line)) {
    if (!out.empty()) out += ',';
    out += '"';
    for (const char c : f) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  return out;
}

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (std::size_t at = 0; (at = s.find(from, at)) != std::string::npos;
       at += to.size()) {
    s.replace(at, from.size(), to);
  }
  return s;
}

TEST(BlockReaderDiffTest, EdgeInputsMatchLineModeReference) {
  const LogStore store = MakeRichStore();
  for (const Stream& stream : AllStreams()) {
    const std::string clean = Render(stream, store);
    const std::string header = clean.substr(0, clean.find('\n'));
    std::vector<std::string> lines;
    {
      std::istringstream in(clean.substr(header.size() + 1));
      for (std::string l; std::getline(in, l);) lines.push_back(l);
    }
    auto join = [&](auto&& each) {
      std::string out = header + '\n';
      for (std::size_t i = 0; i < lines.size(); ++i) out += each(i);
      return out;
    };
    const std::vector<std::pair<const char*, std::string>> inputs = {
        {"no_trailing_newline", clean.substr(0, clean.size() - 1)},
        {"crlf", ReplaceAll(clean, "\n", "\r\n")},
        {"cr_cr_lf", ReplaceAll(clean, "\n", "\r\r\n")},
        {"blank_lines", join([&](std::size_t i) {
           return (i % 7 == 0 ? "\n\r\n" : "") + lines[i] + '\n';
         }) + "\n\n"},
        {"blank_header", "\n" + clean},
        {"empty", ""},
        {"header_only", header + '\n'},
        {"header_only_no_newline", header},
        {"header_only_crlf", header + "\r\n"},
        {"quoted_fields", join([&](std::size_t i) {
           return (i % 2 ? QuoteAll(lines[i]) : lines[i]) + '\n';
         })},
        {"quoted_comma_in_ts", join([&](std::size_t i) {
           return (i == 3 ? "\"1,5\"" + lines[i].substr(lines[i].find(','))
                          : lines[i]) +
                  '\n';
         })},
        {"stray_quote_resyncs", join([&](std::size_t i) {
           return (i == 2 ? std::string("a,\"broken\n") : "") + lines[i] +
                  '\n';
         })},
        {"consecutive_duplicates", join([&](std::size_t i) {
           return lines[i] + '\n' + (i % 3 == 0 ? lines[i] + "\r\n" : "");
         })},
        {"unterminated_quote_at_eof", clean + "100000,\"user0,PC-0"},
    };
    for (const auto& [name, text] : inputs) {
      SCOPED_TRACE(std::string(stream.name) + " " + name);
      ExpectMatchesReference(stream, text, HeaderFields(clean));
    }
  }
}

/// Range seams placed just before and just after each kind of line a
/// range must hand to the merge intact: CRLF, blank, quoted, a dropped
/// duplicate, a rejected row, an out-of-window timestamp (rejected under
/// the quarantine policy's window only) and the row that trips the
/// error budget.
TEST(BlockReaderDiffTest, SeamsOnSpecialLinesMatchLineModeReference) {
  const LogStore store = MakeRichStore();
  const std::vector<Stream> streams = AllStreams();
  const Stream& device = streams[0];
  const std::string clean = Render(device, store);
  std::vector<std::string> rows;
  {
    std::istringstream in(clean);
    for (std::string l; std::getline(in, l);) rows.push_back(l);
  }
  // rows[0] is the header; the special lines follow a few good rows,
  // then enough bad rows to trip the quarantine policy's budget.
  std::vector<std::string> lines(rows.begin(), rows.begin() + 25);
  std::vector<std::size_t> special;
  auto add = [&](std::string line) {
    special.push_back(lines.size());
    lines.push_back(std::move(line));
  };
  add(rows[25] + '\r');           // CRLF
  add("");                        // blank
  add(QuoteAll(rows[26]));        // quoted
  lines.push_back(rows[27]);
  add(rows[27]);                  // duplicate of the accepted row above
  add("100000,user0,PC-0");       // too few fields
  add("999999,user1,PC-1,connect");  // past the quarantine window
  for (std::size_t i = 28; i < rows.size(); ++i) {
    lines.push_back(rows[i]);
    if (i % 2) lines.push_back("bad!ts,user2,PC-2,connect");
  }
  std::string text;
  std::vector<std::size_t> offset;  // byte offset of each line
  for (const std::string& l : lines) {
    offset.push_back(text.size());
    text += l + '\n';
  }
  // The budget trips under the quarantine policy; find its row.
  const IngestOptions quarantine = DiffPolicies()[2].second;
  std::size_t trip = 0;
  try {
    LogStore scratch;
    ReferenceIngest(device, text, 4, scratch, quarantine);
  } catch (const IngestError& e) {
    ASSERT_NE(std::string(e.what()).find("error budget exceeded"),
              std::string::npos);
    trip = e.line() - 1;  // 1-based line -> index
  }
  ASSERT_GT(trip, special.back());
  special.push_back(trip);

  std::vector<std::size_t> range_bytes;
  for (const std::size_t line : special) {
    range_bytes.push_back(offset[line]);      // seam just before the line
    range_bytes.push_back(offset[line] + 1);  // seam just after it
  }
  ExpectSplitsMatchReference(device, text, 4, range_bytes);
}

// --- WriteFileAtomic durability -------------------------------------------

TEST(WriteFileAtomicTest, SyncsParentDirectoryAfterRename) {
  // The rename itself is only durable once the parent directory's entry
  // is fsync'd; assert the directory sync actually runs (per write)
  // rather than being silently skipped.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "acobe_dirsync";
  std::filesystem::create_directories(dir);
  const std::uint64_t before = DirFsyncCount();
  WriteFileAtomic((dir / "artifact.bin").string(),
                  [](std::ostream& out) { out << "payload"; });
  WriteFileAtomic((dir / "artifact.bin").string(),
                  [](std::ostream& out) { out << "payload2"; });
  EXPECT_GE(DirFsyncCount(), before + 2);
  // And no temporary litter survives a successful replace.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string(), "artifact.bin");
  }
  std::filesystem::remove_all(dir);
}

// --- Ensemble checkpoint / resume ----------------------------------------

const Date kStart(2010, 1, 4);

MeasurementCube ToyCube(int users, int days) {
  MeasurementCube cube(kStart, days, 2, 1);
  Rng rng(51);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(100 + u);
    for (int d = 0; d < days; ++d) {
      cube.At(u, 0, d, 0) = static_cast<float>(rng.NextPoisson(5.0));
      cube.At(u, 1, d, 0) = static_cast<float>(rng.NextPoisson(2.0));
    }
  }
  return cube;
}

EnsembleConfig SmallConfig() {
  EnsembleConfig cfg;
  cfg.encoder_dims = {8, 4};
  cfg.train.epochs = 4;
  cfg.seed = 3;
  cfg.threads = 1;
  return cfg;
}

void ExpectGridsBitIdentical(const ScoreGrid& a, const ScoreGrid& b) {
  ASSERT_EQ(a.aspects(), b.aspects());
  ASSERT_EQ(a.users(), b.users());
  ASSERT_EQ(a.day_begin(), b.day_begin());
  ASSERT_EQ(a.day_end(), b.day_end());
  for (int s = 0; s < a.aspects(); ++s) {
    for (int u = 0; u < a.users(); ++u) {
      for (int d = a.day_begin(); d < a.day_end(); ++d) {
        // EXPECT_EQ, not FLOAT_EQ: resume promises bit-identical output.
        EXPECT_EQ(a.At(s, u, d), b.At(s, u, d));
      }
    }
  }
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("acobe_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ScoreGrid TrainAndScore(
      const EnsembleConfig& cfg,
      std::vector<AspectTrainSummary>* summaries = nullptr) {
    const MeasurementCube cube = ToyCube(5, 30);
    const NormalizedDayBuilder builder(&cube, 0, 20);
    const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});
    AspectEnsemble ensemble(catalog.aspects(), cfg);
    ensemble.Train(builder, 5, 0, 20);
    if (summaries) *summaries = ensemble.train_summaries();
    return ensemble.Score(builder, 5, 20, 30);
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointResumeTest, ResumeReproducesUninterruptedRunBitExactly) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  const ScoreGrid first = TrainAndScore(cfg);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "aspect_x.ae"));
  ASSERT_TRUE(std::filesystem::exists(dir_ / "aspect_y.ae"));

  // The checkpoint directory is the model file: a resumed Train loads
  // every aspect instead of retraining any.
  cfg.resume = true;
  std::vector<AspectTrainSummary> summaries;
  const ScoreGrid resumed = TrainAndScore(cfg, &summaries);
  ASSERT_EQ(summaries.size(), 2u);
  for (const AspectTrainSummary& summary : summaries) {
    EXPECT_TRUE(summary.resumed) << summary.name;
    EXPECT_EQ(summary.attempts, 0) << summary.name;
  }
  ExpectGridsBitIdentical(first, resumed);
}

TEST_F(CheckpointResumeTest, MissingCheckpointRetrainsToSameResult) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  const ScoreGrid first = TrainAndScore(cfg);

  // A run killed before aspect "y" finished leaves only aspect "x".
  std::filesystem::remove(dir_ / "aspect_y.ae");
  cfg.resume = true;
  ExpectGridsBitIdentical(first, TrainAndScore(cfg));
}

TEST_F(CheckpointResumeTest, CorruptCheckpointIsDiscardedAndRetrained) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  const ScoreGrid first = TrainAndScore(cfg);

  // Flip one payload byte; the CRC rejects the file and the aspect is
  // retrained from scratch instead of scoring with silently-wrong
  // weights.
  const std::filesystem::path victim = dir_ / "aspect_x.ae";
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[20] ^= 0x20;
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  cfg.resume = true;
  ExpectGridsBitIdentical(first, TrainAndScore(cfg));
}

TEST_F(CheckpointResumeTest, ArchitectureMismatchThrows) {
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir_.string();
  TrainAndScore(cfg);

  // The directory belongs to an {8,4} run; resuming a {6,3} run must
  // refuse loudly instead of mixing architectures.
  cfg.encoder_dims = {6, 3};
  cfg.resume = true;
  EXPECT_THROW(TrainAndScore(cfg), CheckpointMismatch);
}

// --- Graceful degradation -------------------------------------------------

/// Feeds NaN for one feature's samples so that aspect's training loss is
/// non-finite on every attempt, while other aspects stay healthy.
class PoisonFeatureBuilder : public SampleBuilder {
 public:
  PoisonFeatureBuilder(const SampleBuilder* inner, int poisoned_feature)
      : inner_(inner), poisoned_feature_(poisoned_feature) {}

  std::vector<float> BuildSample(int user_idx, std::span<const int> features,
                                 int day) const override {
    std::vector<float> sample = inner_->BuildSample(user_idx, features, day);
    for (int f : features) {
      if (f == poisoned_feature_) {
        sample.assign(sample.size(),
                      std::numeric_limits<float>::quiet_NaN());
      }
    }
    return sample;
  }
  std::size_t SampleSize(std::size_t n_features) const override {
    return inner_->SampleSize(n_features);
  }
  int FirstValidDay() const override { return inner_->FirstValidDay(); }
  int EndDay() const override { return inner_->EndDay(); }

 private:
  const SampleBuilder* inner_;
  int poisoned_feature_;
};

TEST(DegradationTest, PoisonedAspectIsDroppedAndRestStillScore) {
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder inner(&cube, 0, 20);
  const PoisonFeatureBuilder builder(&inner, /*poisoned_feature=*/1);
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "acobe_ckpt_degraded";
  std::filesystem::remove_all(dir);
  EnsembleConfig cfg = SmallConfig();
  cfg.checkpoint_dir = dir.string();
  AspectEnsemble ensemble(catalog.aspects(), cfg);
  ensemble.Train(builder, 5, 0, 20);

  EXPECT_TRUE(ensemble.trained());
  EXPECT_TRUE(ensemble.degraded());
  EXPECT_TRUE(ensemble.aspect_ok(0));
  EXPECT_FALSE(ensemble.aspect_ok(1));
  EXPECT_EQ(ensemble.healthy_aspect_count(), 1);
  EXPECT_EQ(ensemble.failed_aspects(), std::vector<std::string>{"y"});

  const ScoreGrid grid = ensemble.Score(builder, 5, 20, 30);
  ASSERT_EQ(grid.aspects(), 1);
  EXPECT_EQ(grid.aspect_name(0), "x");
  for (int u = 0; u < 5; ++u) {
    for (int d = 20; d < 30; ++d) {
      EXPECT_TRUE(std::isfinite(grid.At(0, u, d)));
    }
  }

  // A diverged aspect leaves no checkpoint, so a resumed run retrains
  // it instead of loading a partial model as if it were whole.
  EXPECT_TRUE(std::filesystem::exists(dir / "aspect_x.ae"));
  EXPECT_FALSE(std::filesystem::exists(dir / "aspect_y.ae"));
  std::filesystem::remove_all(dir);
}

TEST(DegradationTest, StrictModeRethrowsDivergence) {
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder inner(&cube, 0, 20);
  const PoisonFeatureBuilder builder(&inner, /*poisoned_feature=*/0);
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  EnsembleConfig cfg = SmallConfig();
  cfg.allow_degraded = false;
  AspectEnsemble ensemble(catalog.aspects(), cfg);
  EXPECT_THROW(ensemble.Train(builder, 5, 0, 20), nn::TrainingDiverged);
}

TEST(DegradationTest, DegradedScoringIsThreadCountInvariant) {
  const MeasurementCube cube = ToyCube(5, 30);
  const NormalizedDayBuilder inner(&cube, 0, 20);
  const PoisonFeatureBuilder builder(&inner, /*poisoned_feature=*/1);
  const FeatureCatalog catalog({{"f0", "x", 1.0}, {"f1", "y", 1.0}});

  auto run = [&](int threads) {
    EnsembleConfig cfg = SmallConfig();
    cfg.threads = threads;
    AspectEnsemble ensemble(catalog.aspects(), cfg);
    ensemble.Train(builder, 5, 0, 20);
    return ensemble.Score(builder, 5, 20, 30);
  };
  ExpectGridsBitIdentical(run(1), run(4));
}

}  // namespace
}  // namespace acobe
