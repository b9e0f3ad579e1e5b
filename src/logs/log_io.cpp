#include "logs/log_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace acobe {
namespace {

std::string TsToString(Timestamp ts) { return std::to_string(ts); }

[[noreturn]] void BadField(const char* what, const char* problem,
                           std::string_view s) {
  std::string msg(what);
  msg.append(": ").append(problem).append(" '").append(s).append("'");
  throw std::invalid_argument(msg);
}

/// Strict integer parse: the whole field must be a decimal integer
/// (optional leading minus), no whitespace, no trailing junk —
/// std::stoll's tolerance for both is how garbage timestamps slip in.
std::int64_t ParseI64(std::string_view s, const char* what) {
  std::int64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || s.empty()) {
    BadField(what, "bad integer", s);
  }
  return v;
}

Timestamp ParseTs(std::string_view s, const IngestOptions& opts) {
  const std::int64_t ts = ParseI64(s, "ts");
  if (ts < opts.ts_min || ts > opts.ts_max) {
    std::string msg("ts: timestamp ");
    msg.append(s).append(" outside plausibility window");
    throw std::invalid_argument(msg);
  }
  return ts;
}

std::uint32_t ParseU32(std::string_view s, const char* what) {
  const std::int64_t v = ParseI64(s, what);
  if (v < 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    BadField(what, "out of range", s);
  }
  return static_cast<std::uint32_t>(v);
}

std::uint16_t ParseU16(std::string_view s, const char* what) {
  const std::int64_t v = ParseI64(s, what);
  if (v < 0 || v > std::numeric_limits<std::uint16_t>::max()) {
    BadField(what, "out of range", s);
  }
  return static_cast<std::uint16_t>(v);
}

bool ParseBool01(std::string_view s, const char* what) {
  if (s == "1") return true;
  if (s == "0") return false;
  BadField(what, "expected 0 or 1, got", s);
}

/// The physical lines of a CSV stream, as std::getline would produce
/// them (split on '\n'; a final unterminated segment counts only when
/// non-empty), handed out as views into one reusable block buffer. A
/// line cut by a block boundary is carried to the front of the buffer
/// before the next read; a line longer than the buffer grows it. The
/// buffer is allocated uninitialised, on first use: small daemon
/// batches must not pay for zero-filling a whole block.
class LineReader {
 public:
  LineReader(std::istream& in, const std::string& source)
      : in_(in), source_(source) {}

  /// Next line without its '\n'; the view is valid until the next call.
  /// Returns false at end of input. Throws IngestError when a read
  /// fails (badbit): a failed read is never mistaken for end of file.
  /// The bytes of the failed read are lost with it, so the error names
  /// the first line not yet returned.
  bool Next(std::string_view& line) {
    for (;;) {
      const char* p = buf_.get() + begin_;
      const std::size_t avail = end_ - begin_;
      if (const void* nl = avail ? std::memchr(p, '\n', avail) : nullptr) {
        const std::size_t len = static_cast<std::size_t>(
            static_cast<const char*>(nl) - p);
        line = std::string_view(p, len);
        begin_ += len + 1;
        ++line_no_;
        return true;
      }
      if (eof_) {
        if (avail == 0) return false;
        line = std::string_view(p, avail);
        begin_ = end_;
        ++line_no_;
        return true;
      }
      Fill();
    }
  }

  /// 1-based physical line number of the line last returned.
  std::size_t line_no() const { return line_no_; }

 private:
  void Fill() {
    const std::size_t carry = end_ - begin_;
    if (carry == cap_) {
      const std::size_t cap = cap_ ? 2 * cap_ : kCsvReadBlockBytes;
      std::unique_ptr<char[]> grown(new char[cap]);
      if (carry) std::memcpy(grown.get(), buf_.get() + begin_, carry);
      buf_ = std::move(grown);
      cap_ = cap;
    } else if (begin_ > 0 && carry > 0) {
      std::memmove(buf_.get(), buf_.get() + begin_, carry);
    }
    begin_ = 0;
    end_ = carry;
    in_.read(buf_.get() + end_, static_cast<std::streamsize>(cap_ - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    if (in_.bad()) {
      throw IngestError(source_, line_no_ + 1,
                        "read error: input stream failed at or after this "
                        "line (input incomplete)");
    }
    if (!in_) eof_ = true;  // short read: end of input
  }

  std::istream& in_;
  const std::string& source_;
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;  // first unconsumed byte
  std::size_t end_ = 0;    // one past the last byte read
  bool eof_ = false;
  std::size_t line_no_ = 0;
};

/// One row's fields, viewing either the line buffer (unquoted rows) or
/// the slow path's decoded strings.
using Fields = std::span<const std::string_view>;

/// Splits a quote-free line on ',' without copying. Fills at most
/// `out.size()` views and returns the full field count, so a row with
/// too many fields is still reported with its real count. Mirrors
/// SplitCsvLineChecked: one trailing '\r' is a line terminator.
std::size_t SplitUnquoted(std::string_view line,
                          std::span<std::string_view> out) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::size_t n = 0;
  for (;;) {
    const std::size_t comma = line.find(',');
    if (n < out.size()) out[n] = line.substr(0, comma);
    ++n;
    if (comma == std::string_view::npos) return n;
    line.remove_prefix(comma + 1);
  }
}

/// The shared policy-driven row loop: header, structural checks, field
/// count, per-row parse with recovery, duplicate dropping, quarantine,
/// and the bounded error budget. `parse` consumes one well-formed row of
/// exactly `NFields` fields.
///
/// Records are one per physical line (the CERT layout), so a corrupted
/// byte that happens to be a quote damages one row instead of slurping
/// the rest of the file into it. Lines without a '"' — nearly all of
/// them — are split in place; any line with one takes the general
/// SplitCsvLineChecked path, which decodes quoting and detects an
/// unterminated quote.
template <std::size_t NFields, typename ParseRow>
IngestStats IngestCsv(std::istream& in, const std::string& source,
                      const IngestOptions& opts, ParseRow&& parse) {
  LineReader lines(in, source);
  IngestStats stats;
  std::string prev_raw;
  std::array<std::string_view, NFields> fields;
  std::vector<std::string> decoded;  // slow-path field storage

  auto reject = [&](std::size_t line, std::string_view raw,
                    const std::string& reason) {
    ++stats.rows_rejected;
    ACOBE_COUNT("logs.rows_rejected", 1);
    ACOBE_COUNT("logs.parse_errors", 1);
    if (stats.first_error.empty()) {
      stats.first_error =
          source + ":" + std::to_string(line) + ": " + reason;
    }
    if (opts.policy == IngestPolicy::kStrict) {
      throw IngestError(source, line, reason);
    }
    if (opts.policy == IngestPolicy::kQuarantine && opts.quarantine) {
      (*opts.quarantine) << raw << '\n';
      ++stats.rows_quarantined;
      ACOBE_COUNT("logs.rows_quarantined", 1);
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

  std::string_view raw;
  if (!lines.Next(raw)) return stats;  // the header line
  while (lines.Next(raw)) {
    // Raw row text is the line minus one CRLF '\r' (what quarantine
    // copies and dedup compares); a second '\r' is dropped by the split.
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    if (raw.empty()) continue;  // trailing/blank line
    ++stats.rows_read;
    ACOBE_COUNT("logs.rows_read", 1);
    // Duplicate suppression compares against the last *accepted* row,
    // not the last row seen: a redelivered pair may be separated by the
    // garbled first transmission, and a rejected row must not shield
    // the retransmission that follows it from dedup.
    if (opts.drop_consecutive_duplicates && !prev_raw.empty() &&
        raw == prev_raw) {
      ++stats.rows_deduped;
      ACOBE_COUNT("logs.rows_deduped", 1);
      continue;
    }
    std::size_t got = 0;
    if (raw.find('"') == std::string_view::npos) {
      got = SplitUnquoted(raw, fields);
    } else {
      if (SplitCsvLineChecked(raw, decoded) != CsvRowStatus::kOk) {
        reject(lines.line_no(), raw,
               "unterminated quoted field (truncated row?)");
        continue;
      }
      got = decoded.size();
      for (std::size_t i = 0; i < std::min(got, fields.size()); ++i) {
        fields[i] = decoded[i];
      }
    }
    if (got != NFields) {
      reject(lines.line_no(), raw,
             "expected " + std::to_string(NFields) + " fields, got " +
                 std::to_string(got));
      continue;
    }
    try {
      parse(Fields(fields));
      if (opts.drop_consecutive_duplicates) prev_raw.assign(raw);
    } catch (const std::exception& e) {
      reject(lines.line_no(), raw, e.what());
    }
  }
  return stats;
}

}  // namespace

void WriteDeviceCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "device");
  CsvWriter w(out);
  w.WriteRow({"ts", "user", "pc", "activity"});
  for (const DeviceEvent& e : store.devices()) {
    w.WriteRow({TsToString(e.ts), store.users().NameOf(e.user),
                store.pcs().NameOf(e.pc), ToString(e.activity)});
  }
}

IngestStats ReadDeviceCsv(std::istream& in, EntityCatalog& tables,
                          LogSink& sink, const IngestOptions& opts,
                          const std::string& source) {
  ACOBE_SPAN2("logs.read", "device");
  return IngestCsv<4>(in, source, opts,
                   [&](Fields row) {
                     DeviceEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = DeviceActivityFromString(row[3]);
                     e.user = tables.users().Intern(row[1]);
                     e.pc = tables.pcs().Intern(row[2]);
                     sink.Consume(e);
                   });
}

IngestStats ReadDeviceCsv(std::istream& in, LogStore& store,
                          const IngestOptions& opts,
                          const std::string& source) {
  return ReadDeviceCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

void WriteFileCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "file");
  CsvWriter w(out);
  w.WriteRow({"ts", "user", "pc", "activity", "file", "from", "to"});
  for (const FileEvent& e : store.file_events()) {
    w.WriteRow({TsToString(e.ts), store.users().NameOf(e.user),
                store.pcs().NameOf(e.pc), ToString(e.activity),
                store.files().NameOf(e.file), ToString(e.from),
                ToString(e.to)});
  }
}

IngestStats ReadFileCsv(std::istream& in, EntityCatalog& tables, LogSink& sink,
                        const IngestOptions& opts, const std::string& source) {
  ACOBE_SPAN2("logs.read", "file");
  return IngestCsv<7>(in, source, opts,
                   [&](Fields row) {
                     FileEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = FileActivityFromString(row[3]);
                     e.from = FileLocationFromString(row[5]);
                     e.to = FileLocationFromString(row[6]);
                     e.user = tables.users().Intern(row[1]);
                     e.pc = tables.pcs().Intern(row[2]);
                     e.file = tables.files().Intern(row[4]);
                     sink.Consume(e);
                   });
}

IngestStats ReadFileCsv(std::istream& in, LogStore& store,
                        const IngestOptions& opts, const std::string& source) {
  return ReadFileCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

void WriteHttpCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "http");
  CsvWriter w(out);
  w.WriteRow({"ts", "user", "pc", "activity", "domain", "filetype"});
  for (const HttpEvent& e : store.http_events()) {
    w.WriteRow({TsToString(e.ts), store.users().NameOf(e.user),
                store.pcs().NameOf(e.pc), ToString(e.activity),
                store.domains().NameOf(e.domain), ToString(e.filetype)});
  }
}

IngestStats ReadHttpCsv(std::istream& in, EntityCatalog& tables, LogSink& sink,
                        const IngestOptions& opts, const std::string& source) {
  ACOBE_SPAN2("logs.read", "http");
  return IngestCsv<6>(in, source, opts,
                   [&](Fields row) {
                     HttpEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = HttpActivityFromString(row[3]);
                     e.filetype = HttpFileTypeFromString(row[5]);
                     e.user = tables.users().Intern(row[1]);
                     e.pc = tables.pcs().Intern(row[2]);
                     e.domain = tables.domains().Intern(row[4]);
                     sink.Consume(e);
                   });
}

IngestStats ReadHttpCsv(std::istream& in, LogStore& store,
                        const IngestOptions& opts, const std::string& source) {
  return ReadHttpCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

void WriteLogonCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "logon");
  CsvWriter w(out);
  w.WriteRow({"ts", "user", "pc", "activity"});
  for (const LogonEvent& e : store.logons()) {
    w.WriteRow({TsToString(e.ts), store.users().NameOf(e.user),
                store.pcs().NameOf(e.pc), ToString(e.activity)});
  }
}

IngestStats ReadLogonCsv(std::istream& in, EntityCatalog& tables,
                         LogSink& sink, const IngestOptions& opts,
                         const std::string& source) {
  ACOBE_SPAN2("logs.read", "logon");
  return IngestCsv<4>(in, source, opts,
                   [&](Fields row) {
                     LogonEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.activity = LogonActivityFromString(row[3]);
                     e.user = tables.users().Intern(row[1]);
                     e.pc = tables.pcs().Intern(row[2]);
                     sink.Consume(e);
                   });
}

IngestStats ReadLogonCsv(std::istream& in, LogStore& store,
                         const IngestOptions& opts,
                         const std::string& source) {
  return ReadLogonCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

void WriteEnterpriseCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "enterprise");
  CsvWriter w(out);
  w.WriteRow({"ts", "user", "aspect", "event_id", "object"});
  for (const EnterpriseEvent& e : store.enterprise_events()) {
    w.WriteRow({TsToString(e.ts), store.users().NameOf(e.user),
                ToString(e.aspect), std::to_string(e.event_id),
                store.objects().NameOf(e.object)});
  }
}

IngestStats ReadEnterpriseCsv(std::istream& in, EntityCatalog& tables,
                              LogSink& sink, const IngestOptions& opts,
                              const std::string& source) {
  ACOBE_SPAN2("logs.read", "enterprise");
  return IngestCsv<5>(in, source, opts,
                   [&](Fields row) {
                     EnterpriseEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.aspect = EnterpriseAspectFromString(row[2]);
                     e.event_id = ParseU16(row[3], "event_id");
                     e.user = tables.users().Intern(row[1]);
                     e.object = tables.objects().Intern(row[4]);
                     sink.Consume(e);
                   });
}

IngestStats ReadEnterpriseCsv(std::istream& in, LogStore& store,
                              const IngestOptions& opts,
                              const std::string& source) {
  return ReadEnterpriseCsv(in, store, static_cast<LogSink&>(store), opts,
                           source);
}

void WriteProxyCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "proxy");
  CsvWriter w(out);
  w.WriteRow({"ts", "user", "domain", "success", "bytes"});
  for (const ProxyEvent& e : store.proxy_events()) {
    w.WriteRow({TsToString(e.ts), store.users().NameOf(e.user),
                store.domains().NameOf(e.domain), e.success ? "1" : "0",
                std::to_string(e.bytes)});
  }
}

IngestStats ReadProxyCsv(std::istream& in, EntityCatalog& tables,
                         LogSink& sink, const IngestOptions& opts,
                         const std::string& source) {
  ACOBE_SPAN2("logs.read", "proxy");
  return IngestCsv<5>(in, source, opts,
                   [&](Fields row) {
                     ProxyEvent e;
                     e.ts = ParseTs(row[0], opts);
                     e.success = ParseBool01(row[3], "success");
                     e.bytes = ParseU32(row[4], "bytes");
                     e.user = tables.users().Intern(row[1]);
                     e.domain = tables.domains().Intern(row[2]);
                     sink.Consume(e);
                   });
}

IngestStats ReadProxyCsv(std::istream& in, LogStore& store,
                         const IngestOptions& opts,
                         const std::string& source) {
  return ReadProxyCsv(in, store, static_cast<LogSink&>(store), opts, source);
}

void WriteLdapCsv(const LogStore& store, std::ostream& out) {
  ACOBE_SPAN2("logs.write", "ldap");
  CsvWriter w(out);
  w.WriteRow({"user", "department", "team", "role"});
  for (const LdapRecord& r : store.ldap()) {
    w.WriteRow({r.user_name, r.department, r.team, r.role});
  }
}

IngestStats ReadLdapCsv(std::istream& in, EntityCatalog& tables,
                        const IngestOptions& opts, const std::string& source) {
  ACOBE_SPAN2("logs.read", "ldap");
  return IngestCsv<4>(in, source, opts,
                   [&](Fields row) {
                     LdapRecord r;
                     r.user_name = std::string(row[0]);
                     r.user = tables.users().Intern(row[0]);
                     r.department = std::string(row[1]);
                     r.team = std::string(row[2]);
                     r.role = std::string(row[3]);
                     tables.AddLdap(std::move(r));
                   });
}

IngestStats ReadLdapCsv(std::istream& in, LogStore& store,
                        const IngestOptions& opts, const std::string& source) {
  return ReadLdapCsv(in, static_cast<EntityCatalog&>(store), opts, source);
}

CsvEventSink::CsvEventSink(const EntityCatalog& tables, std::ostream* logon,
                           std::ostream* device, std::ostream* file,
                           std::ostream* http, bool write_headers)
    : tables_(tables) {
  logon_.out = logon;
  device_.out = device;
  file_.out = file;
  http_.out = http;
  if (!write_headers) {
    logon_.header_written = device_.header_written = file_.header_written =
        http_.header_written = true;
  }
}

void CsvEventSink::WriteRow(Stream& s, const std::vector<std::string>& header,
                            const std::vector<std::string>& row) {
  if (!s.out) return;
  CsvWriter w(*s.out);
  if (!s.header_written) {
    s.header_written = true;
    w.WriteRow(header);
  }
  w.WriteRow(row);
  ++rows_written_;
}

void CsvEventSink::Consume(const LogonEvent& e) {
  WriteRow(logon_, {"ts", "user", "pc", "activity"},
           {TsToString(e.ts), tables_.users().NameOf(e.user),
            tables_.pcs().NameOf(e.pc), ToString(e.activity)});
}

void CsvEventSink::Consume(const DeviceEvent& e) {
  WriteRow(device_, {"ts", "user", "pc", "activity"},
           {TsToString(e.ts), tables_.users().NameOf(e.user),
            tables_.pcs().NameOf(e.pc), ToString(e.activity)});
}

void CsvEventSink::Consume(const FileEvent& e) {
  WriteRow(file_, {"ts", "user", "pc", "activity", "file", "from", "to"},
           {TsToString(e.ts), tables_.users().NameOf(e.user),
            tables_.pcs().NameOf(e.pc), ToString(e.activity),
            tables_.files().NameOf(e.file), ToString(e.from), ToString(e.to)});
}

void CsvEventSink::Consume(const HttpEvent& e) {
  WriteRow(http_, {"ts", "user", "pc", "activity", "domain", "filetype"},
           {TsToString(e.ts), tables_.users().NameOf(e.user),
            tables_.pcs().NameOf(e.pc), ToString(e.activity),
            tables_.domains().NameOf(e.domain), ToString(e.filetype)});
}

}  // namespace acobe
