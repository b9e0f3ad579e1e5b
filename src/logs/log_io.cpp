#include "logs/log_io.h"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstring>
#include <deque>
#include <future>
#include <istream>
#include <limits>
#include <memory>
#include <new>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
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

/// Bytes per parse range; ScopedCsvRangeBytes overrides it in tests.
std::atomic<std::size_t> g_range_bytes{kCsvRangeBlocks * kCsvReadBlockBytes};

// A range's bytes and its event array are mapped straight from the OS,
// reused by later ranges and unmapped when the file is done. Through
// malloc, blocks of this size (up to ~1 MiB, freed on other threads
// than the one that made them) stay resident after ingest once the
// allocator's mmap threshold has risen past them, and raise the run's
// peak RSS.

/// Maps `bytes` of zero-filled, uncommitted pages. Throws bad_alloc.
void* MapPages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

struct Unmap {
  std::size_t bytes = 0;
  void operator()(char* p) const { munmap(p, bytes); }
};
using PageBytes = std::unique_ptr<char[], Unmap>;

PageBytes MapBytes(std::size_t bytes) {
  return PageBytes(static_cast<char*>(MapPages(bytes)), Unmap{bytes});
}

/// std::vector storage from MapPages.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(MapPages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { munmap(p, n * sizeof(T)); }
  friend bool operator==(PageAllocator, PageAllocator) { return true; }
};

/// One line-aligned slice of the input. `header` marks the slice that
/// starts with the stream's first line.
struct Slice {
  PageBytes data;
  std::size_t size = 0;
  bool header = false;
};

/// Reads a CSV stream on the calling thread and cuts it into slices of
/// whole lines: slice k holds the lines starting in stream bytes
/// [k*R, (k+1)*R) (a slice with no line start is skipped). The lines
/// are exactly those std::getline produces (split on '\n'; a final
/// unterminated segment counts only when non-empty).
///
/// Reads follow one block reader's pattern whatever R is: each read
/// asks for a kCsvReadBlockBytes block less the partial line carried
/// over, and a line that fills the block doubles it. So a stream that
/// fails (badbit) fails on the same read at any R and thread count: the
/// bytes of that read are lost, every complete line before it is still
/// handed out, and failed() reports it once the slices run out. Pages
/// of a slice buffer are committed only as bytes land in them: a small
/// daemon batch never pays for a whole range.
class SliceReader {
 public:
  SliceReader(std::istream& in, std::size_t range_bytes)
      : in_(in), range_bytes_(range_bytes), boundary_(range_bytes) {}

  /// The next slice, or false at end of input or after a failed read.
  /// A buffer already in `out.data` is taken to hold the bytes that
  /// follow the slice, so recycled buffers fault in no new pages.
  bool Next(Slice& out) {
    for (;;) {
      // Cut at the first line start at or past the boundary (start_ <
      // boundary_ always holds).
      const std::size_t from = std::max<std::size_t>(
          searched_, static_cast<std::size_t>(boundary_ - 1 - start_));
      if (from < len_) {
        if (const void* nl = std::memchr(buf_.get() + from, '\n', len_ - from)) {
          Cut(out, static_cast<std::size_t>(static_cast<const char*>(nl) -
                                            buf_.get()) + 1);
          return true;
        }
        searched_ = len_;
      }
      if (failed_ || eof_) {
        // At a failure only whole lines remain; at EOF the final
        // unterminated segment is a line too.
        const std::size_t size = failed_ ? lines_end_ : len_;
        if (size == 0) return false;
        Cut(out, size);
        len_ = lines_end_ = 0;
        return true;
      }
      Fill();
    }
  }

  /// True when Next will return no further slice.
  bool exhausted() const { return (failed_ || eof_) && len_ == 0; }
  /// True once a read failed: the input is incomplete.
  bool failed() const { return failed_; }

 private:
  void Fill() {
    const std::size_t carry = len_ - lines_end_;  // the partial last line
    if (carry == block_) block_ *= 2;
    const std::size_t want = block_ - carry;
    Reserve(len_ + want);
    in_.read(buf_.get() + len_, static_cast<std::streamsize>(want));
    const std::size_t got = static_cast<std::size_t>(in_.gcount());
    if (in_.bad()) {  // the bytes of the failed read are lost with it
      failed_ = true;
      return;
    }
    if (const void* nl = got ? memrchr(buf_.get() + len_, '\n', got)
                             : nullptr) {
      lines_end_ =
          static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.get()) + 1;
    }
    len_ += got;
    if (!in_) eof_ = true;  // short read: end of input
  }

  void Reserve(std::size_t need) {
    if (need <= cap_) return;
    const std::size_t cap = std::max(need, range_bytes_ + block_);
    PageBytes grown = MapBytes(cap);
    if (len_) std::memcpy(grown.get(), buf_.get(), len_);
    buf_ = std::move(grown);
    cap_ = cap;
  }

  /// Hands out buf_[0, size) and moves the rest into out's old buffer,
  /// or a fresh one when that is absent or too small.
  void Cut(Slice& out, std::size_t size) {
    const std::size_t rest = len_ - size;
    PageBytes next = std::move(out.data);
    const std::size_t want = std::max(rest + block_, range_bytes_ + block_);
    if (rest && (!next || next.get_deleter().bytes < want)) {
      next = MapBytes(want);
    }
    if (rest) std::memcpy(next.get(), buf_.get() + size, rest);
    out.data = std::move(buf_);
    out.size = size;
    out.header = start_ == 0;
    buf_ = std::move(next);
    cap_ = buf_ ? buf_.get_deleter().bytes : 0;
    start_ += size;
    len_ = rest;
    lines_end_ = lines_end_ > size ? lines_end_ - size : 0;
    searched_ = 0;
    boundary_ = (start_ / range_bytes_ + 1) * range_bytes_;
  }

  std::istream& in_;
  const std::size_t range_bytes_;
  PageBytes buf_;  // stream bytes from start_, a line start
  std::size_t cap_ = 0;
  std::size_t len_ = 0;
  std::size_t lines_end_ = 0;  // one past buf_'s last '\n'; 0 if none
  std::size_t searched_ = 0;   // buf_ bytes already searched for a cut
  std::uint64_t start_ = 0;    // stream offset of buf_[0]
  std::uint64_t boundary_;     // the current slice ends at a line start >= this
  std::size_t block_ = kCsvReadBlockBytes;
  bool eof_ = false;
  bool failed_ = false;
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

/// A row a range worker rejected, with the range-local counts a serial
/// pass would have reached at it.
struct RowReject {
  std::size_t line;       // 1-based physical line within the range
  std::size_t rows;       // data rows seen, this one included
  std::size_t deduped;    // duplicates dropped before it
  std::size_t accepted;   // events accepted before it
  std::string raw;        // kept for quarantine only
  std::string reason;
};

/// A slice and everything parsing it produced. Events name entities by
/// ids of the range's own tables until the merge maps them.
template <typename Event>
struct ParsedRange {
  Slice slice;
  EntityCatalog tables;
  std::vector<Event, PageAllocator<Event>> events;
  std::vector<RowReject> rejects;
  std::size_t lines = 0;
  std::size_t rows = 0;
  std::size_t deduped = 0;
  // First and last accepted raw rows (duplicate dropping only).
  std::string first_accepted, last_accepted;

  /// Forgets the parse but keeps the slice and event buffers, whose
  /// pages the next range then reuses.
  void Clear() {
    slice.size = 0;
    tables = EntityCatalog();
    events.clear();
    rejects.clear();
    lines = rows = deduped = 0;
    first_accepted.clear();
    last_accepted.clear();
  }
};

/// The per-range half of the row loop: header, blank lines, duplicate
/// dropping, structural checks, field count and `parse`, recorded
/// rather than acted on. Depends on nothing outside the range, so
/// ranges parse in any order on any thread.
///
/// Records are one per physical line (the CERT layout), so a corrupted
/// byte that happens to be a quote damages one row instead of slurping
/// the rest of the file into it. Lines without a '"' — nearly all of
/// them — are split in place; any line with one takes the general
/// SplitCsvLineChecked path, which decodes quoting and detects an
/// unterminated quote.
///
/// Duplicates compare against the last *accepted* row, not the last row
/// seen: a redelivered pair may be separated by the garbled first
/// transmission, and a rejected row must not shield the retransmission
/// that follows it. A rejected row never equals an accepted one, so the
/// only decision this range cannot make alone is whether its first
/// accepted row repeats an earlier range's last; the merge makes it.
template <std::size_t NFields, typename Event, typename Parse>
void ParseRange(ParsedRange<Event>& r, const IngestOptions& opts,
                const Parse& parse) {
  ACOBE_SPAN("logs.parse_range");
  std::array<std::string_view, NFields> fields;
  std::vector<std::string> decoded;  // slow-path field storage
  std::string_view prev;             // last accepted row in this range
  const bool dedup = opts.drop_consecutive_duplicates;
  const bool keep_raw =
      opts.policy == IngestPolicy::kQuarantine && opts.quarantine;
  auto reject = [&](std::string_view raw, std::string reason) {
    r.rejects.push_back(RowReject{r.lines, r.rows, r.deduped,
                                  r.events.size(),
                                  keep_raw ? std::string(raw) : std::string(),
                                  std::move(reason)});
  };
  const char* p = r.slice.data.get();
  const char* const end = p + r.slice.size;
  std::size_t lines = 0;  // an upper bound on the events
  for (const char* q = p; q != end; ++lines) {
    const void* nl = std::memchr(q, '\n', static_cast<std::size_t>(end - q));
    q = nl ? static_cast<const char*>(nl) + 1 : end;
  }
  r.events.reserve(lines);
  bool header = r.slice.header;
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    std::string_view raw(p, static_cast<std::size_t>((nl ? nl : end) - p));
    p = nl ? nl + 1 : end;
    ++r.lines;
    if (header) {
      header = false;
      continue;
    }
    // Raw row text is the line minus one CRLF '\r' (what quarantine
    // copies and dedup compares); a second '\r' is dropped by the split.
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    if (raw.empty()) continue;  // trailing/blank line
    ++r.rows;
    if (dedup && !prev.empty() && raw == prev) {
      ++r.deduped;
      continue;
    }
    std::size_t got = 0;
    if (raw.find('"') == std::string_view::npos) {
      got = SplitUnquoted(raw, fields);
    } else {
      if (SplitCsvLineChecked(raw, decoded) != CsvRowStatus::kOk) {
        reject(raw, "unterminated quoted field (truncated row?)");
        continue;
      }
      got = decoded.size();
      for (std::size_t i = 0; i < std::min(got, fields.size()); ++i) {
        fields[i] = decoded[i];
      }
    }
    if (got != NFields) {
      reject(raw, "expected " + std::to_string(NFields) + " fields, got " +
                      std::to_string(got));
      continue;
    }
    Event e;
    try {
      e = parse(Fields(fields), r.tables);
    } catch (const std::exception& ex) {
      reject(raw, ex.what());
      continue;
    }
    r.events.push_back(std::move(e));
    if (dedup) {
      if (prev.empty()) r.first_accepted = raw;
      prev = raw;
    }
  }
  r.last_accepted = prev;
}

/// Maps one range's entity ids to the catalog's. A name is interned
/// into the catalog when the first accepted row that uses it is
/// merged, so catalog ids come out dense and in first-seen order, as a
/// serial pass hands them out.
class IdRemap {
 public:
  IdRemap(const EntityCatalog& local, EntityCatalog& global)
      : local_(local), global_(global) {}

  std::uint32_t User(std::uint32_t id) {
    return Map(users_, local_.users(), global_.users(), id);
  }
  std::uint32_t Pc(std::uint32_t id) {
    return Map(pcs_, local_.pcs(), global_.pcs(), id);
  }
  std::uint32_t File(std::uint32_t id) {
    return Map(files_, local_.files(), global_.files(), id);
  }
  std::uint32_t Domain(std::uint32_t id) {
    return Map(domains_, local_.domains(), global_.domains(), id);
  }
  std::uint32_t Object(std::uint32_t id) {
    return Map(objects_, local_.objects(), global_.objects(), id);
  }

 private:
  static std::uint32_t Map(std::vector<std::uint32_t>& ids,
                           const EntityTable& from, EntityTable& to,
                           std::uint32_t id) {
    if (ids.empty()) ids.assign(from.size(), kInvalidId);
    std::uint32_t& mapped = ids[id];
    if (mapped == kInvalidId) mapped = to.Intern(from.NameOf(id));
    return mapped;
  }

  const EntityCatalog& local_;
  EntityCatalog& global_;
  std::vector<std::uint32_t> users_, pcs_, files_, domains_, objects_;
};

/// The in-order half of the row loop. Ranges are merged one after
/// another on the calling thread: line numbers and counts continue
/// across ranges, duplicates are dropped across range seams, and every
/// reject, quarantine copy, error-budget check and strict-mode throw
/// happens at the row where a serial pass makes it. All logs.rows_*
/// counting happens here, so rows parsed past a fatal error are never
/// counted.
class RangeMerger {
 public:
  RangeMerger(const std::string& source, const IngestOptions& opts)
      : source_(source), opts_(opts) {}

  /// Rejects, delivers and counts `r`'s rows in input order; `deliver`
  /// maps one event's ids through an IdRemap and hands it on.
  template <typename Event, typename Deliver>
  void Merge(ParsedRange<Event>& r, EntityCatalog& tables,
             const Deliver& deliver) {
    IdRemap ids(r.tables, tables);
    const std::size_t rows0 = stats_.rows_read;
    const std::size_t deduped0 = stats_.rows_deduped;
    const std::size_t seam_dup = opts_.drop_consecutive_duplicates &&
                                         !r.events.empty() &&
                                         !prev_accepted_.empty() &&
                                         r.first_accepted == prev_accepted_
                                     ? 1
                                     : 0;
    std::size_t next = seam_dup;
    auto deliver_until = [&](std::size_t end) {
      for (; next < end; ++next) deliver(std::move(r.events[next]), ids);
    };
    for (const RowReject& j : r.rejects) {
      deliver_until(j.accepted);
      stats_.rows_read = rows0 + j.rows;
      stats_.rows_deduped =
          deduped0 + j.deduped + (j.accepted > 0 ? seam_dup : 0);
      CountRows();
      Reject(lines_ + j.line, j.raw, j.reason);
    }
    deliver_until(r.events.size());
    lines_ += r.lines;
    stats_.rows_read = rows0 + r.rows;
    stats_.rows_deduped = deduped0 + r.deduped + seam_dup;
    CountRows();
    if (!r.events.empty()) prev_accepted_.assign(r.last_accepted);
  }

  std::size_t lines() const { return lines_; }
  const IngestStats& stats() const { return stats_; }

 private:
  void CountRows() {
    if (stats_.rows_read > counted_read_) {
      ACOBE_COUNT("logs.rows_read", stats_.rows_read - counted_read_);
      counted_read_ = stats_.rows_read;
    }
    if (stats_.rows_deduped > counted_deduped_) {
      ACOBE_COUNT("logs.rows_deduped",
                  stats_.rows_deduped - counted_deduped_);
      counted_deduped_ = stats_.rows_deduped;
    }
  }

  void Reject(std::size_t line, std::string_view raw,
              const std::string& reason) {
    ++stats_.rows_rejected;
    ACOBE_COUNT("logs.rows_rejected", 1);
    ACOBE_COUNT("logs.parse_errors", 1);
    if (stats_.first_error.empty()) {
      stats_.first_error =
          source_ + ":" + std::to_string(line) + ": " + reason;
    }
    if (opts_.policy == IngestPolicy::kStrict) {
      throw IngestError(source_, line, reason);
    }
    if (opts_.policy == IngestPolicy::kQuarantine && opts_.quarantine) {
      (*opts_.quarantine) << raw << '\n';
      ++stats_.rows_quarantined;
      ACOBE_COUNT("logs.rows_quarantined", 1);
    }
    if (stats_.rows_read >= opts_.budget_min_rows &&
        static_cast<double>(stats_.rows_rejected) >
            opts_.error_budget * static_cast<double>(stats_.rows_read)) {
      throw IngestError(
          source_, line,
          "error budget exceeded: " + std::to_string(stats_.rows_rejected) +
              " of " + std::to_string(stats_.rows_read) +
              " rows rejected (budget " + std::to_string(opts_.error_budget) +
              ")");
    }
  }

  const std::string& source_;
  const IngestOptions& opts_;
  IngestStats stats_;
  std::size_t lines_ = 0;
  std::string prev_accepted_;  // empty until a row is accepted
  std::size_t counted_read_ = 0;
  std::size_t counted_deduped_ = 0;
};

/// Ranges handed to the pool and not yet merged, oldest first. The
/// destructor waits for every one still parsing, so an error thrown by
/// the merge never leaves a worker writing into freed memory.
template <typename Range>
class InFlight {
 public:
  InFlight() = default;
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;
  ~InFlight() {
    for (Entry& e : entries_) {
      if (e.done.valid()) e.done.wait();
    }
  }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Push(std::unique_ptr<Range> range, std::future<void> done) {
    entries_.push_back(Entry{std::move(range), std::move(done)});
  }
  /// Waits for the oldest range's parse (rethrowing its failure) and
  /// returns it.
  std::unique_ptr<Range> PopReady() {
    Entry& e = entries_.front();
    e.done.get();
    std::unique_ptr<Range> range = std::move(e.range);
    entries_.pop_front();
    return range;
  }

 private:
  struct Entry {
    std::unique_ptr<Range> range;
    std::future<void> done;
  };
  std::deque<Entry> entries_;
};

/// The row loop shared by every reader. `parse` turns one well-formed
/// row of exactly `NFields` fields into an Event naming entities in the
/// range tables it is given (it must validate before interning, and it
/// runs on pool workers); `deliver` maps an accepted event's ids and
/// hands it to its destination (it runs on the calling thread, in input
/// order). Ranges parse inline when one worker is asked for, when the
/// caller already is a pool worker, or when the input ends within the
/// first range per worker; otherwise at most two ranges per worker are
/// in flight while the caller reads ahead and merges the oldest. A
/// merged range's buffers are reused by a later range and unmapped
/// when the file is done.
template <std::size_t NFields, typename Event, typename Parse,
          typename Deliver>
IngestStats IngestCsv(std::istream& in, const std::string& source,
                      const IngestOptions& opts, EntityCatalog& tables,
                      Parse&& parse, Deliver&& deliver) {
  using Range = ParsedRange<Event>;
  SliceReader reader(in, g_range_bytes.load(std::memory_order_relaxed));
  RangeMerger merger(source, opts);
  // Merged ranges come back here; their buffers carry the next ranges.
  std::vector<std::unique_ptr<Range>> spare;
  auto next = [&]() -> std::unique_ptr<Range> {
    std::unique_ptr<Range> r;
    if (spare.empty()) {
      r = std::make_unique<Range>();
    } else {
      r = std::move(spare.back());
      spare.pop_back();
    }
    if (reader.Next(r->slice)) return r;
    spare.push_back(std::move(r));
    return nullptr;
  };
  auto parse_range = [&](Range& r) { ParseRange<NFields>(r, opts, parse); };
  auto merge = [&](std::unique_ptr<Range> r) {
    merger.Merge(*r, tables, deliver);
    r->Clear();
    spare.push_back(std::move(r));
  };

  const std::size_t threads =
      static_cast<std::size_t>(ResolveThreadCount(opts.threads));
  std::deque<std::unique_ptr<Range>> first_round;
  if (threads > 1 && !OnWorkerThread()) {
    while (first_round.size() < threads) {
      std::unique_ptr<Range> r = next();
      if (!r) break;
      first_round.push_back(std::move(r));
    }
  }
  if (threads <= 1 || OnWorkerThread() || reader.exhausted()) {
    for (;;) {
      std::unique_ptr<Range> r;
      if (!first_round.empty()) {
        r = std::move(first_round.front());
        first_round.pop_front();
      } else {
        r = next();
      }
      if (!r) break;
      parse_range(*r);
      merge(std::move(r));
    }
  } else {
    ThreadPool& pool = SharedPool(static_cast<int>(threads));
    InFlight<Range> flight;
    auto submit = [&](std::unique_ptr<Range> r) {
      Range* range = r.get();
      flight.Push(std::move(r),
                  pool.Submit([range, &parse_range] { parse_range(*range); }));
    };
    for (std::unique_ptr<Range>& r : first_round) submit(std::move(r));
    while (!flight.empty()) {
      while (flight.size() < 2 * threads) {
        std::unique_ptr<Range> r = next();
        if (!r) break;
        submit(std::move(r));
      }
      merge(flight.PopReady());
    }
  }
  if (reader.failed()) {
    throw IngestError(source, merger.lines() + 1,
                      "read error: input stream failed at or after this "
                      "line (input incomplete)");
  }
  return merger.stats();
}

}  // namespace

ScopedCsvRangeBytes::ScopedCsvRangeBytes(std::size_t bytes)
    : saved_(g_range_bytes.exchange(std::max<std::size_t>(bytes, 1))) {}

ScopedCsvRangeBytes::~ScopedCsvRangeBytes() { g_range_bytes.store(saved_); }

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
  return IngestCsv<4, DeviceEvent>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        DeviceEvent e;
        e.ts = ParseTs(row[0], opts);
        e.activity = DeviceActivityFromString(row[3]);
        e.user = local.users().Intern(row[1]);
        e.pc = local.pcs().Intern(row[2]);
        return e;
      },
      [&](DeviceEvent e, IdRemap& ids) {
        e.user = ids.User(e.user);
        e.pc = ids.Pc(e.pc);
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
  return IngestCsv<7, FileEvent>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        FileEvent e;
        e.ts = ParseTs(row[0], opts);
        e.activity = FileActivityFromString(row[3]);
        e.from = FileLocationFromString(row[5]);
        e.to = FileLocationFromString(row[6]);
        e.user = local.users().Intern(row[1]);
        e.pc = local.pcs().Intern(row[2]);
        e.file = local.files().Intern(row[4]);
        return e;
      },
      [&](FileEvent e, IdRemap& ids) {
        e.user = ids.User(e.user);
        e.pc = ids.Pc(e.pc);
        e.file = ids.File(e.file);
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
  return IngestCsv<6, HttpEvent>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        HttpEvent e;
        e.ts = ParseTs(row[0], opts);
        e.activity = HttpActivityFromString(row[3]);
        e.filetype = HttpFileTypeFromString(row[5]);
        e.user = local.users().Intern(row[1]);
        e.pc = local.pcs().Intern(row[2]);
        e.domain = local.domains().Intern(row[4]);
        return e;
      },
      [&](HttpEvent e, IdRemap& ids) {
        e.user = ids.User(e.user);
        e.pc = ids.Pc(e.pc);
        e.domain = ids.Domain(e.domain);
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
  return IngestCsv<4, LogonEvent>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        LogonEvent e;
        e.ts = ParseTs(row[0], opts);
        e.activity = LogonActivityFromString(row[3]);
        e.user = local.users().Intern(row[1]);
        e.pc = local.pcs().Intern(row[2]);
        return e;
      },
      [&](LogonEvent e, IdRemap& ids) {
        e.user = ids.User(e.user);
        e.pc = ids.Pc(e.pc);
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
  return IngestCsv<5, EnterpriseEvent>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        EnterpriseEvent e;
        e.ts = ParseTs(row[0], opts);
        e.aspect = EnterpriseAspectFromString(row[2]);
        e.event_id = ParseU16(row[3], "event_id");
        e.user = local.users().Intern(row[1]);
        e.object = local.objects().Intern(row[4]);
        return e;
      },
      [&](EnterpriseEvent e, IdRemap& ids) {
        e.user = ids.User(e.user);
        e.object = ids.Object(e.object);
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
  return IngestCsv<5, ProxyEvent>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        ProxyEvent e;
        e.ts = ParseTs(row[0], opts);
        e.success = ParseBool01(row[3], "success");
        e.bytes = ParseU32(row[4], "bytes");
        e.user = local.users().Intern(row[1]);
        e.domain = local.domains().Intern(row[2]);
        return e;
      },
      [&](ProxyEvent e, IdRemap& ids) {
        e.user = ids.User(e.user);
        e.domain = ids.Domain(e.domain);
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
  return IngestCsv<4, LdapRecord>(
      in, source, opts, tables,
      [&](Fields row, EntityCatalog& local) {
        LdapRecord r;
        r.user_name = std::string(row[0]);
        r.user = local.users().Intern(row[0]);
        r.department = std::string(row[1]);
        r.team = std::string(row[2]);
        r.role = std::string(row[3]);
        return r;
      },
      [&](LdapRecord r, IdRemap& ids) {
        r.user = ids.User(r.user);
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
