#pragma once

// Event spool: the data plane every acobe_detect run goes through.
//
// ShardSpooler is a LogSink that routes events to per-shard buffers by
// user (users map to departments, departments map to shards), so a
// later pass can process one shard's departments at a time. Events are
// packed into fixed 24-byte records. A shard whose buffer never fills
// stays in RAM: Finish() orders its buffer by day (SortByDay, a stable
// O(n) radix sort; shards one at a time, so at most one scratch buffer
// exists) and Replay() delivers straight from it. Whenever a shard's
// buffer does fill, it is sorted by day the same way and appended to
// the shard's spool file as one run; Replay() k-way-merges such a
// shard's runs back into
// nondecreasing day order. Day order is the only ordering the feature
// extractors require (first-seen "new-op" semantics are defined per
// day, and measurements are exact per-event float adds, so within-day
// order cannot change a cube bit; see features/cert_features.h).
//
// The spool directory and a shard's file are created on that shard's
// first spill, so a run under the buffer budget never touches disk, and
// Remove() deletes only what was created.
//
// The spooler also tracks the min/max timestamp over every event it is
// offered — including events it then drops for lack of a shard
// assignment — because the cube's day range is derived from all parsed
// events, not just the routed ones.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/timeframe.h"
#include "logs/log_sink.h"
#include "logs/records.h"

namespace acobe {

/// One fixed-size spooled event. 24 bytes; field meaning depends on
/// `type` (see spool.cpp pack/unpack).
struct PackedEvent {
  std::int64_t ts = 0;
  std::uint32_t user = 0;
  std::uint32_t e1 = 0;
  std::uint32_t e2 = 0;
  std::uint8_t type = 0;
  std::uint8_t f1 = 0;
  std::uint16_t f2 = 0;
};
static_assert(sizeof(PackedEvent) == 24, "spool record layout");

/// Days since the epoch, by floor division: a pre-epoch timestamp lands
/// on its own (negative) day, not on day 0. The day key of every spool
/// sort and merge and of the service's event window.
inline std::int64_t DayNumberOf(Timestamp ts) {
  return ts / kSecondsPerDay - (ts % kSecondsPerDay < 0 ? 1 : 0);
}

/// Sorts `events` by DayNumberOf(ts), stably: same-day events keep
/// their arrival order. O(n) time (a radix sort on the day, one pass
/// per byte of the day span that varies; already-ordered input returns
/// after one scan) and n/2 records of extra memory, whatever the span.
void SortByDay(std::vector<PackedEvent>& events);

/// Packs one typed event into the spool wire format. The service
/// admission queues (src/service/queue.h) carry the same records the
/// spool files do, so both planes share one encoder.
PackedEvent PackEvent(const LogonEvent& e);
PackedEvent PackEvent(const DeviceEvent& e);
PackedEvent PackEvent(const FileEvent& e);
PackedEvent PackEvent(const HttpEvent& e);
PackedEvent PackEvent(const EmailEvent& e);
PackedEvent PackEvent(const EnterpriseEvent& e);
PackedEvent PackEvent(const ProxyEvent& e);

/// Decodes `p` and delivers the typed event to `sink`. Throws
/// std::runtime_error on an unknown record type (corrupt spool).
void DeliverPacked(const PackedEvent& p, LogSink& sink);

class ShardSpooler : public LogSink {
 public:
  /// Spools into `shards` shards, buffering at most `buffer_bytes` of
  /// packed events in total; a shard whose share of that fills spills a
  /// sorted run to a file under `dir` (the directory is created then).
  ShardSpooler(std::string dir, int shards, std::size_t buffer_bytes);
  ~ShardSpooler() override;

  /// Routes `user`'s events to `shard`. Events from unassigned users
  /// are dropped (after widening the timestamp range).
  void AssignUser(UserId user, int shard);

  void Consume(const LogonEvent& e) override;
  void Consume(const DeviceEvent& e) override;
  void Consume(const FileEvent& e) override;
  void Consume(const HttpEvent& e) override;
  void Consume(const EmailEvent& e) override;
  void Consume(const EnterpriseEvent& e) override;
  void Consume(const ProxyEvent& e) override;

  /// Ends ingest: a shard that spilled writes its remaining buffer as a
  /// last run; one that never spilled sorts its buffer by day and keeps
  /// it in RAM. Shards are sorted one after another. Call once, before
  /// Replay.
  void Finish();

  /// Decodes one shard back into typed events, delivered to `sink` in
  /// nondecreasing day order. Requires Finish().
  void Replay(int shard, LogSink& sink) const;

  /// Deletes the spool files and the spool directory, if this spooler
  /// created them (best-effort). Called by the destructor.
  void Remove();

  int shards() const { return static_cast<int>(shards_.size()); }
  bool has_events() const { return ts_lo_ <= ts_hi_; }
  Timestamp ts_lo() const { return ts_lo_; }
  Timestamp ts_hi() const { return ts_hi_; }
  std::size_t events_spooled() const { return events_spooled_; }
  std::size_t events_dropped() const { return events_dropped_; }
  /// Total bytes of packed events, whether spilled or held in RAM.
  std::uint64_t bytes_spooled() const { return events_spooled_ * sizeof(PackedEvent); }

 private:
  struct SpoolRun {
    std::uint64_t offset = 0;  // bytes into the shard file
    std::uint64_t count = 0;   // records
  };
  struct Shard {
    std::string path;  // the spool file; empty until the first spill
    std::ofstream out;
    // Events not yet spilled. After Finish, a shard with no runs holds
    // all of its events here, day-sorted.
    std::vector<PackedEvent> buffer;
    std::vector<SpoolRun> runs;  // spilled runs, in file order
    std::uint64_t bytes_written = 0;
  };

  /// Records the timestamp, then buffers the packed event (or drops it
  /// when its user has no shard).
  void Offer(const PackedEvent& p);
  void Spill(int shard);

  std::string dir_;
  bool created_dir_ = false;  // dir_ did not exist before the first spill
  std::vector<Shard> shards_;
  std::vector<int> user_shard_;  // UserId -> shard, -1 unassigned
  std::size_t buffer_events_per_shard_ = 0;
  bool finished_ = false;
  Timestamp ts_lo_;
  Timestamp ts_hi_;
  std::size_t events_spooled_ = 0;
  std::size_t events_dropped_ = 0;
};

}  // namespace acobe
