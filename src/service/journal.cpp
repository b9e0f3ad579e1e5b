#include "service/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/codec.h"
#include "common/faults.h"

namespace acobe {
namespace {

constexpr char kJournalMagic[4] = {'A', 'C', 'J', 'L'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint64_t kMaxPayload = 1u << 30;

}  // namespace

void SaveJournal(const std::string& path, const JournalState& state) {
  ByteWriter payload;
  payload.U64(state.config_fingerprint);
  payload.U64(state.cycle);
  payload.U64(state.alerts_bytes);
  payload.U64(state.alerts_count);
  payload.U64(state.ledger_bytes);
  payload.I64(state.last_scored_day);
  payload.U64(state.batches.size());
  for (const BatchRecord& b : state.batches) {
    payload.U64(b.name.size());
    payload.Bytes(b.name);
    payload.U32(b.digest);
    payload.I64(b.day_lo);
    payload.I64(b.day_hi);
  }
  payload.U64(state.shards.size());
  for (const ShardRecord& s : state.shards) {
    payload.U32(s.quarantined ? 1 : 0);
    payload.U32(s.failures);
  }
  payload.U64(state.monitors.size());
  for (const auto& [dept, blob] : state.monitors) {
    payload.U64(dept.size());
    payload.Bytes(dept);
    payload.U64(blob.size());
    payload.Bytes(blob);
  }

  ByteWriter frame;
  frame.Raw(kJournalMagic, sizeof(kJournalMagic));
  frame.U32(kJournalVersion);
  frame.U64(payload.str().size());
  frame.Bytes(payload.str());
  frame.U32(Crc32(payload.str()));
  WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(frame.str().data(),
              static_cast<std::streamsize>(frame.str().size()));
  });
}

std::optional<JournalState> LoadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    throw JournalError("journal: cannot open " + path);
  }
  const std::string bad_magic = "journal: bad magic in " + path;
  char magic[4] = {};
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  ReadExact<JournalError>(in, magic, sizeof(magic), bad_magic);
  ReadExact<JournalError>(in, &version, sizeof(version), bad_magic);
  ReadExact<JournalError>(in, &size, sizeof(size), bad_magic);
  if (std::memcmp(magic, kJournalMagic, sizeof(magic)) != 0) {
    throw JournalError(bad_magic);
  }
  if (version != kJournalVersion) {
    throw JournalError("journal: unsupported version " +
                       std::to_string(version));
  }
  if (size > kMaxPayload) {
    throw JournalError("journal: implausible payload size");
  }
  const std::string truncated = "journal: truncated " + path;
  std::string payload(static_cast<std::size_t>(size), '\0');
  ReadExact<JournalError>(in, payload.data(), payload.size(), truncated);
  std::uint32_t crc = 0;
  ReadExact<JournalError>(in, &crc, sizeof(crc), truncated);
  if (Crc32(payload) != crc) {
    throw JournalError("journal: CRC mismatch in " + path);
  }

  ByteReader<JournalError> r(payload, "journal: truncated payload");
  JournalState state;
  state.config_fingerprint = r.U64();
  state.cycle = r.U64();
  state.alerts_bytes = r.U64();
  state.alerts_count = r.U64();
  state.ledger_bytes = r.U64();
  state.last_scored_day = r.I64();
  const std::uint64_t n_batches = r.U64();
  if (n_batches > kMaxPayload / 16) {
    throw JournalError("journal: implausible batch count");
  }
  state.batches.resize(static_cast<std::size_t>(n_batches));
  for (BatchRecord& b : state.batches) {
    b.name = r.Bytes(r.U64());
    b.digest = r.U32();
    b.day_lo = r.I64();
    b.day_hi = r.I64();
  }
  const std::uint64_t n_shards = r.U64();
  if (n_shards > kMaxPayload / 8) {
    throw JournalError("journal: implausible shard count");
  }
  state.shards.resize(static_cast<std::size_t>(n_shards));
  for (ShardRecord& s : state.shards) {
    s.quarantined = r.U32() != 0;
    s.failures = r.U32();
  }
  const std::uint64_t n_monitors = r.U64();
  if (n_monitors > kMaxPayload / 16) {
    throw JournalError("journal: implausible monitor count");
  }
  state.monitors.resize(static_cast<std::size_t>(n_monitors));
  for (auto& [dept, blob] : state.monitors) {
    dept = r.Bytes(r.U64());
    blob = r.Bytes(r.U64());
  }
  if (!r.AtEnd()) throw JournalError("journal: trailing bytes");
  return state;
}

AppendLog::AppendLog(const std::string& path, std::uint64_t committed_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("AppendLog: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot stat " + path);
  }
  if (static_cast<std::uint64_t>(st.st_size) < committed_bytes) {
    ::close(fd_);
    throw JournalError("AppendLog: " + path + " is shorter (" +
                       std::to_string(st.st_size) +
                       " bytes) than the journal's durable prefix (" +
                       std::to_string(committed_bytes) + ")");
  }
  // Drop any torn tail from a crash mid-append, then resume appending
  // at the committed point.
  if (::ftruncate(fd_, static_cast<off_t>(committed_bytes)) != 0) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot truncate " + path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    ::close(fd_);
    throw std::runtime_error("AppendLog: cannot seek " + path);
  }
  bytes_ = committed_bytes;
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendLog::Append(const std::string& line) {
  std::string buf = line;
  buf.push_back('\n');
  const char* p = buf.data();
  std::size_t left = buf.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("AppendLog: write failed on " + path_ + ": " +
                               std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  bytes_ += buf.size();
}

void AppendLog::Sync() {
  if (::fsync(fd_) != 0) {
    throw std::runtime_error("AppendLog: fsync failed on " + path_ + ": " +
                             std::strerror(errno));
  }
}

}  // namespace acobe
