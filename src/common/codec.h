#pragma once

// The binary codec behind every crash-safe artifact: per-aspect model
// checkpoints (nn/serialize.h), monitor snapshots (core/monitor.h) and
// the service journal (service/journal.h). Values are copied in host
// byte order, which is how those formats have always been written.
//
// Each format keeps its own framing (magic, version, size, CRC) as a
// few explicit lines over three pieces:
//   - ByteWriter appends fixed-width values and raw bytes to a payload,
//   - ByteReader reads them back and throws on any read past the end,
//   - ReadExact reads a stream header field or throws on a short read.
// Errors carry the caller's exception type and message, so every
// format keeps its own error vocabulary.

#include <cstdint>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace acobe {

class ByteWriter {
 public:
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void I32(std::int32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(std::int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void Raw(const void* data, std::size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }
  void Bytes(std::string_view bytes) { bytes_.append(bytes); }

  const std::string& str() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Reads values back in writing order from a payload it does not own.
/// A read past the end throws Error(overrun) and consumes nothing, so
/// a hostile length can never reach outside the payload.
template <typename Error = std::runtime_error>
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string overrun)
      : bytes_(bytes), overrun_(std::move(overrun)) {}

  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::int32_t I32() { return Get<std::int32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  std::int64_t I64() { return Get<std::int64_t>(); }
  float F32() { return Get<float>(); }
  void Raw(void* dst, std::size_t n) {
    if (n > remaining()) throw Error(overrun_);
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }
  /// The next `n` bytes as a string (a length read just before it may
  /// be anything: it is checked here, before any allocation).
  std::string Bytes(std::uint64_t n) {
    if (n > remaining()) throw Error(overrun_);
    std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  T Get() {
    T v{};
    Raw(&v, sizeof(v));
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  std::string overrun_;
};

/// Reads exactly `n` bytes of `in` into `dst`; throws Error(message)
/// when the stream ends first.
template <typename Error = std::runtime_error>
void ReadExact(std::istream& in, void* dst, std::size_t n,
               const std::string& message) {
  if (!in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n))) {
    throw Error(message);
  }
}

}  // namespace acobe
