// The one codec for persisted bytes (docs/persistence.md).  Snapshots,
// checkpoints and the journal encode little-endian fields with Writer,
// decode them with the bounds-checked Cursor, and store them in frames
// (len u32, CRC-32C(payload) u32, payload) behind one header (8-byte
// magic, u64, CRC-32C of the u64).  A reader parses no byte that a checksum has
// not verified and sizes nothing from a length the bytes cannot back.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/result.hpp"

namespace rds {

/// The byte buffer every encoder and codec shares.
using Bytes = std::vector<std::uint8_t>;

namespace codec {

/// Upper bound on one frame's payload; a longer length prefix is damage.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 28;

/// Appends little-endian fields to a buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// u32 length, then the characters.
  void string(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// The bytes alone: a field that runs to the end of its frame.
  void raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Writes each field by its type: an unsigned integer as itself, a
  /// string length-prefixed, Bytes raw (last).  Cursor::operator() reads
  /// the same list back, so one field list spells a layout both ways.
  template <typename... T>
  void operator()(const T&... fields) {
    (field(fields), ...);
  }

  [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buf_); }
  /// Empties the buffer and keeps its allocation for the next frame.
  void clear() noexcept { buf_.clear(); }

 private:
  template <typename T>
  void put(T v) {
    std::uint8_t b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(b);
  }

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      string(v);
    } else if constexpr (std::is_same_v<T, Bytes>) {
      raw(v);
    } else {
      static_assert(std::is_unsigned_v<T>);
      put(v);
    }
  }

  Bytes buf_;
};

/// Bounds-checked reader over one payload.  Underflow latches failed() and
/// yields zeros, so a decoder checks once, at the end: done() means every
/// byte was consumed and none was missing.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] bool done() const noexcept {
    return !failed_ && pos_ == data_.size();
  }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::string string();
  /// Everything not yet consumed (Writer::raw's counterpart).
  std::span<const std::uint8_t> rest();

  /// Reads fields written by Writer::operator(), in the same order.
  template <typename... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }

  /// A u32 entry count, checked against the bytes left: when `count`
  /// entries of at least `min_entry_bytes` each cannot fit, the cursor
  /// fails and returns 0, so no container is ever sized from damage.
  std::uint32_t count(std::size_t min_entry_bytes);

 private:
  /// The next `n` bytes, or nullptr (and failed()) when fewer are left.
  const std::uint8_t* take(std::size_t n);

  template <typename T>
  T get() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; p != nullptr && i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
    return v;
  }

  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      v = string();
    } else if constexpr (std::is_same_v<T, Bytes>) {
      const std::span<const std::uint8_t> r = rest();
      v.assign(r.begin(), r.end());
    } else {
      v = get<T>();
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Writes one frame; stream failures stay in the stream's state.  Throws
/// std::runtime_error above kMaxFrameBytes (no reader would accept it).
void write_frame(std::ostream& out, std::span<const std::uint8_t> payload);

/// Reads one frame into `payload`: true, or false when the stream ended
/// cleanly before it.  kCorruption names the damage ("torn length prefix",
/// "implausible length N", "torn checksum", "torn payload", "payload
/// checksum mismatch").  The buffer grows as bytes arrive, so a damaged
/// length allocates no more than the stream holds (plus one 64 KiB step).
[[nodiscard]] Result<bool> read_frame(std::istream& in, Bytes& payload);

/// Writes `magic` (8 bytes), `value` and the CRC-32C of `value`.
void write_header(std::ostream& out, std::string_view magic,
                  std::uint64_t value);

/// Reads a header written by write_header.  kCorruption with "bad
/// magic/version", "truncated" or "<field> checksum mismatch".
[[nodiscard]] Result<std::uint64_t> read_header(std::istream& in,
                                                std::string_view magic,
                                                std::string_view field);

}  // namespace codec
}  // namespace rds
