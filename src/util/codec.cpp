#include "src/util/codec.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "src/util/crc32.hpp"

namespace rds::codec {
namespace {

/// A frame's payload is read in steps that double up to its length, so a
/// buffer that must grow never runs more than one step ahead of the bytes
/// that came.
constexpr std::size_t kReadStep = 64 * 1024;

/// Reads up to `n` bytes; returns how many arrived.
std::size_t read_raw(std::istream& in, std::uint8_t* p, std::size_t n) {
  in.read(reinterpret_cast<char*>(p), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount());
}

void write_raw(std::ostream& out, std::span<const std::uint8_t> b) {
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

Error corruption(std::string message) {
  return Error{ErrorCode::kCorruption, std::move(message)};
}

}  // namespace

const std::uint8_t* Cursor::take(std::size_t n) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return nullptr;
  }
  pos_ += n;
  return data_.data() + pos_ - n;
}

std::string Cursor::string() {
  const std::uint32_t size = u32();
  const std::uint8_t* p = take(size);
  return p == nullptr ? std::string()
                      : std::string(reinterpret_cast<const char*>(p), size);
}

std::span<const std::uint8_t> Cursor::rest() {
  const std::span<const std::uint8_t> r = data_.subspan(pos_);
  pos_ = data_.size();
  return r;
}

std::uint32_t Cursor::count(std::size_t min_entry_bytes) {
  const std::uint32_t n = u32();
  if (n > (data_.size() - pos_) / min_entry_bytes) failed_ = true;
  return failed_ ? 0 : n;
}

void write_frame(std::ostream& out, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("frame payload of " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the frame limit");
  }
  const std::uint32_t fields[2] = {static_cast<std::uint32_t>(payload.size()),
                                   crc32c(payload)};
  std::uint8_t head[8];
  for (std::size_t i = 0; i < 8; ++i) {
    head[i] = static_cast<std::uint8_t>(fields[i / 4] >> (8 * (i % 4)));
  }
  write_raw(out, head);
  write_raw(out, payload);
}

Result<bool> read_frame(std::istream& in, Bytes& payload) {
  std::uint8_t head[8];
  const std::size_t got = read_raw(in, head, 4);
  if (got == 0 && in.eof()) return false;  // clean end between frames
  if (got != 4) return corruption("torn length prefix");
  Cursor fields(head);
  const std::uint32_t length = fields.u32();
  if (length > kMaxFrameBytes) {
    return corruption("implausible length " + std::to_string(length));
  }
  if (read_raw(in, head + 4, 4) != 4) return corruption("torn checksum");
  for (std::size_t have = 0; have < length;) {
    const std::size_t step =
        std::min<std::size_t>(length - have, std::max(have, kReadStep));
    if (payload.size() < have + step) payload.resize(have + step);
    if (read_raw(in, payload.data() + have, step) != step) {
      return corruption("torn payload");
    }
    have += step;
  }
  payload.resize(length);
  if (crc32c(payload) != fields.u32()) {
    return corruption("payload checksum mismatch");
  }
  return true;
}

void write_header(std::ostream& out, std::string_view magic,
                  std::uint64_t value) {
  Writer w;
  w.u64(value);
  w.u32(crc32c(w.data()));
  out.write(magic.data(), 8);
  write_raw(out, w.data());
}

Result<std::uint64_t> read_header(std::istream& in, std::string_view magic,
                                  std::string_view field) {
  char m[8];
  in.read(m, 8);
  if (in.gcount() != 8 || std::string_view(m, 8) != magic.substr(0, 8)) {
    return corruption("bad magic/version");
  }
  std::uint8_t b[12];
  if (read_raw(in, b, 12) != 12) return corruption("truncated");
  Cursor c(b);
  const std::uint64_t value = c.u64();
  if (c.u32() != crc32c(std::span(b).first(8))) {
    return corruption(std::string(field) + " checksum mismatch");
  }
  return value;
}

}  // namespace rds::codec
