// Byte edits for tests that damage one persisted field on purpose.  Every
// snapshot section is a CRC-32C frame (src/util/codec.hpp), so a raw edit
// stops at the frame checksum; edit_frame re-seals the edited frame
// through codec::write_frame so the load reaches the field's own parser,
// or leaves it unsealed to show that the checksum alone catches it.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/util/codec.hpp"

namespace rds::test {

/// Offset of the first frame of a snapshot (after its 20-byte header:
/// magic, u64, CRC) and of a checkpoint (after two such headers).
inline constexpr std::size_t kSnapshotBody = 20;
inline constexpr std::size_t kCheckpointBody = 20 + 20;

/// `bytes` with `edit` applied to the payload of the first frame, walking
/// consecutive frames from offset `first`, whose payload contains
/// `needle`.  `edit` receives the payload and the needle's offset in it.
/// sealed: the edited payload is re-framed by codec::write_frame (length
/// and CRC-32C recomputed); unsealed: it sits behind the old length and
/// checksum.
inline std::string edit_frame(
    const std::string& bytes, std::size_t first, std::string_view needle,
    const std::function<void(std::string&, std::size_t)>& edit,
    bool sealed = true) {
  std::istringstream in(bytes);
  in.seekg(static_cast<std::streamoff>(first));
  Bytes frame;
  for (std::size_t begin = first;;) {
    const Result<bool> read = codec::read_frame(in, frame);
    if (!read.ok() || !read.value()) {
      ADD_FAILURE() << "no frame holds '" << needle << "'";
      return bytes;
    }
    const std::size_t end = begin + 8 + frame.size();
    std::string payload(frame.begin(), frame.end());
    const std::size_t at = payload.find(needle);
    if (at == std::string::npos) {
      begin = end;
      continue;
    }
    edit(payload, at);
    std::ostringstream out;
    out << bytes.substr(0, begin);
    if (sealed) {
      codec::write_frame(
          out, std::span(reinterpret_cast<const std::uint8_t*>(payload.data()),
                         payload.size()));
    } else {
      out << bytes.substr(begin, 8) << payload;
    }
    out << bytes.substr(end);
    return out.str();
  }
}

/// What `load` throws as runtime_error for `bytes`, or "(loaded)".  Any
/// other exception type escapes and fails the calling test.
template <typename Load>
std::string load_error(Load&& load, const std::string& bytes) {
  std::stringstream in(bytes);
  try {
    (void)load(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(loaded)";
}

}  // namespace rds::test
