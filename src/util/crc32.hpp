// The repo's one checksum: CRC-32C (Castagnoli, reflected polynomial
// 0x82F63B78, init/final ~0).  It checks VirtualDisk fragments and every
// persisted frame and header (src/util/codec.hpp, docs/persistence.md).
// Its value for "123456789" is 0xE3069283, so persisted bytes stay
// verifiable by any external CRC-32C tool.
//
// On x86-64 CPUs that report SSE4.2 it runs on the `crc32` instruction;
// the choice is made once, from the CPU's feature bits.  Elsewhere a
// slicing-by-8 table routine (eight bytes per step, tables generated at
// compile time) computes the same values.  Unlike the 64-bit mixing hashes
// in util/hash.hpp -- built for placement experiments -- this is a
// standard checksum.
#pragma once

#include <cstdint>
#include <span>

namespace rds {

/// CRC-32C of `data`.  Pass a previous return value as `seed` to continue
/// a running checksum over concatenated buffers.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) noexcept;

namespace crc_detail {

/// The portable slicing-by-8 path of crc32c() (what runs without SSE4.2).
/// Exposed so tests can check it against the hardware path.
[[nodiscard]] std::uint32_t crc32c_table(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) noexcept;

/// Whether crc32c() runs on the SSE4.2 `crc32` instruction on this CPU.
[[nodiscard]] bool crc32c_hardware() noexcept;

}  // namespace crc_detail

}  // namespace rds
