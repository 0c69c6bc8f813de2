// The repo's one checksum family: reflected CRC-32 in two polynomials.
//
//   * crc32()  -- IEEE 802.3 (polynomial 0xEDB88320, init/final ~0).  The
//     journal's per-record integrity check (docs/persistence.md); its value
//     for "123456789" is 0xCBF43926, so journal files stay verifiable by
//     any external CRC tool.
//   * crc32c() -- Castagnoli (polynomial 0x82F63B78, init/final ~0), the
//     VirtualDisk fragment checksum.  Its value for "123456789" is
//     0xE3069283.  On x86-64 CPUs that report SSE4.2 it runs on the `crc32`
//     instruction; the choice is made once, from the CPU's feature bits.
//
// Both polynomials share one slicing-by-8 table routine (eight bytes per
// step, tables generated at compile time per polynomial).  Unlike the
// 64-bit mixing hashes in util/hash.hpp -- built for placement
// experiments -- these are standard checksums.
#pragma once

#include <cstdint>
#include <span>

namespace rds {

/// CRC-32 (IEEE) of `data`.  Pass a previous return value as `seed` to
/// continue a running checksum over concatenated buffers.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

/// CRC-32C (Castagnoli) of `data`; `seed` chains like crc32()'s.
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
