// Redundancy schemes: how one logical block becomes k placed fragments.
//
// The paper stresses that Redundant Share "is always able to clearly
// identify the i-th of k copies" -- this interface is where that matters:
// fragment i of a block is whatever the scheme says fragment i is (an
// identical mirror copy, or a specific erasure-code shard), and placement
// copy index i stores exactly fragment i.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/util/codec.hpp"

namespace rds {

class RedundancyScheme {
 public:
  virtual ~RedundancyScheme() = default;

  /// Number of fragments per block (the placement degree k).
  [[nodiscard]] virtual unsigned fragment_count() const = 0;

  /// Minimum number of fragments needed to reconstruct a block.
  [[nodiscard]] virtual unsigned min_fragments() const = 0;

  /// Splits/encodes a block into fragment_count() fragments.
  [[nodiscard]] virtual std::vector<Bytes> encode(
      std::span<const std::uint8_t> block) const = 0;

  /// Reconstructs the block from >= min_fragments() present fragments
  /// (indexed by fragment number; nullopt = lost).  `block_size` is the
  /// original block length.  Throws std::invalid_argument if too few
  /// fragments are present.
  [[nodiscard]] virtual Bytes decode(
      std::span<const std::optional<Bytes>> fragments,
      std::size_t block_size) const = 0;

  /// Recomputes one lost fragment from the present ones (rebuild path).
  [[nodiscard]] virtual Bytes reconstruct_fragment(
      std::span<const std::optional<Bytes>> fragments,
      unsigned target) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// k identical copies; any single copy reconstructs the block.
class MirroringScheme final : public RedundancyScheme {
 public:
  explicit MirroringScheme(unsigned k);

  [[nodiscard]] unsigned fragment_count() const override { return k_; }
  [[nodiscard]] unsigned min_fragments() const override { return 1; }
  [[nodiscard]] std::vector<Bytes> encode(
      std::span<const std::uint8_t> block) const override;
  [[nodiscard]] Bytes decode(std::span<const std::optional<Bytes>> fragments,
                             std::size_t block_size) const override;
  [[nodiscard]] Bytes reconstruct_fragment(
      std::span<const std::optional<Bytes>> fragments,
      unsigned target) const override;
  [[nodiscard]] std::string name() const override;

 private:
  unsigned k_;
};

/// Systematic Reed-Solomon d+p over GF(2^8) with a Cauchy encoding matrix
/// (src/storage/erasure/reed_solomon.cpp): k = d+p fragments, any d
/// reconstruct.  Fragments 0..d-1 are the block's d stripes verbatim
/// (zero-padded to equal length); fragments d.. are parity.  This is the
/// erasure code the paper points at in Section 3 ("if data is distributed
/// according to an erasure code, each sub-block has a different meaning").
class ReedSolomonScheme final : public RedundancyScheme {
 public:
  /// Throws std::invalid_argument unless 1 <= d and d + p <= 256.
  ReedSolomonScheme(unsigned data_shards, unsigned parity_shards);

  [[nodiscard]] unsigned fragment_count() const override { return d_ + p_; }
  [[nodiscard]] unsigned min_fragments() const override { return d_; }
  [[nodiscard]] std::vector<Bytes> encode(
      std::span<const std::uint8_t> block) const override;
  /// Present data fragments are copied; only missing ones are solved for.
  [[nodiscard]] Bytes decode(std::span<const std::optional<Bytes>> fragments,
                             std::size_t block_size) const override;
  /// Computes only `target`: d multiply-adds over the present fragments.
  [[nodiscard]] Bytes reconstruct_fragment(
      std::span<const std::optional<Bytes>> fragments,
      unsigned target) const override;
  [[nodiscard]] std::string name() const override;

 private:
  unsigned d_;
  unsigned p_;
};

}  // namespace rds
