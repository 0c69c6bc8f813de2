#include "src/storage/redundancy_scheme.hpp"

#include <stdexcept>

namespace rds {

MirroringScheme::MirroringScheme(unsigned k) : k_(k) {
  if (k == 0) throw std::invalid_argument("MirroringScheme: k == 0");
}

std::vector<Bytes> MirroringScheme::encode(
    std::span<const std::uint8_t> block) const {
  return std::vector<Bytes>(k_, Bytes(block.begin(), block.end()));
}

Bytes MirroringScheme::decode(std::span<const std::optional<Bytes>> fragments,
                              std::size_t block_size) const {
  if (fragments.size() != k_) {
    throw std::invalid_argument("MirroringScheme: wrong fragment count");
  }
  for (const auto& f : fragments) {
    if (f) {
      if (f->size() < block_size) {
        throw std::invalid_argument("MirroringScheme: truncated fragment");
      }
      return Bytes(f->begin(),
                   f->begin() + static_cast<std::ptrdiff_t>(block_size));
    }
  }
  throw std::invalid_argument("MirroringScheme: all copies lost");
}

Bytes MirroringScheme::reconstruct_fragment(
    std::span<const std::optional<Bytes>> fragments, unsigned target) const {
  if (target >= k_) {
    throw std::invalid_argument("MirroringScheme: bad target");
  }
  for (const auto& f : fragments) {
    if (f) return *f;
  }
  throw std::invalid_argument("MirroringScheme: all copies lost");
}

std::string MirroringScheme::name() const {
  return "mirror(k=" + std::to_string(k_) + ")";
}

}  // namespace rds
