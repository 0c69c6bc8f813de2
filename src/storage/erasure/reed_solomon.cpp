// ReedSolomonScheme (declared in src/storage/redundancy_scheme.hpp).
#include <algorithm>
#include <stdexcept>

#include "src/storage/erasure/gf256.hpp"
#include "src/storage/redundancy_scheme.hpp"

namespace rds {
namespace {

/// Row `r` of the (d+p) x d encoding matrix (identity on top, Cauchy
/// below): fragment r = sum_c row[c] * data[c].
std::vector<std::uint8_t> matrix_row(unsigned d, unsigned r) {
  std::vector<std::uint8_t> row(d, 0);
  if (r < d) {
    row[r] = 1;  // systematic: data fragments pass through
  } else {
    // Cauchy row: 1 / (x_r ^ y_c) with x = {d..d+p-1}, y = {0..d-1}.
    for (unsigned c = 0; c < d; ++c) {
      row[c] = gf256::inv(static_cast<std::uint8_t>(r ^ c));
    }
  }
  return row;
}

/// Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.
/// `m` is row-major n x n.  Throws std::logic_error if singular (cannot
/// happen for [I; Cauchy] sub-matrices; kept as an internal invariant check).
std::vector<std::uint8_t> invert_matrix(std::vector<std::uint8_t> m,
                                        std::size_t n) {
  std::vector<std::uint8_t> inv(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) inv[i * n + i] = 1;

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot search.
    std::size_t pivot = col;
    while (pivot < n && m[pivot * n + col] == 0) ++pivot;
    if (pivot == n) throw std::logic_error("ReedSolomon: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m[pivot * n + j], m[col * n + j]);
        std::swap(inv[pivot * n + j], inv[col * n + j]);
      }
    }
    // Normalize the pivot row.
    const std::uint8_t c = gf256::inv(m[col * n + col]);
    gf256::scale({&m[col * n], n}, c);
    gf256::scale({&inv[col * n], n}, c);
    // Eliminate the column elsewhere.
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col) continue;
      const std::uint8_t f = m[row * n + col];
      if (f == 0) continue;
      gf256::mul_add({&m[row * n], n}, {&m[col * n], n}, f);
      gf256::mul_add({&inv[row * n], n}, {&inv[col * n], n}, f);
    }
  }
  return inv;
}

/// The one solve step behind decode and reconstruct_fragment.  It takes
/// the first d present fragments and, when a fragment is first asked for,
/// inverts their encoding rows M.  Any fragment t is then the d-term
/// combination (row(t) * M^-1) of those present fragments.
class Solver {
 public:
  Solver(unsigned d, unsigned p, std::span<const std::optional<Bytes>> frags)
      : d_(d), frags_(frags) {
    if (frags.size() != d + p) {
      throw std::invalid_argument("ReedSolomon: wrong shard vector size");
    }
    for (unsigned i = 0; i < d + p && present_.size() < d; ++i) {
      if (!frags[i].has_value()) continue;
      if (present_.empty()) {
        shard_size_ = frags[i]->size();
      } else if (frags[i]->size() != shard_size_) {
        throw std::invalid_argument("ReedSolomon: shard size mismatch");
      }
      present_.push_back(i);
    }
    if (present_.size() < d) {
      throw std::invalid_argument("ReedSolomon: fewer than d shards present");
    }
  }

  [[nodiscard]] std::size_t shard_size() const noexcept { return shard_size_; }

  /// Fragment `target`, shard_size() bytes.
  [[nodiscard]] Bytes compute(unsigned target) {
    if (inverse_.empty()) {
      std::vector<std::uint8_t> m(static_cast<std::size_t>(d_) * d_);
      for (unsigned r = 0; r < d_; ++r) {
        const std::vector<std::uint8_t> row = matrix_row(d_, present_[r]);
        std::copy(row.begin(), row.end(), m.begin() + r * d_);
      }
      inverse_ = invert_matrix(std::move(m), d_);
    }
    const std::vector<std::uint8_t> row = matrix_row(d_, target);
    Bytes out(shard_size_, 0);
    for (unsigned j = 0; j < d_; ++j) {
      std::uint8_t coef = 0;
      for (unsigned c = 0; c < d_; ++c) {
        coef ^= gf256::mul(row[c],
                           inverse_[static_cast<std::size_t>(c) * d_ + j]);
      }
      gf256::mul_add(out, *frags_[present_[j]], coef);
    }
    return out;
  }

 private:
  unsigned d_;
  std::span<const std::optional<Bytes>> frags_;
  std::vector<unsigned> present_;
  std::size_t shard_size_ = 0;
  std::vector<std::uint8_t> inverse_;  // d x d; empty until first compute
};

}  // namespace

ReedSolomonScheme::ReedSolomonScheme(unsigned data_shards,
                                     unsigned parity_shards)
    : d_(data_shards), p_(parity_shards) {
  if (d_ == 0) throw std::invalid_argument("ReedSolomon: zero data shards");
  if (d_ + p_ > 256) {
    throw std::invalid_argument("ReedSolomon: more than 256 shards");
  }
}

std::vector<Bytes> ReedSolomonScheme::encode(
    std::span<const std::uint8_t> block) const {
  const std::size_t shard_size = (block.size() + d_ - 1) / d_;
  std::vector<Bytes> shards(fragment_count(), Bytes(shard_size, 0));

  for (unsigned c = 0; c < d_; ++c) {
    const std::size_t begin = static_cast<std::size_t>(c) * shard_size;
    const std::size_t end = std::min(block.size(), begin + shard_size);
    if (begin < end) {
      std::copy(block.begin() + static_cast<std::ptrdiff_t>(begin),
                block.begin() + static_cast<std::ptrdiff_t>(end),
                shards[c].begin());
    }
  }
  for (unsigned r = d_; r < fragment_count(); ++r) {
    const std::vector<std::uint8_t> row = matrix_row(d_, r);
    for (unsigned c = 0; c < d_; ++c) {
      gf256::mul_add(shards[r], shards[c], row[c]);
    }
  }
  return shards;
}

Bytes ReedSolomonScheme::decode(std::span<const std::optional<Bytes>> fragments,
                                std::size_t block_size) const {
  Solver solver(d_, p_, fragments);
  const std::size_t shard_size = solver.shard_size();
  if (block_size > shard_size * d_) {
    throw std::invalid_argument("ReedSolomon: block size exceeds capacity");
  }
  // Data fragment c holds bytes [c * shard_size, (c+1) * shard_size) of the
  // block; a healthy read only copies them.
  Bytes block;
  block.reserve(block_size);
  for (unsigned c = 0; block.size() < block_size; ++c) {
    const std::size_t take = std::min(shard_size, block_size - block.size());
    const Bytes solved = fragments[c] ? Bytes{} : solver.compute(c);
    const Bytes& stripe = fragments[c] ? *fragments[c] : solved;
    block.insert(block.end(), stripe.begin(),
                 stripe.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return block;
}

Bytes ReedSolomonScheme::reconstruct_fragment(
    std::span<const std::optional<Bytes>> fragments, unsigned target) const {
  if (target >= fragment_count()) {
    throw std::invalid_argument("ReedSolomon: bad target shard");
  }
  return Solver(d_, p_, fragments).compute(target);
}

std::string ReedSolomonScheme::name() const {
  return "reed-solomon(" + std::to_string(d_) + "+" + std::to_string(p_) + ")";
}

}  // namespace rds
