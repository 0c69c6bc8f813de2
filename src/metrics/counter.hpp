// Lock-free monotonic event counter, sharded across cache lines.
//
// The counter is kCells cache-line-padded cells; each thread increments the
// cell its thread_local index picks, so threads on different cells never
// write the same line.  The write path is still a single relaxed fetch_add:
// safe from any thread, no fences, no locks -- cheap enough to sit inside
// RedundantShare::place and the storage read/write paths even when several
// cores place at once.  value() sums the cells; fetch_add makes concurrent
// increments exact (no lost updates), so totals reconcile.  Readers see an
// eventually-consistent value, which is all a metric needs.  Cost: kCells
// x 64 B = 1 KiB per counter.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rds::metrics {

class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    cells_[this_thread_cell()].value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every cell (tests, bench warm-up).  Not atomic with respect to
  /// concurrent inc(); callers quiesce writers first.
  void reset() noexcept {
    for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
  }

  /// The cell this thread increments: threads take indices round-robin on
  /// first use, so up to kCells live threads never share one.
  [[nodiscard]] static std::size_t this_thread_cell() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t cell =
        next.fetch_add(1, std::memory_order_relaxed) % kCells;
    return cell;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };

  std::array<Cell, kCells> cells_{};
};

}  // namespace rds::metrics
