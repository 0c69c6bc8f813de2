// Lock-free instantaneous-value gauge (signed: levels can go up and down).
//
// Same discipline as Counter: relaxed atomics only, no locks anywhere, so
// set()/add() are safe on hot paths.  set_max() keeps a running peak (queue
// depth high-water marks) via a CAS loop that normally exits on the first
// load.
#pragma once

#include <atomic>
#include <cstdint>

namespace rds::metrics {

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

  void add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  void sub(std::int64_t n = 1) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Raises the gauge to `v` if it is currently below (peak tracking).
  void set_max(std::int64_t v) noexcept {
    // Both CAS orders relaxed, spelled out: a peak is a monotonic scalar
    // with no payload published alongside it, so no acquire/release pairing
    // exists to establish -- same discipline as every other op here.  The
    // failure order is named too so the intent (not an accidental seq_cst
    // default) is explicit and machine-checked by rds_analyze.
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

}  // namespace rds::metrics
