// Shared pieces of the end-to-end storage benchmark: seeded input
// generation, the report every workload fills, the in-memory span tracer,
// registry deltas, allocation counts and small statistics helpers.
//
// Everything here is the benchmark's own code; the library under test is
// only ever reached through its public headers.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/metrics/registry.hpp"

namespace sb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// splitmix64 step: the benchmark's one mixing function, so inputs do not
/// depend on any generator inside the library.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Small seeded generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Fills `out` with the payload of (seed, block, version): the bytes a
/// write stores and a later read must return.
void fill_payload(std::uint64_t seed, std::uint64_t block,
                  std::uint64_t version, std::span<std::uint8_t> out);

/// Zipf(skew) over ranks [0, n), rank 0 hottest, by inverse CDF.
class Zipf {
 public:
  Zipf(std::uint64_t n, double skew);
  [[nodiscard]] std::uint64_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Keeps a computed value alive so the calls producing it are not
/// optimized away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- Statistics ---

/// a / b, counting an empty denominator as one.
[[nodiscard]] inline double per(double a, std::uint64_t b) {
  return a / static_cast<double>(std::max<std::uint64_t>(b, 1));
}

/// Value at quantile q in [0, 1] (nearest rank on a sorted copy).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Heap allocations made by the calling thread so far (counted by the
/// global operator new in main.cpp).
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

// --- Report ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failed operation or verification and keeps its message.
  void fail(std::string what);

  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Fixed-capacity reservoir of latency samples (µs).  The memory is
/// allocated and touched up front, so a run's peak RSS does not depend on
/// how many operations it completed.  Past capacity each new sample
/// replaces a random kept one (Algorithm R), so the kept samples stay a
/// uniform sample of everything added, not just the latest part.
class Samples {
 public:
  explicit Samples(std::size_t capacity)
      : buf_(capacity, 0.0f), rng_(0x5eed) {}
  void add(double us) noexcept {
    const std::uint64_t slot =
        count_ < buf_.size() ? count_ : rng_.below(count_ + 1);
    if (slot < buf_.size()) buf_[slot] = static_cast<float>(us);
    ++count_;
  }
  [[nodiscard]] std::span<const float> values() const noexcept {
    return {buf_.data(), std::min<std::size_t>(count_, buf_.size())};
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

 private:
  std::vector<float> buf_;
  Rng rng_;
  std::uint64_t count_ = 0;
};

/// Quantile q of the union of several sample sets.
[[nodiscard]] double quantile(const std::vector<const Samples*>& sets,
                              double q);

/// End-to-end figures of one measurement window.  Runs are split into
/// windows and report the median over windows, so a burst of load from
/// elsewhere on the host moves one window, not the run's figure.
struct Window {
  double ops_per_s = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p95_us = 0.0;
};

/// The window figures of `ops_per_s` and the given read and write samples.
[[nodiscard]] Window make_window(double ops_per_s,
                                 const std::vector<const Samples*>& reads,
                                 const std::vector<const Samples*>& writes);

/// Adds every end-to-end metric: setup_s as the median of `setups`, the
/// throughput and latency quantiles as medians over `windows`, and the
/// peak RSS.
void add_end_to_end(Report& report, std::vector<double> setups,
                    const std::vector<Window>& windows);

// --- Tracing ---

/// One recorded span.  Ids are unique per process; parent 0 is a root.
struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span buffer, preallocated so recording never allocates
/// (the allocation counts are taken while spans are recorded).  Spans past
/// the capacity are dropped and counted.
class SpanLog {
 public:
  SpanLog(unsigned thread, std::size_t capacity);

  /// Opens a span and returns its id; close it with end().
  [[nodiscard]] std::uint64_t begin() noexcept { return next_id_++; }
  void end(const char* name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t request, std::int64_t start_ns) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_;
  std::uint64_t dropped_ = 0;
};

/// A fresh request id, unique in the process because it is drawn from the
/// log's span ids; 0 when tracing is off.
[[nodiscard]] inline std::uint64_t new_request(SpanLog* log) noexcept {
  return log != nullptr ? log->begin() : 0;
}

/// Owns the span logs of one run and writes them out at exit.  When
/// disabled, logs are never handed out and ScopedSpan does nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A new log for one thread (nullptr when tracing is off).  The tracer
  /// keeps it alive until write().
  [[nodiscard]] SpanLog* new_log(std::size_t capacity);

  /// Writes every span as CSV (name, start, end, id, parent, request).
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Records [construction, destruction) as one span when `log` is set.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0) noexcept
      : log_(log),
        name_(name),
        parent_(parent),
        request_(request),
        id_(log != nullptr ? log->begin() : 0),
        start_ns_(log != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(name_, id_, parent_, request_, start_ns_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_;
  std::int64_t start_ns_;
};

/// Runs `call` on `threads` threads at once, each timing `batches` batches
/// of `batch` calls; returns the median ns per call over every batch.  One
/// span named `name` covers the whole measurement.
template <typename F>
double per_call_ns(unsigned threads, int batches, int batch, SpanLog* log,
                   const char* name, F&& call) {
  ScopedSpan span(log, name);
  std::vector<std::vector<double>> per_thread(threads);
  std::atomic<unsigned> ready{0};
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < threads) {
          std::this_thread::yield();
        }
        for (int i = 0; i < batches; ++i) {
          const std::int64_t t0 = now_ns();
          for (int j = 0; j < batch; ++j) call();
          per_thread[t].push_back(static_cast<double>(now_ns() - t0) / batch);
        }
      });
    }
  }
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return median(std::move(all));
}

// --- Registry deltas ---

/// Snapshots metrics::Registry::global() around one measured phase and
/// reports per-family deltas (summed over label sets).
class RegistryDelta {
 public:
  RegistryDelta() : before_(rds::metrics::Registry::global().snapshot()) {}
  /// Takes the closing snapshot; the deltas below compare against it.
  void finish() { after_ = rds::metrics::Registry::global().snapshot(); }

  [[nodiscard]] std::uint64_t counter(std::string_view family) const;
  /// (count, sum) delta of a histogram family.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> histogram(
      std::string_view family) const;

 private:
  rds::metrics::Snapshot before_;
  rds::metrics::Snapshot after_;
};

// --- Workloads ---

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  ///< span CSV path (traced runs)
};

Report run_io_mirror(const Args& args, Tracer& tracer);
Report run_lookup_churn(const Args& args, Tracer& tracer);
Report run_reconfig(const Args& args, Tracer& tracer);

/// Prints the seeded reconfiguration script for `seed` (one step a line).
void print_reconfig_script(std::uint64_t seed);

}  // namespace sb
