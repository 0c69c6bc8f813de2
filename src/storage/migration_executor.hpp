// Parallel execution of a MigrationPlan against a set of device stores.
//
// plan_migration() says *what* must move; this executor is the *how*: a
// bounded window of in-flight moves (worker threads pulling from one shared
// queue), per-move retry with exponential backoff against transient device
// faults, and cooperative cancellation.  Faults are injectable (tests,
// chaos) through the FaultInjector hook; real failures -- a destination
// store throwing because it is full or crashed -- take the same retry path.
//
// Every DeviceStore operation takes the store's own lock, so moves on
// disjoint devices proceed in parallel and moves sharing a device
// serialize per operation (read source / write destination / erase
// source), never holding two stores at once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/core/result.hpp"
#include "src/storage/device_store.hpp"
#include "src/storage/migration.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds::metrics {
class Counter;
class Gauge;
class LatencyHistogram;
}  // namespace rds::metrics

namespace rds {

/// Test/chaos hook: veto individual move attempts.  `attempt` is 0-based;
/// returning true fails that attempt (the executor backs off and retries).
/// Called concurrently from the worker threads -- implementations must be
/// thread-safe.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  [[nodiscard]] virtual bool should_fail(const FragmentMove& move,
                                         unsigned attempt) = 0;
};

/// Shared cancellation flag; copies observe the same flag.  cancel() is
/// sticky and safe from any thread (a watchdog can hold a copy).
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

struct MigrationExecutorOptions {
  unsigned max_in_flight = 4;  ///< concurrent moves (worker threads)
  unsigned max_attempts = 4;   ///< first try + retries per move
  std::chrono::microseconds backoff_base{50};  ///< doubles per retry
  FaultInjector* faults = nullptr;  ///< nullptr = no injected faults
};

struct MigrationReport {
  std::uint64_t moves_executed = 0;
  std::uint64_t moves_skipped = 0;   ///< source fragment absent
  std::uint64_t moves_failed = 0;    ///< attempts exhausted
  std::uint64_t moves_remaining = 0; ///< never started (cancellation)
  std::uint64_t retries = 0;
  bool cancelled = false;

  [[nodiscard]] bool complete() const noexcept {
    return !cancelled && moves_failed == 0 && moves_remaining == 0;
  }
};

class MigrationExecutor {
 public:
  /// `stores` must cover every device the plans will touch; `volume_id`
  /// namespaces the fragment keys (0 for standalone disks).
  MigrationExecutor(
      std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores,
      std::uint32_t volume_id = 0, MigrationExecutorOptions options = {});

  /// Executes every move of `plan`.  Invalid options or a move naming a
  /// device outside the store set fail eagerly with kInvalidArgument
  /// (nothing executed); otherwise the report says what happened, including
  /// partial progress under cancellation.
  /// `token` is taken by value on purpose: it is a shared handle the worker
  /// threads capture, and a reference could dangle past the caller's scope.
  [[nodiscard]] Result<MigrationReport> execute(
      const MigrationPlan& plan,
      CancellationToken token = {});  // NOLINT(performance-unnecessary-value-param)

 private:
  enum class MoveOutcome { kMoved, kSkipped, kFailed, kCancelled };

  [[nodiscard]] MoveOutcome run_move(const FragmentMove& move,
                                     const CancellationToken& token,
                                     std::uint64_t& retries);

  std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores_;
  std::uint32_t volume_id_;
  MigrationExecutorOptions opts_;

  // Registry-owned instruments (see docs/metrics.md).
  metrics::Counter* moves_total_ = nullptr;
  metrics::Counter* retries_total_ = nullptr;
  metrics::Counter* failures_total_ = nullptr;
  metrics::Counter* cancellations_total_ = nullptr;
  metrics::Gauge* inflight_ = nullptr;
  metrics::LatencyHistogram* move_latency_ns_ = nullptr;
};

}  // namespace rds
