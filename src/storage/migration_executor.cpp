#include "src/storage/migration_executor.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "src/metrics/registry.hpp"
#include "src/metrics/scoped_timer.hpp"
#include "src/util/gauge_guard.hpp"

namespace rds {

MigrationExecutor::MigrationExecutor(
    std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores,
    std::uint32_t volume_id, MigrationExecutorOptions options)
    : stores_(std::move(stores)), volume_id_(volume_id), opts_(options) {
  for (const auto& [uid, store] : stores_) {
    if (!store) {
      throw std::invalid_argument("MigrationExecutor: null store");
    }
  }
  metrics::Registry& reg = metrics::Registry::global();
  moves_total_ = &reg.counter("rds_migration_executor_moves_total");
  retries_total_ = &reg.counter("rds_migration_executor_retries_total");
  failures_total_ = &reg.counter("rds_migration_executor_failures_total");
  cancellations_total_ =
      &reg.counter("rds_migration_executor_cancellations_total");
  inflight_ = &reg.gauge("rds_migration_executor_inflight");
  move_latency_ns_ = &reg.histogram("rds_migration_move_latency_ns");
}

MigrationExecutor::MoveOutcome MigrationExecutor::run_move(
    const FragmentMove& move, const CancellationToken& token,
    std::uint64_t& retries) {
  const FragmentKey key{move.block, move.fragment, volume_id_};
  DeviceStore& from = *stores_.at(move.from);
  DeviceStore& to = *stores_.at(move.to);

  for (unsigned attempt = 0; attempt < opts_.max_attempts; ++attempt) {
    if (token.cancelled()) return MoveOutcome::kCancelled;

    bool failed = false;
    if (opts_.faults != nullptr && opts_.faults->should_fail(move, attempt)) {
      failed = true;
    } else {
      std::optional<std::vector<std::uint8_t>> payload = from.read(key);
      if (!payload) {
        // Nothing to move: the fragment was trimmed, never existed, or the
        // source crashed.  Rebuild-from-peers is the layer above's job
        // (VirtualDisk::rebuild); a pure mover reports and continues.
        return MoveOutcome::kSkipped;
      }
      try {
        to.write(key, std::move(*payload));
      } catch (const std::exception&) {
        failed = true;  // destination full or crashed: retry after backoff
      }
      if (!failed) {
        from.erase(key);
        return MoveOutcome::kMoved;
      }
    }

    if (attempt + 1 < opts_.max_attempts) {
      ++retries;
      retries_total_->inc();
      std::this_thread::sleep_for(opts_.backoff_base * (1u << attempt));
    }
  }
  return MoveOutcome::kFailed;
}

Result<MigrationReport> MigrationExecutor::execute(
    const MigrationPlan& plan,
    CancellationToken token) {  // NOLINT(performance-unnecessary-value-param)
  if (opts_.max_in_flight == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "MigrationExecutor: max_in_flight must be at least 1"};
  }
  if (opts_.max_attempts == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "MigrationExecutor: max_attempts must be at least 1"};
  }
  for (const FragmentMove& move : plan.moves) {
    if (!stores_.contains(move.from) || !stores_.contains(move.to)) {
      return Error{ErrorCode::kInvalidArgument,
                   "MigrationExecutor: plan names a device outside the "
                   "store set"};
    }
  }

  MigrationReport report;
  if (plan.moves.empty()) return report;

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      opts_.max_in_flight, plan.moves.size()));
  std::atomic<std::size_t> next{0};
  Mutex merge_mu;

  const auto drain = [&] {
    MigrationReport shard;
    for (;;) {
      if (token.cancelled()) break;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= plan.moves.size()) break;
      const metrics::GaugeGuard inflight_guard(*inflight_);
      metrics::ScopedTimer move_span(*move_latency_ns_);
      const MoveOutcome outcome =
          run_move(plan.moves[i], token, shard.retries);
      switch (outcome) {
        case MoveOutcome::kMoved:
          ++shard.moves_executed;
          moves_total_->inc();
          break;
        case MoveOutcome::kSkipped:
          ++shard.moves_skipped;
          move_span.cancel();
          break;
        case MoveOutcome::kFailed:
          ++shard.moves_failed;
          failures_total_->inc();
          move_span.cancel();
          break;
        case MoveOutcome::kCancelled:
          ++shard.moves_remaining;  // started but abandoned un-moved
          move_span.cancel();
          break;
      }
    }
    const MutexLock lock(merge_mu);
    report.moves_executed += shard.moves_executed;
    report.moves_skipped += shard.moves_skipped;
    report.moves_failed += shard.moves_failed;
    report.moves_remaining += shard.moves_remaining;
    report.retries += shard.retries;
  };

  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }

  // Moves no worker ever claimed (fetch_add raced past the end is fine --
  // only indices < size count).
  const std::size_t claimed =
      std::min<std::size_t>(next.load(std::memory_order_relaxed),
                            plan.moves.size());
  report.moves_remaining += plan.moves.size() - claimed;
  report.cancelled = token.cancelled();
  if (report.cancelled) cancellations_total_->inc();
  return report;
}

}  // namespace rds
