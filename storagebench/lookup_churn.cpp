// lookup_churn: the placement read path under topology churn.  A
// data-less VirtualDisk over 1,000 heterogeneous devices, k=4 and Fast
// Redundant Share; three readers resolve uniformly random 64-bit
// addresses through try_copy_locations while a committer resizes a seeded
// device every 5 ms.
#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/metrics/counter.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/storage/redundancy_scheme.hpp"
#include "src/storage/virtual_disk.hpp"
#include "storagebench/common.hpp"
#include "storagebench/layers.hpp"

namespace sb {
namespace {

constexpr std::uint64_t kDevices = 1000;
constexpr unsigned kCopies = 4;
constexpr unsigned kReaders = 3;
constexpr std::int64_t kCommitPeriodNs = 5'000'000;
constexpr rds::PlacementKind kKind = rds::PlacementKind::kFastRedundantShare;
constexpr int kBatch = 64;         ///< lookups between deadline checks
constexpr int kSampleEvery = 16;   ///< one timed lookup in this many

std::uint64_t churn_capacity(Rng& rng, rds::DeviceId uid) {
  return (1 + uid % 4) * 1000 + rng.below(500);
}

std::unique_ptr<rds::VirtualDisk> make_churn_disk(std::uint64_t seed) {
  Rng rng(mix64(seed) ^ 0x20);
  std::vector<rds::Device> devices;
  for (rds::DeviceId uid = 0; uid < kDevices; ++uid) {
    devices.push_back({uid, churn_capacity(rng, uid), ""});
  }
  return std::make_unique<rds::VirtualDisk>(
      rds::ClusterConfig(std::move(devices)),
      std::make_shared<rds::MirroringScheme>(kCopies), kKind);
}

struct ThreadResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  Samples sampled_us{1u << 17};
  std::string first_error;

  void fail(std::string what) {
    ++failed;
    if (first_error.empty()) first_error = std::move(what);
  }
};

void reader_loop(const rds::VirtualDisk& disk, std::uint64_t stream, unsigned r,
                 std::int64_t deadline_ns, SpanLog* log, ThreadResult& out) {
  Rng rng(mix64(stream ^ (0x2000 + r)));
  std::array<rds::DeviceId, kCopies> where{};
  std::uint64_t last_epoch = 0;
  while (now_ns() < deadline_ns) {
    ScopedSpan span(log, "lookup.batch", 0, new_request(log));
    for (int j = 0; j < kBatch; ++j) {
      const std::uint64_t address = rng.next();
      const bool timed = j % kSampleEvery == 0;
      const std::int64_t t0 = timed ? now_ns() : 0;
      const auto epoch = disk.try_copy_locations(address, where);
      if (timed) {
        out.sampled_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      ++out.ops;
      if (!epoch.ok()) {
        out.fail("lookup failed: " + epoch.error().message);
        continue;
      }
      if (epoch.value() < last_epoch) {
        out.fail("reader saw its epoch go backwards");
      }
      last_epoch = epoch.value();
      for (unsigned a = 0; a < kCopies; ++a) {
        for (unsigned b = a + 1; b < kCopies; ++b) {
          if (where[a] == where[b]) out.fail("two copies on one device");
        }
      }
    }
  }
}

void committer_loop(rds::VirtualDisk& disk, std::uint64_t stream,
                    std::int64_t start_ns, std::int64_t deadline_ns,
                    SpanLog* log, ThreadResult& out) {
  Rng rng(mix64(stream ^ 0x3000));
  for (std::int64_t next = start_ns + kCommitPeriodNs; next < deadline_ns;
       next += kCommitPeriodNs) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(next)));
    const rds::DeviceId uid = rng.below(kDevices);
    const std::uint64_t capacity = churn_capacity(rng, uid);
    const std::int64_t t0 = now_ns();
    const bool ok = [&] {
      ScopedSpan span(log, "commit.resize", 0, new_request(log));
      return disk.try_resize_device(uid, capacity).ok();
    }();
    out.sampled_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
    ++out.ops;
    if (!ok) out.fail("resize_device commit failed");
  }
}

struct ChurnPhase {
  std::vector<ThreadResult> readers;
  ThreadResult committer;
  double elapsed_s = 0.0;

  [[nodiscard]] std::uint64_t lookups() const {
    std::uint64_t total = 0;
    for (const auto& r : readers) total += r.ops;
    return total;
  }
  [[nodiscard]] double lookups_per_s() const {
    return static_cast<double>(lookups()) / elapsed_s;
  }
  [[nodiscard]] std::vector<const Samples*> lookup_us() const {
    std::vector<const Samples*> out;
    for (const auto& r : readers) out.push_back(&r.sampled_us);
    return out;
  }
  [[nodiscard]] std::vector<const Samples*> commit_us() const {
    return {&committer.sampled_us};
  }
};

/// `readers` reader threads for `seconds`, plus the committer when
/// `churn` is set; `stream` seeds their addresses and resizes.  Failures
/// are folded into the report.
ChurnPhase run_churn(rds::VirtualDisk& disk, std::uint64_t stream,
                     unsigned readers, bool churn, double seconds,
                     Tracer* tracer, Report& report) {
  ChurnPhase phase;
  phase.readers.resize(readers);
  std::vector<SpanLog*> logs(readers + 1, nullptr);
  if (tracer != nullptr) {
    for (auto& log : logs) log = tracer->new_log(1u << 18);
  }
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (unsigned r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        reader_loop(disk, stream, r, deadline, logs[r], phase.readers[r]);
      });
    }
    if (churn) {
      threads.emplace_back([&] {
        committer_loop(disk, stream, start, deadline, logs[readers],
                       phase.committer);
      });
    }
  }
  phase.elapsed_s = seconds_since(start);
  auto fold = [&](const ThreadResult& t) {
    report.attempted += t.ops;
    for (std::uint64_t i = 0; i < t.failed; ++i) report.fail(t.first_error);
  };
  for (const auto& r : phase.readers) fold(r);
  fold(phase.committer);
  return phase;
}

}  // namespace

void lookup_layers(std::uint64_t seed, double seconds, bool own_workload,
                   Tracer& tracer, Report& report) {
  const auto disk = make_churn_disk(seed);
  SpanLog* log = tracer.new_log(1u << 12);
  // Every phase draws its own address stream (see run_lookup_churn).
  const std::uint64_t stream = mix64(seed) + 16;
  run_churn(*disk, stream, kReaders, false, 0.2, nullptr, report);  // warm-up

  // Strategy calls against one pinned epoch, on one thread.
  const auto epoch = disk->placement_snapshot();
  const rds::ReplicationStrategy& strategy = *epoch->strategy;
  Rng rng(mix64(seed) ^ 0x4000);
  std::array<rds::DeviceId, kCopies> where{};
  std::uint64_t sink = 0;
  const double place_ns =
      per_call_ns(1, 64, 1024, log, "placement.place", [&] {
        strategy.place(rng.next(), where);
        sink += where[0];
      });
  std::array<std::uint64_t, 64> addresses{};
  std::array<rds::DeviceId, 64 * kCopies> many{};
  const double place_many_ns =
      per_call_ns(1, 64, 16, log, "placement.place_many", [&] {
        for (auto& a : addresses) a = rng.next();
        strategy.place_many(addresses, many);
        sink += many[5];
      }) / 64.0;
  keep(sink);

  std::vector<double> builds;
  for (int i = 0; i < 16; ++i) {
    ScopedSpan span(log, "core.strategy_build");
    const std::int64_t t0 = now_ns();
    const auto built =
        rds::make_replication_strategy(kKind, epoch->config, kCopies);
    builds.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    keep(built.get());
  }

  // Epoch publication and the shared metrics counter, 1 and 3 threads.
  auto epoch_load = [&] { keep(disk->placement_snapshot().get()); };
  const double epoch_1t =
      per_call_ns(1, 64, 4096, log, "storage.epoch_load_1t", epoch_load);
  const double epoch_3t = per_call_ns(kReaders, 64, 4096, log,
                                      "storage.epoch_load_3t", epoch_load);
  rds::metrics::Counter counter;
  auto inc = [&] { counter.inc(); };
  const double inc_1t =
      per_call_ns(1, 64, 16384, log, "metrics.counter_inc_1t", inc);
  const double inc_3t = per_call_ns(kReaders, 64, 16384, log,
                                    "metrics.counter_inc_3t", inc);

  // Reader scaling without churn.
  const ChurnPhase one =
      run_churn(*disk, stream + 1, 1, false, seconds * 0.1, nullptr, report);
  const ChurnPhase three = run_churn(*disk, stream + 2, kReaders, false,
                                     seconds * 0.1, nullptr, report);

  // The workload itself, untraced then traced.
  const ChurnPhase plain = run_churn(*disk, stream + 3, kReaders, true,
                                     seconds * 0.3, nullptr, report);
  RegistryDelta registry;
  const ChurnPhase traced = run_churn(*disk, stream + 4, kReaders, true,
                                      seconds * 0.3, &tracer, report);
  registry.finish();
  const auto commits = traced.commit_us();

  report.add("placement.strategy_place_ns", place_ns, "ns");
  report.add("placement.place_many_ns", place_many_ns, "ns");
  report.add("placement.scaling_3t_over_1t",
             three.lookups_per_s() / one.lookups_per_s(), "ratio");
  report.add("core.strategy_build_us", median(builds), "us");
  report.add("storage.epoch_load_ns_1t", epoch_1t, "ns");
  report.add("storage.epoch_load_ns_3t", epoch_3t, "ns");
  report.add("storage.commit_p50_us", quantile(commits, 0.5), "us");
  report.add("storage.commit_p99_us", quantile(commits, 0.99), "us");
  report.add("metrics.counter_inc_ns_1t", inc_1t, "ns");
  report.add("metrics.counter_inc_ns_3t", inc_3t, "ns");
  report.add("metrics.placements_per_lookup",
             per(static_cast<double>(registry.counter("rds_placements_total")),
                 traced.lookups()),
             "ratio");
  if (own_workload) {
    report.add("tracing_overhead_frac",
               plain.lookups_per_s() / traced.lookups_per_s() - 1.0, "ratio");
  }
}

Report run_lookup_churn(const Args& args, Tracer& tracer) {
  Report report;
  if (args.trace) {
    lookup_layers(args.seed, args.seconds, true, tracer, report);
    io_layers(args.seed, kIoProbeBlocks, kProbeSeconds, false, tracer, report);
    reconfig_layers(args.seed, kReconfigProbeBlocks, false, tracer, report);
    return report;
  }
  // A data-less disk sets up in well under a millisecond: build it many
  // times so the median is steady.  Only the last disk is kept.
  std::vector<double> setups;
  std::unique_ptr<rds::VirtualDisk> disk;
  for (int i = 0; i < 200; ++i) {
    disk.reset();
    const std::int64_t t0 = now_ns();
    disk = make_churn_disk(args.seed);
    setups.push_back(seconds_since(t0));
  }
  // Every phase draws its own address stream, so no address repeats
  // within a run.
  const std::uint64_t stream = mix64(args.seed);
  run_churn(*disk, stream, kReaders, true, 0.3, nullptr, report);  // warm-up
  // Eight windows, each long enough for ~500 commits, so the commit p95
  // has 25 samples beyond it.
  std::vector<Window> windows;
  for (int w = 0; w < 8; ++w) {
    const ChurnPhase run = run_churn(*disk, stream + 8 + w, kReaders, true,
                                     args.seconds / 8, nullptr, report);
    windows.push_back(
        make_window(run.lookups_per_s(), run.lookup_us(), run.commit_us()));
  }
  add_end_to_end(report, std::move(setups), windows);
  return report;
}

}  // namespace sb
