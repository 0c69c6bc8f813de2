// reconfig: migration, rebuild, journal and recovery.  A journaled
// StoragePool over ten heterogeneous devices carries two volumes of 1 KiB
// blocks (mirror-3 and RS(4+2)).  After a checkpoint it runs a seeded
// script -- add two devices, grow one, remove one, fail one and rebuild --
// and then recovers a fresh pool from the checkpoint plus the journal and
// checks it against the live pool.
#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/journal/journal.hpp"
#include "src/journal/recovery.hpp"
#include "src/storage/redundancy_scheme.hpp"
#include "src/storage/snapshot.hpp"
#include "src/storage/storage_pool.hpp"
#include "storagebench/common.hpp"
#include "storagebench/layers.hpp"

namespace sb {
namespace {

constexpr std::size_t kBlockBytes = 1024;
constexpr rds::DeviceId kDevices = 10;
/// Fragments per block summed over both volumes (3 + 6).
constexpr std::uint64_t kFragmentsPerBlock = 9;
constexpr std::array<const char*, 2> kVolumes = {"mirror3", "rs42"};

enum class StepKind { kAdd, kGrow, kRemove, kFailRebuild };
constexpr std::array<const char*, 4> kStepSpan = {
    "pool.add", "pool.resize", "pool.remove", "pool.fail_rebuild"};

struct Step {
  StepKind kind = StepKind::kAdd;
  rds::DeviceId uid = 0;
  std::uint64_t capacity = 0;  ///< kAdd, kGrow
};

/// Capacities in [4u, 5u) with u = fragments / 16: about 35 % full, and
/// k * b_max <= B holds for RS(4+2) before and after every step, so each
/// device's fair share is exactly k * m * b_i / B.
std::uint64_t unit_of(std::uint64_t blocks) {
  return blocks * kFragmentsPerBlock / 16;
}

rds::ClusterConfig initial_config(std::uint64_t seed, std::uint64_t blocks) {
  const std::uint64_t u = unit_of(blocks);
  Rng rng(mix64(seed) ^ 0x50);
  std::vector<rds::Device> devices;
  for (rds::DeviceId uid = 0; uid < kDevices; ++uid) {
    devices.push_back({uid, 4 * u + rng.below(u), ""});
  }
  return rds::ClusterConfig(std::move(devices));
}

std::vector<Step> make_script(std::uint64_t seed, std::uint64_t blocks) {
  const std::uint64_t u = unit_of(blocks);
  const rds::ClusterConfig config = initial_config(seed, blocks);
  Rng rng(mix64(seed) ^ 0x51);
  std::vector<rds::DeviceId> live;
  for (const auto& d : config.devices()) live.push_back(d.uid);
  std::sort(live.begin(), live.end());
  auto take = [&](rds::DeviceId avoid) {
    rds::DeviceId uid = avoid;
    while (uid == avoid) uid = live[rng.below(live.size())];
    live.erase(std::find(live.begin(), live.end(), uid));
    return uid;
  };

  std::vector<Step> script;
  for (rds::DeviceId uid : {rds::DeviceId{100}, rds::DeviceId{101}}) {
    script.push_back({StepKind::kAdd, uid, 4 * u + rng.below(u)});
    live.push_back(uid);
  }
  const rds::DeviceId grown = live[rng.below(kDevices)];
  const std::uint64_t old_capacity =
      config[*config.index_of(grown)].capacity;
  script.push_back({StepKind::kGrow, grown, old_capacity * 5 / 4});
  script.push_back({StepKind::kRemove, take(grown), 0});
  script.push_back({StepKind::kFailRebuild, take(grown), 0});
  return script;
}

/// Lower bound on the fragments a step must move: every device must end
/// with its fair share, and whatever it lacks before the step has to
/// arrive.  `before` maps uid -> fragments held before the step.
double step_bound(const std::map<rds::DeviceId, std::uint64_t>& before,
                  const rds::ClusterConfig& after, std::uint64_t fragments) {
  const double total = static_cast<double>(after.total_capacity());
  double bound = 0.0;
  for (const auto& d : after.devices()) {
    const double share = static_cast<double>(fragments) *
                         static_cast<double>(d.capacity) / total;
    const auto it = before.find(d.uid);
    const std::uint64_t held = it == before.end() ? 0 : it->second;
    bound += std::max(0.0, share - static_cast<double>(held));
  }
  return bound;
}

std::map<rds::DeviceId, std::uint64_t> occupancy(const rds::StoragePool& pool) {
  std::map<rds::DeviceId, std::uint64_t> out;
  for (const auto& u : pool.usage()) out[u.device.uid] = u.used;
  return out;
}

std::uint64_t payload_key(std::size_t volume, std::uint64_t block) {
  return (static_cast<std::uint64_t>(volume) << 40) | block;
}

struct Iteration {
  double setup_s = 0.0;
  double script_s = 0.0;
  double recover_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double replay_s = 0.0;
  std::array<double, 4> step_ms{};  ///< per StepKind, mean over its steps
  std::uint64_t moved = 0;
  std::uint64_t rebuilt = 0;
  double bound = 0.0;
  std::uint64_t records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t append_count = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t checkpoint_bytes = 0;
  Samples write_us;
  Samples read_us;

  explicit Iteration(std::uint64_t blocks)
      : write_us(blocks * kVolumes.size()), read_us(blocks * kVolumes.size()) {}
};

/// Reads every block of both volumes from the recovered pool (timed) and
/// the live pool, and checks both against the seeded payload.
void verify_contents(std::uint64_t seed, std::uint64_t blocks,
                     rds::StoragePool& live, rds::StoragePool& twin,
                     Iteration& it, Report& report) {
  std::vector<std::uint8_t> expect(kBlockBytes);
  for (std::size_t v = 0; v < kVolumes.size(); ++v) {
    rds::VirtualDisk& a = live.volume(kVolumes[v]);
    rds::VirtualDisk& b = twin.volume(kVolumes[v]);
    for (std::uint64_t block = 0; block < blocks; ++block) {
      fill_payload(seed, payload_key(v, block), 0, expect);
      const std::int64_t t0 = now_ns();
      const auto got = b.try_read(block);
      it.read_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
      const auto ref = a.try_read(block);
      report.attempted += 2;
      if (!got.ok() || got.value() != expect) {
        report.fail("recovered pool: wrong contents of " +
                    std::string(kVolumes[v]) + " block " +
                    std::to_string(block));
      }
      if (!ref.ok() || ref.value() != expect) {
        report.fail("live pool: wrong contents of " + std::string(kVolumes[v]) +
                    " block " + std::to_string(block));
      }
    }
  }
}

void check_scrub(rds::StoragePool& pool, const char* which, Report& report) {
  for (const char* name : kVolumes) {
    ++report.attempted;
    if (!pool.volume(name).scrub().clean()) {
      report.fail(std::string(which) + " pool: scrub of " + name +
                  " is not clean");
    }
  }
}

/// Set-up, script, recovery and verification of one pool.
Iteration run_iteration(std::uint64_t seed, std::uint64_t blocks, SpanLog* log,
                        Report& report) {
  Iteration it(blocks);
  const std::vector<Step> script = make_script(seed, blocks);

  // --- Set-up: fill both volumes, checkpoint, attach the journal ---
  const std::int64_t setup_start = now_ns();
  auto pool = std::make_unique<rds::StoragePool>(initial_config(seed, blocks));
  pool->create_volume(kVolumes[0], std::make_shared<rds::MirroringScheme>(3));
  pool->create_volume(kVolumes[1],
                      std::make_shared<rds::ReedSolomonScheme>(4, 2));
  std::vector<std::uint8_t> buf(kBlockBytes);
  for (std::size_t v = 0; v < kVolumes.size(); ++v) {
    rds::VirtualDisk& disk = pool->volume(kVolumes[v]);
    for (std::uint64_t block = 0; block < blocks; ++block) {
      fill_payload(seed, payload_key(v, block), 0, buf);
      const std::int64_t t0 = now_ns();
      const bool ok = disk.try_write(block, buf).ok();
      it.write_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
      ++report.attempted;
      if (!ok) report.fail("initial write failed");
    }
  }
  std::stringstream checkpoint;
  {
    ScopedSpan span(log, "snapshot.save");
    const std::int64_t t0 = now_ns();
    rds::journal::write_checkpoint(*pool, 0, checkpoint);
    it.save_s = seconds_since(t0);
  }
  it.checkpoint_bytes = static_cast<std::uint64_t>(checkpoint.tellp());
  std::stringstream wal;
  auto writer = std::make_shared<rds::journal::JournalWriter>(wal);
  pool->set_journal(writer);
  const auto header_bytes = static_cast<std::uint64_t>(wal.tellp());
  it.setup_s = seconds_since(setup_start);

  // --- The script ---
  const std::uint64_t fragments = blocks * kFragmentsPerBlock;
  std::array<int, 4> steps_of_kind{};
  RegistryDelta registry;
  const std::int64_t script_start = now_ns();
  for (const Step& step : script) {
    const auto before = occupancy(*pool);
    const auto kind = static_cast<std::size_t>(step.kind);
    ScopedSpan span(log, kStepSpan[kind]);
    const std::int64_t t0 = now_ns();
    ++report.attempted;
    try {
      switch (step.kind) {
        case StepKind::kAdd:
          pool->add_device({step.uid, step.capacity, ""});
          break;
        case StepKind::kGrow:
          pool->resize_device(step.uid, step.capacity);
          break;
        case StepKind::kRemove:
          pool->remove_device(step.uid);
          break;
        case StepKind::kFailRebuild:
          pool->fail_device(step.uid);
          pool->rebuild();
          break;
      }
    } catch (const std::exception& e) {
      report.fail(std::string(kStepSpan[kind]) + " failed: " + e.what());
    }
    it.step_ms[kind] += static_cast<double>(now_ns() - t0) * 1e-6;
    ++steps_of_kind[kind];
    it.bound += step_bound(before, pool->config(), fragments);
  }
  it.script_s = seconds_since(script_start);
  registry.finish();
  for (std::size_t k = 0; k < 4; ++k) {
    if (steps_of_kind[k] > 0) it.step_ms[k] /= steps_of_kind[k];
  }
  it.moved = registry.counter("rds_migration_fragments_moved_total");
  it.rebuilt = registry.counter("rds_migration_fragments_rebuilt_total");
  std::tie(it.append_count, it.append_ns) =
      registry.histogram("rds_journal_append_latency_ns");
  it.records = writer->last_lsn();
  it.journal_bytes = static_cast<std::uint64_t>(wal.tellp()) - header_bytes;
  check_scrub(*pool, "live", report);

  // --- Recovery from the checkpoint plus the journal ---
  checkpoint.seekg(0);
  wal.seekg(0);
  std::unique_ptr<rds::StoragePool> twin;
  rds::journal::ReplayReport replayed;
  ++report.attempted;
  {
    // recover_pool without a journal loads the checkpoint; replay then
    // applies the journal above its watermark.  Timing the two calls apart
    // gives the snapshot-load and replay shares of recover_s.
    ScopedSpan span(log, "recovery");
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan load(log, "snapshot.load", span.id());
      auto loaded = rds::journal::Recovery::recover_pool(checkpoint, nullptr);
      if (loaded.ok()) {
        replayed = loaded.value().report;
        twin = std::make_unique<rds::StoragePool>(
            std::move(loaded.value().pool));
      }
    }
    it.load_s = seconds_since(t0);
    const std::int64_t t1 = now_ns();
    if (twin != nullptr) {
      ScopedSpan replay(log, "journal.replay", span.id());
      const auto result =
          rds::journal::Recovery::replay(*twin, replayed.watermark, wal);
      if (result.ok()) {
        replayed = result.value();
      } else {
        twin.reset();
      }
    }
    it.replay_s = seconds_since(t1);
  }
  it.recover_s = it.load_s + it.replay_s;
  if (twin == nullptr) {
    report.fail("recovery failed");
    return it;
  }
  if (replayed.tail_corrupt || replayed.records_applied != it.records) {
    report.fail("recovery replayed " +
                std::to_string(replayed.records_applied) + " of " +
                std::to_string(it.records) + " journal records");
  }

  // --- The recovered pool must match the live one ---
  ++report.attempted;
  const auto live_usage = pool->usage();
  const auto twin_usage = twin->usage();
  const bool same_usage = std::equal(
      live_usage.begin(), live_usage.end(), twin_usage.begin(),
      twin_usage.end(), [](const auto& a, const auto& b) {
        return a.device == b.device && a.used == b.used && a.failed == b.failed;
      });
  if (!same_usage) report.fail("recovered pool usage differs from live pool");
  check_scrub(*twin, "recovered", report);
  verify_contents(seed, blocks, *pool, *twin, it, report);
  return it;
}

double ratio(std::uint64_t moved, std::uint64_t rebuilt, double bound) {
  return static_cast<double>(moved + rebuilt) / bound;
}

}  // namespace

void reconfig_layers(std::uint64_t seed, std::uint64_t blocks,
                     bool own_workload, Tracer& tracer, Report& report) {
  SpanLog* log = tracer.new_log(1u << 12);

  // RS(4+2) reconstruction of one lost 1 KiB-block fragment, two lost.
  const rds::ReedSolomonScheme rs(4, 2);
  std::vector<std::uint8_t> data(kBlockBytes);
  fill_payload(seed, 0, 0, data);
  const auto fragments = rs.encode(data);
  std::vector<std::optional<rds::Bytes>> damaged(fragments.begin(),
                                                 fragments.end());
  damaged[0].reset();
  damaged[3].reset();
  std::uint64_t sink = 0;
  const double reconstruct_us =
      1e-3 * per_call_ns(1, 64, 256, log, "storage.reconstruct", [&] {
        sink += rs.reconstruct_fragment(damaged, 0)[sink % 256];
      });
  keep(sink);

  double plain_s = 0.0;
  if (own_workload) {
    const Iteration plain = run_iteration(seed, blocks, nullptr, report);
    plain_s = plain.script_s + plain.recover_s;
  }
  const Iteration it = run_iteration(seed, blocks, log, report);

  report.add("storage.reconstruct_us", reconstruct_us, "us");
  report.add("storage.pool_add_ms", it.step_ms[0], "ms");
  report.add("storage.pool_resize_ms", it.step_ms[1], "ms");
  report.add("storage.pool_remove_ms", it.step_ms[2], "ms");
  report.add("storage.pool_rebuild_ms", it.step_ms[3], "ms");
  report.add("storage.fragments_moved", static_cast<double>(it.moved), "count");
  report.add("storage.fragments_rebuilt", static_cast<double>(it.rebuilt),
             "count");
  report.add("move_ratio", ratio(it.moved, it.rebuilt, it.bound), "ratio");
  report.add("reconfig_s", it.script_s, "s");
  report.add("recover_s", it.recover_s, "s");
  report.add("journal.append_us",
             per(static_cast<double>(it.append_ns) * 1e-3, it.append_count),
             "us");
  report.add("journal.bytes_per_record",
             per(static_cast<double>(it.journal_bytes), it.records), "B");
  report.add("storage.snapshot_save_s", it.save_s, "s");
  report.add("storage.snapshot_load_s", it.load_s, "s");
  report.add("journal.replay_s", it.replay_s, "s");
  report.add("storage.checkpoint_bytes_per_user_byte",
             static_cast<double>(it.checkpoint_bytes) /
                 static_cast<double>(blocks * kVolumes.size() * kBlockBytes),
             "ratio");
  if (own_workload) {
    report.add("tracing_overhead_frac",
               (it.script_s + it.recover_s) / plain_s - 1.0, "ratio");
  }
}

Report run_reconfig(const Args& args, Tracer& tracer) {
  Report report;
  if (args.trace) {
    reconfig_layers(args.seed, kReconfigBlocks, true, tracer, report);
    io_layers(args.seed, kIoProbeBlocks, kProbeSeconds, false, tracer, report);
    lookup_layers(args.seed, kProbeSeconds, false, tracer, report);
    return report;
  }
  // Whole iterations until the time is used, at least three.  Each sets
  // up its own pool and is one window of the end-to-end figures; its
  // throughput is the fragments moved or rebuilt per second of script.
  std::vector<double> setups;
  std::vector<Window> windows;
  const std::int64_t start = now_ns();
  while (windows.size() < 3 || seconds_since(start) < args.seconds) {
    Iteration it = run_iteration(args.seed, kReconfigBlocks, nullptr, report);
    setups.push_back(it.setup_s);
    const Samples& reads = it.read_us;
    const Samples& writes = it.write_us;
    windows.push_back(make_window(
        static_cast<double>(it.moved + it.rebuilt) / it.script_s, {&reads},
        {&writes}));
  }
  add_end_to_end(report, std::move(setups), windows);
  return report;
}

void print_reconfig_script(std::uint64_t seed) {
  const rds::ClusterConfig config = initial_config(seed, kReconfigBlocks);
  for (const auto& d : config.devices()) {
    std::printf("device %llu capacity %llu\n",
                static_cast<unsigned long long>(d.uid),
                static_cast<unsigned long long>(d.capacity));
  }
  for (const Step& step : make_script(seed, kReconfigBlocks)) {
    std::printf("%s %llu %llu\n",
                kStepSpan[static_cast<std::size_t>(step.kind)],
                static_cast<unsigned long long>(step.uid),
                static_cast<unsigned long long>(step.capacity));
  }
}

}  // namespace sb
