// io_mirror: the foreground block data path.  One VirtualDisk over twelve
// heterogeneous devices (capacities 1:2:3:4), mirror k=3 and the default
// Redundant Share; pre-written 4 KiB blocks; closed-loop clients doing 80 %
// reads and 20 % overwrites with Zipf-0.9 block popularity.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/device_store.hpp"
#include "src/storage/redundancy_scheme.hpp"
#include "src/storage/virtual_disk.hpp"
#include "storagebench/common.hpp"
#include "storagebench/layers.hpp"

namespace sb {
namespace {

constexpr std::size_t kBlockBytes = 4096;
constexpr unsigned kCopies = 3;
constexpr double kZipfSkew = 0.9;
constexpr double kReadShare = 0.8;
constexpr std::uint64_t kSingleClientOps = 20000;

rds::ClusterConfig io_config(std::uint64_t blocks) {
  // Capacity in fragments: the smallest device alone could hold every
  // block once, so the 1:2:3:4 pattern is far from full.
  std::vector<rds::Device> devices;
  for (rds::DeviceId uid = 0; uid < 12; ++uid) {
    devices.push_back({uid, blocks * (1 + uid % 4), ""});
  }
  return rds::ClusterConfig(std::move(devices));
}

/// The disk plus what the benchmark needs to verify it: the version of
/// every block and a seeded rank -> block permutation so hot blocks are
/// spread over the address space.
struct IoState {
  std::uint64_t seed = 0;
  std::unique_ptr<rds::VirtualDisk> disk;
  std::vector<std::uint64_t> block_of_rank;
  std::unique_ptr<std::atomic<std::uint64_t>[]> versions;
  Zipf zipf;

  IoState(std::uint64_t s, std::uint64_t blocks)
      : seed(s),
        block_of_rank(blocks),
        versions(new std::atomic<std::uint64_t>[blocks]),
        zipf(blocks, kZipfSkew) {}
};

/// Builds and pre-writes the disk (version 0 of every block).
std::unique_ptr<IoState> make_io_state(std::uint64_t seed,
                                       std::uint64_t blocks, Report& report) {
  auto state = std::make_unique<IoState>(seed, blocks);
  state->disk = std::make_unique<rds::VirtualDisk>(
      io_config(blocks), std::make_shared<rds::MirroringScheme>(kCopies));
  Rng rng(seed ^ 0x10);
  for (std::uint64_t r = 0; r < blocks; ++r) state->block_of_rank[r] = r;
  for (std::uint64_t r = blocks; r > 1; --r) {
    std::swap(state->block_of_rank[r - 1], state->block_of_rank[rng.below(r)]);
  }
  std::vector<std::uint8_t> buf(kBlockBytes);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    state->versions[b].store(0, std::memory_order_relaxed);
    fill_payload(seed, b, 0, buf);
    ++report.attempted;
    if (!state->disk->try_write(b, buf).ok()) report.fail("pre-write failed");
  }
  return state;
}

struct ClientResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  std::uint64_t read_allocs = 0;
  std::uint64_t write_allocs = 0;
  Samples read_us{1u << 16};
  Samples write_us{1u << 15};
  std::string first_error;
};

/// One closed-loop client.  Client c overwrites only blocks whose
/// popularity rank is c modulo `clients`, so every block has one writer
/// and a read can be checked against the versions around it.
void client_loop(IoState& state, unsigned c, unsigned clients,
                 std::int64_t deadline_ns, std::uint64_t max_ops,
                 const std::atomic<bool>& go, SpanLog* log,
                 ClientResult& out) {
  const std::uint64_t n = state.block_of_rank.size();
  Rng rng(mix64(state.seed) ^ (0x1000 + c));
  std::vector<std::uint8_t> write_buf(kBlockBytes);
  std::vector<std::uint8_t> expect(kBlockBytes);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (now_ns() < deadline_ns && out.reads + out.writes < max_ops) {
    const std::uint64_t request = new_request(log);
    std::uint64_t rank = state.zipf.sample(rng);
    if (rng.unit() < kReadShare) {
      const std::uint64_t block = state.block_of_rank[rank];
      const std::uint64_t v1 =
          state.versions[block].load(std::memory_order_acquire);
      const std::uint64_t allocs = thread_allocs();
      const std::int64_t t0 = now_ns();
      auto data = [&] {
        ScopedSpan span(log, "io.read", 0, request);
        return state.disk->try_read(block);
      }();
      const std::int64_t t1 = now_ns();
      out.read_allocs += thread_allocs() - allocs;
      const std::uint64_t v2 =
          state.versions[block].load(std::memory_order_acquire);
      ++out.reads;
      out.read_us.add(static_cast<double>(t1 - t0) * 1e-3);
      bool match = false;
      if (data.ok() && data.value().size() == kBlockBytes) {
        for (std::uint64_t v = v1; v <= v2 + 1 && !match; ++v) {
          fill_payload(state.seed, block, v, expect);
          match = data.value() == expect;
        }
      }
      if (!match) {
        ++out.failed;
        if (out.first_error.empty()) {
          out.first_error = "read of block " + std::to_string(block) +
                            (data.ok() ? " returned stale or wrong bytes"
                                       : ": " + data.error().message);
        }
      }
    } else {
      rank = rank - rank % clients + c;
      if (rank >= n) rank -= clients;
      const std::uint64_t block = state.block_of_rank[rank];
      const std::uint64_t v =
          state.versions[block].load(std::memory_order_relaxed) + 1;
      fill_payload(state.seed, block, v, write_buf);
      const std::uint64_t allocs = thread_allocs();
      const std::int64_t t0 = now_ns();
      const bool ok = [&] {
        ScopedSpan span(log, "io.write", 0, request);
        return state.disk->try_write(block, write_buf).ok();
      }();
      const std::int64_t t1 = now_ns();
      out.write_allocs += thread_allocs() - allocs;
      ++out.writes;
      out.write_us.add(static_cast<double>(t1 - t0) * 1e-3);
      if (ok) {
        state.versions[block].store(v, std::memory_order_release);
      } else {
        ++out.failed;
        if (out.first_error.empty()) {
          out.first_error = "write of block " + std::to_string(block) +
                            " failed";
        }
      }
    }
  }
}

struct PhaseResult {
  std::vector<ClientResult> clients;
  double elapsed_s = 0.0;

  [[nodiscard]] std::uint64_t ops() const {
    std::uint64_t total = 0;
    for (const auto& c : clients) total += c.reads + c.writes;
    return total;
  }
  [[nodiscard]] double ops_per_s() const {
    return static_cast<double>(ops()) / elapsed_s;
  }
  [[nodiscard]] std::vector<const Samples*> read_us() const {
    std::vector<const Samples*> out;
    for (const auto& c : clients) out.push_back(&c.read_us);
    return out;
  }
  [[nodiscard]] std::vector<const Samples*> write_us() const {
    std::vector<const Samples*> out;
    for (const auto& c : clients) out.push_back(&c.write_us);
    return out;
  }
};

/// Runs `clients` closed-loop clients for `seconds` (or until each has
/// done `max_ops` operations) and folds their failures into the report.
PhaseResult run_clients(IoState& state, unsigned clients, double seconds,
                        Tracer* tracer, Report& report,
                        std::uint64_t max_ops = UINT64_MAX) {
  PhaseResult result;
  result.clients.resize(clients);
  std::vector<SpanLog*> logs(clients, nullptr);
  if (tracer != nullptr) {
    for (auto& log : logs) log = tracer->new_log(1u << 19);
  }
  std::atomic<bool> go{false};
  const std::int64_t start = now_ns() + 2'000'000;  // threads are parked
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(state, c, clients, deadline, max_ops, go, logs[c],
                    result.clients[c]);
      });
    }
    while (now_ns() < start) std::this_thread::yield();
    go.store(true, std::memory_order_release);
  }
  result.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  for (const auto& c : result.clients) {
    report.attempted += c.reads + c.writes;
    for (std::uint64_t i = 0; i < c.failed; ++i) {
      report.fail(c.first_error.empty() ? "io failure" : c.first_error);
    }
  }
  return result;
}

}  // namespace

void io_layers(std::uint64_t seed, std::uint64_t blocks, double seconds,
               bool own_workload, Tracer& tracer, Report& report) {
  const auto owned = make_io_state(seed, blocks, report);
  IoState& state = *owned;

  // One client, traced, a fixed number of operations straight after the
  // single-threaded set-up: the op times feed the residuals, and the
  // allocation counts repeat exactly for a given seed.
  const PhaseResult single =
      run_clients(state, 1, 3600.0, &tracer, report, kSingleClientOps);
  const ClientResult& one = single.clients[0];
  run_clients(state, 2, 0.3, nullptr, report);  // warm-up
  SpanLog* log = tracer.new_log(1u << 16);

  // Codec, placement and fragment store, each called on its own.
  const rds::MirroringScheme scheme(kCopies);
  std::vector<std::uint8_t> data(kBlockBytes);
  fill_payload(seed, 0, 0, data);
  const auto fragments = scheme.encode(data);
  const std::vector<std::optional<rds::Bytes>> present(fragments.begin(),
                                                       fragments.end());
  std::uint64_t sink = 0;
  const double encode_us =
      1e-3 * per_call_ns(1, 64, 256, log, "storage.encode", [&] {
        sink += scheme.encode(data)[0][7];
      });
  const double decode_us =
      1e-3 * per_call_ns(1, 64, 256, log, "storage.decode", [&] {
        sink += scheme.decode(present, kBlockBytes)[9];
      });
  std::array<rds::DeviceId, kCopies> where{};
  std::uint64_t address = 0;
  const double place_us =
      1e-3 * per_call_ns(1, 64, 256, log, "storage.place", [&] {
        if (state.disk->try_copy_locations(address++ % blocks, where).ok()) {
          sink += where[0];
        }
      });
  rds::DeviceStore store({0, 1u << 20, "probe"});
  std::uint32_t key = 0;
  const double store_write_us =
      1e-3 * per_call_ns(1, 64, 256, log, "storage.store_write", [&] {
        store.write({key++ % 4096, 0, 0}, fragments[0]);
      });
  const double store_read_us =
      1e-3 * per_call_ns(1, 64, 256, log, "storage.store_read", [&] {
        const auto got = store.read({key++ % 4096, 0, 0});
        sink += got ? (*got)[3] : 1;
      });
  keep(sink);

  const double write_us = quantile(single.write_us(), 0.5);
  const double read_us = quantile(single.read_us(), 0.5);
  const double w_unattributed =
      write_us - (encode_us + place_us + kCopies * store_write_us);
  const double r_unattributed =
      read_us - (place_us + kCopies * store_read_us + decode_us);

  // Two clients: untraced, then traced -- the difference is the tracing
  // overhead; the traced phase gives the contention figures.
  RegistryDelta registry;
  PhaseResult plain = run_clients(state, 2, seconds * 0.4, nullptr, report);
  PhaseResult traced = run_clients(state, 2, seconds * 0.4, &tracer, report);
  registry.finish();
  const std::uint64_t reads = plain.clients[0].reads +
                              plain.clients[1].reads +
                              traced.clients[0].reads + traced.clients[1].reads;
  const double ops0 = static_cast<double>(traced.clients[0].reads +
                                          traced.clients[0].writes);
  const double ops1 = static_cast<double>(traced.clients[1].reads +
                                          traced.clients[1].writes);

  report.add("storage.encode_us", encode_us, "us");
  report.add("storage.decode_us", decode_us, "us");
  report.add("storage.place_us", place_us, "us");
  report.add("storage.store_write_us", store_write_us, "us");
  report.add("storage.store_read_us", store_read_us, "us");
  report.add("storage.unattributed_write_us", w_unattributed, "us");
  report.add("storage.unattributed_read_us", r_unattributed, "us");
  report.add("storage.allocs_per_write",
             per(static_cast<double>(one.write_allocs), one.writes), "count");
  report.add("storage.allocs_per_read",
             per(static_cast<double>(one.read_allocs), one.reads), "count");
  report.add("storage.read_p999_us", quantile(traced.read_us(), 0.999), "us");
  report.add("storage.write_p99_us", quantile(traced.write_us(), 0.99), "us");
  report.add("storage.client_ops_min_over_max",
             std::min(ops0, ops1) / std::max(ops0, ops1), "ratio");
  const std::uint64_t counted = registry.counter("rds_storage_reads_total");
  const std::uint64_t degraded =
      registry.counter("rds_storage_degraded_reads_total");
  const std::uint64_t checksum =
      registry.counter("rds_storage_checksum_failures_total");
  report.add("storage.registry_reads", static_cast<double>(counted), "count");
  report.add("storage.registry_degraded_reads", static_cast<double>(degraded),
             "count");
  report.add("storage.registry_checksum_failures",
             static_cast<double>(checksum), "count");
  if (counted != reads) report.fail("rds_storage_reads_total != reads issued");
  if (degraded != 0) report.fail("degraded reads on a healthy disk");
  if (checksum != 0) report.fail("checksum failures on a healthy disk");
  if (own_workload) {
    report.add("tracing_overhead_frac",
               plain.ops_per_s() / traced.ops_per_s() - 1.0, "ratio");
  }
}

Report run_io_mirror(const Args& args, Tracer& tracer) {
  Report report;
  if (args.trace) {
    io_layers(args.seed, kIoBlocks, args.seconds, true, tracer, report);
    lookup_layers(args.seed, kProbeSeconds, false, tracer, report);
    reconfig_layers(args.seed, kReconfigProbeBlocks, false, tracer, report);
    return report;
  }
  // Set up five times; the median is setup_s.  Only the last disk is kept.
  std::vector<double> setups;
  std::unique_ptr<IoState> state;
  for (int i = 0; i < 5; ++i) {
    state.reset();
    const std::int64_t t0 = now_ns();
    state = make_io_state(args.seed, kIoBlocks, report);
    setups.push_back(seconds_since(t0));
  }
  run_clients(*state, 2, 0.5, nullptr, report);  // warm-up
  // One-second windows.
  std::vector<Window> windows;
  for (double done = 0.0; done < args.seconds; done += 1.0) {
    const PhaseResult run = run_clients(*state, 2, 1.0, nullptr, report);
    windows.push_back(
        make_window(run.ops_per_s(), run.read_us(), run.write_us()));
  }
  add_end_to_end(report, std::move(setups), windows);
  return report;
}

}  // namespace sb
