// Block I/O under real concurrency: reads share a disk's lock with each
// other and wait only for writers, and the volumes of one StoragePool do
// I/O at the same time on the DeviceStores they share.  The suite name
// matches the ThreadSanitizer CI job's filter, which checks the dynamic
// side of the lock discipline the Clang analysis proves statically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "src/storage/snapshot.hpp"
#include "src/storage/storage_pool.hpp"
#include "src/storage/virtual_disk.hpp"

namespace rds {
namespace {

ClusterConfig devices() {
  std::vector<Device> d;
  for (DeviceId uid = 1; uid <= 8; ++uid) d.push_back({uid, 4000, ""});
  return ClusterConfig(std::move(d));
}

/// Self-describing payload: every byte derives from (block, version), so a
/// reader can tell a whole version from a mix of two.
Bytes payload(std::uint64_t block, std::uint64_t version) {
  Bytes b(192);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(block * 31 + version * 7 + i);
  }
  return b;
}

/// True when `got` is payload(block, v) for some v <= max_version.
bool is_whole_version(const Bytes& got, std::uint64_t block,
                      std::uint64_t max_version) {
  for (std::uint64_t v = 0; v <= max_version; ++v) {
    if (got == payload(block, v)) return true;
  }
  return false;
}

TEST(StorageConcurrency, OneWriterAndThreeReadersShareADisk) {
  VirtualDisk disk(devices(), std::make_shared<MirroringScheme>(3));
  constexpr std::uint64_t kBlocks = 64;
  constexpr std::uint64_t kVersions = 12;
  for (std::uint64_t b = 0; b < kBlocks; ++b) disk.write(b, payload(b, 0));

  constexpr int kReaders = 3;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t b = static_cast<std::uint64_t>(r);
      // Until the writer is done, and at least a few reads each.
      for (int n = 0; n < 64 || !done.load(std::memory_order_acquire); ++n) {
        b = (b + 5) % kBlocks;
        const Result<Bytes> got = disk.try_read(b);
        if (!got.ok() || !is_whole_version(got.value(), b, kVersions)) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (started.load(std::memory_order_relaxed) < kReaders) {
    std::this_thread::yield();
  }
  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_TRUE(disk.try_write(b, payload(b, v)).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(std::memory_order_seq_cst), 0);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(disk.read(b), payload(b, kVersions));
  }
  EXPECT_EQ(disk.stats().degraded_reads, 0u);
  EXPECT_EQ(disk.stats().checksum_failures, 0u);
}

TEST(StorageConcurrency, PoolVolumesDoIoConcurrently) {
  // Each volume holds only its own disk lock; the device stores they share
  // serialize themselves.  A snapshot walks those stores at the same time.
  StoragePool pool(devices());
  VirtualDisk& a =
      pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b =
      pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
  constexpr std::uint64_t kBlocks = 48;
  constexpr std::uint64_t kVersions = 8;

  std::atomic<int> failures{0};
  const auto drive = [&](VirtualDisk& disk) {
    for (std::uint64_t v = 0; v <= kVersions; ++v) {
      for (std::uint64_t blk = 0; blk < kBlocks; ++blk) {
        // One thread per volume: a read returns exactly what it wrote.
        const bool written = disk.try_write(blk, payload(blk, v)).ok();
        const Result<Bytes> got = disk.try_read(blk);
        if (!written || !got.ok() || got.value() != payload(blk, v)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::thread ta([&] { drive(a); });
  std::thread tb([&] { drive(b); });
  for (int i = 0; i < 4; ++i) {
    std::stringstream out;
    Snapshot::save_pool(pool, out);
    EXPECT_FALSE(out.str().empty());
  }
  ta.join();
  tb.join();

  EXPECT_EQ(failures.load(std::memory_order_seq_cst), 0);
  for (std::uint64_t blk = 0; blk < kBlocks; ++blk) {
    EXPECT_EQ(a.read(blk), payload(blk, kVersions));
    EXPECT_EQ(b.read(blk), payload(blk, kVersions));
  }
  EXPECT_TRUE(a.scrub().clean());
  EXPECT_TRUE(b.scrub().clean());
  std::uint64_t used = 0;
  for (const StoragePool::DeviceUsage& u : pool.usage()) used += u.used;
  EXPECT_EQ(used, kBlocks * 2 + kBlocks * 5);
}

}  // namespace
}  // namespace rds
