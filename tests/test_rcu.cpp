// RcuCell's thread-cached read side (src/util/rcu.hpp) and the placement
// lookups built on it: a reader that synchronized with a publisher sees the
// publish, the versions one thread sees never go backwards, nested guards
// survive slot collisions, retired epochs outlive their disk only in the
// caches that hold them, and moves never alias cache entries.
#include "src/util/rcu.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/storage/virtual_disk.hpp"

namespace rds {
namespace {

struct Box {
  std::uint64_t value = 0;
};

std::shared_ptr<const Box> box(std::uint64_t value) {
  return std::make_shared<const Box>(Box{value});
}

ClusterConfig pool(std::uint64_t devices) {
  std::vector<Device> out;
  for (DeviceId uid = 1; uid <= devices; ++uid) {
    const std::string id = std::to_string(uid);
    out.push_back({uid, 700 + 100 * uid, "d" + id});
  }
  return ClusterConfig(std::move(out));
}

VirtualDisk make_disk(std::uint64_t devices) {
  return VirtualDisk(pool(devices), std::make_shared<MirroringScheme>(2),
                     PlacementKind::kFastRedundantShare);
}

TEST(RcuCell, ReadServesTheCurrentSnapshot) {
  RcuCell<Box> cell(box(1));
  EXPECT_EQ(cell.read()->value, 1u);
  EXPECT_EQ(cell.read()->value, 1u);  // a cache hit
  // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
  // std::atomic op: the cell synchronizes under its own mutex.
  cell.store(box(2));
  EXPECT_EQ(cell.read()->value, 2u);  // the publish forces a miss
  // rds_lint: allow(atomic-memory-order) -- RcuCell::exchange, not a
  // std::atomic op: the cell synchronizes under its own mutex.
  const std::shared_ptr<const Box> old = cell.exchange(box(3));
  EXPECT_EQ(old->value, 2u);
  EXPECT_EQ(cell.read()->value, 3u);
  // rds_lint: allow(atomic-memory-order) -- RcuCell::load, not a
  // std::atomic op: the cell synchronizes under its own mutex.
  EXPECT_EQ(cell.load()->value, 3u);
  EXPECT_FALSE(RcuCell<Box>().read());
}

// A publish that happens-before a read (here through an acquire/release
// handshake) must be visible to that read, never a cached older snapshot.
TEST(RcuConcurrency, ReaderSynchronizedWithPublisherSeesTheNewSnapshot) {
  RcuCell<Box> cell(box(0));
  constexpr std::uint64_t kRounds = 2000;
  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<int> stale{0};
  std::thread reader([&] {
    for (std::uint64_t i = 1; i <= kRounds; ++i) {
      // Warm the cache with the previous snapshot before the publish.
      if (cell.read()->value != i - 1) {
        stale.fetch_add(1, std::memory_order_seq_cst);
      }
      acked.store(i, std::memory_order_release);
      while (published.load(std::memory_order_acquire) < i) {
        std::this_thread::yield();
      }
      if (cell.read()->value != i) {
        stale.fetch_add(1, std::memory_order_seq_cst);
      }
    }
  });
  for (std::uint64_t i = 1; i <= kRounds; ++i) {
    while (acked.load(std::memory_order_acquire) < i) {
      std::this_thread::yield();
    }
    // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
    // std::atomic op: the cell synchronizes under its own mutex.
    cell.store(box(i));
    published.store(i, std::memory_order_release);
  }
  reader.join();
  EXPECT_EQ(stale.load(std::memory_order_seq_cst), 0);
}

TEST(RcuConcurrency, SnapshotsSeenByOneThreadNeverGoBackwards) {
  RcuCell<Box> cell(box(0));
  constexpr int kReaders = 3;
  constexpr std::uint64_t kPublishes = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> backwards{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto guard = cell.read();
        if (guard->value < last) {
          backwards.fetch_add(1, std::memory_order_seq_cst);
        }
        last = guard->value;
      }
    });
  }
  // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
  // std::atomic op: the cell synchronizes under its own mutex.
  for (std::uint64_t i = 1; i <= kPublishes; ++i) cell.store(box(i));
  stop.store(true, std::memory_order_seq_cst);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(backwards.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(cell.read()->value, kPublishes);
}

TEST(RcuConcurrency, PlacementEpochsSeenByOneThreadNeverGoBackwards) {
  VirtualDisk disk = make_disk(6);
  constexpr int kReaders = 3;
  constexpr int kResizes = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t address = static_cast<std::uint64_t>(r) << 40;
      std::uint64_t last = 0;
      DeviceId where[2] = {kNoDevice, kNoDevice};
      while (!stop.load(std::memory_order_relaxed)) {
        const Result<std::uint64_t> epoch =
            disk.try_copy_locations(address++, where);
        if (!epoch.ok() || epoch.value() < last || where[0] == where[1]) {
          failures.fetch_add(1, std::memory_order_seq_cst);
          continue;
        }
        last = epoch.value();
      }
    });
  }
  for (int i = 0; i < kResizes; ++i) {
    ASSERT_TRUE(disk.try_resize_device(1 + i % 6, 900 + 50 * (i % 5)).ok());
  }
  stop.store(true, std::memory_order_seq_cst);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(std::memory_order_seq_cst), 0);
}

/// Takes a guard on cells[c], then recurses with it alive, so the guards
/// on cells[0..c] are nested scopes; the innermost call runs `check`.
template <typename F>
void with_nested_guards(
    const std::vector<std::unique_ptr<RcuCell<Box>>>& cells, std::size_t c,
    std::vector<const RcuCell<Box>::ReadGuard*>& guards, const F& check) {
  if (c == cells.size()) {
    check();
    return;
  }
  const auto guard = cells[c]->read();
  guards.push_back(&guard);
  with_nested_guards(cells, c + 1, guards, check);
  guards.pop_back();
}

// kCacheSlots + 1 cells put two of them in one slot whatever their ids.
// With a guard alive on every cell, each must keep serving its own
// snapshot -- including after the cells publish successors, which drops
// every reference to the old snapshots except the guards' own (so a
// refilled pinned slot would be a use-after-free under ASan).
TEST(RcuCell, NestedGuardsOnCollidingCellsStayValid) {
  constexpr std::size_t kCells = RcuCell<Box>::kCacheSlots + 1;
  std::vector<std::unique_ptr<RcuCell<Box>>> cells;
  for (std::size_t c = 0; c < kCells; ++c) {
    cells.push_back(std::make_unique<RcuCell<Box>>(box(c)));
  }
  std::vector<const RcuCell<Box>::ReadGuard*> guards;
  with_nested_guards(cells, 0, guards, [&] {
    ASSERT_EQ(guards.size(), kCells);
    // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
    // std::atomic op: the cell synchronizes under its own mutex.
    for (std::size_t c = 0; c < kCells; ++c) cells[c]->store(box(100 + c));
    for (std::size_t c = 0; c < kCells; ++c) {
      // A nested read of the same cell sees the new snapshot; the outer
      // guard still sees the one it took.
      const auto inner = cells[c]->read();
      EXPECT_EQ(inner->value, 100 + c);
      EXPECT_EQ((*guards[c])->value, c);
    }
    for (std::size_t c = 0; c < kCells; ++c) {
      EXPECT_EQ((*guards[c])->value, c);
    }
  });
  for (std::size_t c = 0; c < kCells; ++c) {
    EXPECT_EQ(cells[c]->read()->value, 100 + c);
  }
}

TEST(RcuCell, NestedGuardsOnOneCellShareTheSlot) {
  RcuCell<Box> cell(box(5));
  const auto outer = cell.read();
  {
    const auto inner = cell.read();
    EXPECT_EQ(inner.get(), outer.get());
  }
  EXPECT_EQ(outer->value, 5u);
}

// Another thread's cache keeps the destroyed disk's last epoch alive -- and
// only until that thread reads again through the slot or exits.  Under
// ASan this is also the use-after-free check for the retained epoch.
TEST(RcuConcurrency, DiskDestroyedWhileAnotherThreadCachesItsEpoch) {
  auto disk = std::make_unique<VirtualDisk>(make_disk(5));
  std::weak_ptr<const PlacementEpoch> epoch = disk->placement_snapshot();
  std::atomic<int> stage{0};
  std::atomic<std::uint64_t> seen{0};
  std::thread reader([&] {
    DeviceId where[2] = {kNoDevice, kNoDevice};
    seen.store(disk->place(42, where), std::memory_order_relaxed);
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) std::this_thread::yield();
    // The disk is gone; placing on other disks must not touch its epoch.
    VirtualDisk other = make_disk(4);
    for (std::uint64_t a = 0; a < 64; ++a) other.place(a, where);
  });
  while (stage.load(std::memory_order_acquire) < 1) std::this_thread::yield();
  EXPECT_EQ(seen.load(std::memory_order_relaxed), epoch.lock()->epoch);
  disk.reset();
  EXPECT_FALSE(epoch.expired());  // held by the reader's cache slot
  stage.store(2, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(epoch.expired());  // released at thread exit
}

TEST(RcuCell, MoveConstructedCellDoesNotAliasItsSource) {
  RcuCell<Box> source(box(1));
  EXPECT_EQ(source.read()->value, 1u);  // caches the source's entry
  RcuCell<Box> moved(std::move(source));
  EXPECT_EQ(moved.read()->value, 1u);
  // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
  // std::atomic op: the cell synchronizes under its own mutex.
  moved.store(box(2));
  EXPECT_EQ(moved.read()->value, 2u);
}

TEST(RcuCell, MoveAssignedCellDropsItsOwnCachedEntry) {
  RcuCell<Box> source(box(1));
  RcuCell<Box> target(box(7));
  EXPECT_EQ(source.read()->value, 1u);
  EXPECT_EQ(target.read()->value, 7u);  // cached under target's own id
  target = std::move(source);
  EXPECT_EQ(target.read()->value, 1u);
  // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
  // std::atomic op: the cell synchronizes under its own mutex.
  target.store(box(3));
  EXPECT_EQ(target.read()->value, 3u);
}

TEST(RcuCell, MovedDiskPlacesAgainstItsOwnEpochs) {
  VirtualDisk first = make_disk(5);
  DeviceId where[2] = {kNoDevice, kNoDevice};
  const std::uint64_t before = first.place(9, where);
  VirtualDisk second(std::move(first));
  ASSERT_TRUE(second.apply_config(pool(7)).ok());
  const std::uint64_t after = second.place(9, where);
  EXPECT_GT(after, before);
  EXPECT_EQ(after, second.placement_snapshot()->epoch);
}

}  // namespace
}  // namespace rds
