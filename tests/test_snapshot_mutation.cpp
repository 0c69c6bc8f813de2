// Byte-mutation matrix for snapshots and checkpoints (docs/persistence.md):
// every offset of a small disk, pool and file-store snapshot and of a pool
// checkpoint is flipped (one bit), zeroed and set to 0xFF, and the stream
// is cut at every length.  Each case must either load and re-save to the
// bytes the intact input re-saves to, or fail with the documented
// runtime_error (Snapshot::load_*) or kCorruption (Recovery::recover_*).
// Any other exception type escapes and fails the test.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/journal/recovery.hpp"
#include "src/storage/snapshot.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig small_config() {
  return ClusterConfig(
      {{1, 400, "a"}, {2, 300, "b"}, {3, 300, "c"}, {4, 200, "d"}});
}

Bytes payload(std::uint64_t block, std::size_t size) {
  Bytes b(size);
  Xoshiro256 rng(block * 29 + 3);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

/// Loads a stream and returns its re-saved bytes, or nullopt when the
/// load failed with the documented error.
using Reload = std::function<std::optional<std::string>(const std::string&)>;

template <typename Load, typename Save>
Reload snapshot_reload(Load load, Save save) {
  return [=](const std::string& bytes) -> std::optional<std::string> {
    std::stringstream in(bytes);
    try {
      auto target = load(in);
      std::stringstream out;
      save(target, out);
      return out.str();
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  };
}

struct Tally {
  std::size_t cases = 0;
  std::size_t unchanged = 0;  ///< the mutation left the byte as it was
  std::size_t failed = 0;     ///< typed failure
};

Tally run_matrix(const std::string& original, const Reload& reload) {
  const std::optional<std::string> baseline = reload(original);
  EXPECT_TRUE(baseline.has_value()) << "the intact input does not load";
  Tally tally;
  const auto check = [&](const std::string& damaged, const std::string& what) {
    ++tally.cases;
    const std::optional<std::string> resaved = reload(damaged);
    if (!resaved) {
      ++tally.failed;
      return;
    }
    // A load is only right when nothing changed.
    EXPECT_EQ(damaged, original) << what << ": damaged bytes loaded";
    EXPECT_EQ(resaved, baseline) << what << ": re-save differs";
    ++tally.unchanged;
  };
  for (std::size_t at = 0; at < original.size(); ++at) {
    const auto byte = static_cast<std::uint8_t>(original[at]);
    const std::uint8_t values[] = {
        static_cast<std::uint8_t>(byte ^ (1u << (at % 8))), 0x00, 0xFF};
    for (const std::uint8_t value : values) {
      std::string damaged = original;
      damaged[at] = static_cast<char>(value);
      check(damaged, "offset " + std::to_string(at) + " = " +
                         std::to_string(value));
    }
  }
  for (std::size_t size = 0; size < original.size(); ++size) {
    check(original.substr(0, size), "cut at " + std::to_string(size));
  }
  EXPECT_EQ(tally.cases, 4 * original.size());
  EXPECT_EQ(tally.failed + tally.unchanged, tally.cases);
  return tally;
}

VirtualDisk small_disk() {
  VirtualDisk disk(small_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 4; ++b) disk.write(b, payload(b, 16));
  disk.fail_device(4);
  return disk;
}

StoragePool small_pool() {
  StoragePool pool(small_config());
  pool.create_volume("m", std::make_shared<MirroringScheme>(2));
  pool.create_volume("r", std::make_shared<ReedSolomonScheme>(2, 1));
  for (std::uint64_t b = 0; b < 3; ++b) {
    pool.volume("m").write(b, payload(b, 12));
    pool.volume("r").write(b, payload(b + 10, 12));
  }
  return pool;
}

TEST(SnapshotMutation, DiskSnapshot) {
  std::stringstream out;
  Snapshot::save_disk(small_disk(), out);
  run_matrix(out.str(), snapshot_reload(
                            [](std::istream& in) {
                              return Snapshot::load_disk(in);
                            },
                            [](const VirtualDisk& disk, std::ostream& os) {
                              Snapshot::save_disk(disk, os);
                            }));
}

TEST(SnapshotMutation, PoolSnapshot) {
  std::stringstream out;
  Snapshot::save_pool(small_pool(), out);
  run_matrix(out.str(), snapshot_reload(
                            [](std::istream& in) {
                              return Snapshot::load_pool(in);
                            },
                            [](const StoragePool& pool, std::ostream& os) {
                              Snapshot::save_pool(pool, os);
                            }));
}

TEST(SnapshotMutation, FileStoreSnapshot) {
  FileStore store(
      VirtualDisk(small_config(), std::make_shared<MirroringScheme>(2)), 16);
  store.put("one", payload(1, 20));
  store.put("two", payload(2, 9));
  store.put("gone", payload(3, 16));
  store.remove("gone");  // leaves a free list
  std::stringstream out;
  Snapshot::save_file_store(store, out);
  run_matrix(out.str(), snapshot_reload(
                            [](std::istream& in) {
                              return Snapshot::load_file_store(in);
                            },
                            [](const FileStore& fs, std::ostream& os) {
                              Snapshot::save_file_store(fs, os);
                            }));
}

TEST(SnapshotMutation, PoolCheckpoint) {
  std::stringstream out;
  journal::write_checkpoint(small_pool(), 5, out);
  run_matrix(out.str(), [](const std::string& bytes)
                            -> std::optional<std::string> {
    std::stringstream in(bytes);
    auto recovered = journal::Recovery::recover_pool(in, nullptr);
    if (!recovered.ok()) {
      EXPECT_EQ(recovered.error().code, ErrorCode::kCorruption)
          << recovered.error().message;
      return std::nullopt;
    }
    std::stringstream resaved;
    journal::write_checkpoint(recovered.value().pool,
                              recovered.value().report.watermark, resaved);
    return resaved.str();
  });
}

}  // namespace
}  // namespace rds
