#include "src/storage/snapshot.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/util/random.hpp"
#include "tests/frame_edit.hpp"

namespace rds {
namespace {

using test::edit_frame;
using test::kSnapshotBody;
using test::load_error;

ClusterConfig pool_config() {
  return ClusterConfig({{1, 3000, "a"},
                        {2, 2500, "b"},
                        {3, 2000, "c"},
                        {4, 1500, "d"},
                        {5, 1000, "e"},
                        {6, 1000, "f"}});
}

Bytes payload(std::uint64_t block, std::uint64_t salt) {
  Bytes b(80);
  Xoshiro256 rng(block * 17 + salt);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(SchemeFactory, RoundTripsEveryScheme) {
  for (const auto& name :
       {std::string("mirror(k=3)"), std::string("reed-solomon(4+2)"),
        std::string("reed-solomon(5+2)"), std::string("reed-solomon(6+2)")}) {
    const auto scheme = make_scheme_from_name(name);
    EXPECT_EQ(scheme->name(), name);
  }
  EXPECT_THROW((void)make_scheme_from_name("raid0"), std::invalid_argument);
  EXPECT_THROW((void)make_scheme_from_name("mirror(k=x)"),
               std::invalid_argument);
}

TEST(Snapshot, DiskRoundTrip) {
  VirtualDisk disk(pool_config(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 200; ++b) disk.write(b, payload(b, 1));

  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);

  EXPECT_EQ(restored.block_count(), 200u);
  EXPECT_EQ(restored.scheme().name(), "reed-solomon(3+2)");
  EXPECT_TRUE(restored.config() == disk.config());
  for (std::uint64_t b = 0; b < 200; ++b) {
    EXPECT_EQ(restored.read(b), payload(b, 1));
  }
  EXPECT_TRUE(restored.scrub().clean());
  // The restored disk is fully operational: reshape and rebuild work.
  restored.add_device({9, 4000, "post-restore"});
  EXPECT_EQ(restored.read(7), payload(7, 1));
}

TEST(Snapshot, TablesLargerThanOneFrameRoundTrip) {
  // 4,100 blocks and 8,200 checksums: both tables span several frames.
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  const Bytes small = {1, 2, 3};
  for (std::uint64_t b = 0; b < 4100; ++b) disk.write(b, small);

  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);
  EXPECT_EQ(restored.block_count(), 4100u);
  EXPECT_EQ(restored.read(4099), small);
  EXPECT_TRUE(restored.scrub().clean());
}

TEST(Snapshot, DegradedStateSurvivesRoundTrip) {
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 100; ++b) disk.write(b, payload(b, 2));
  disk.fail_device(2);

  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);

  // Still degraded after restore; rebuild heals it.
  EXPECT_FALSE(restored.scrub().clean());
  EXPECT_GT(restored.rebuild(), 0u);
  for (std::uint64_t b = 0; b < 100; ++b) {
    EXPECT_EQ(restored.read(b), payload(b, 2));
  }
  EXPECT_TRUE(restored.scrub().clean());
}

TEST(Snapshot, ChecksumsSurviveRoundTrip) {
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(3));
  disk.write(5, payload(5, 3));
  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);
  // Corrupt one restored fragment: the restored checksums must catch it.
  ASSERT_TRUE(restored.corrupt_fragment(5, 0));
  EXPECT_EQ(restored.read(5), payload(5, 3));
  EXPECT_EQ(restored.stats().checksum_failures, 1u);
}

TEST(Snapshot, PoolRoundTrip) {
  StoragePool pool(pool_config());
  pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t blk = 0; blk < 120; ++blk) {
    pool.volume("a").write(blk, payload(blk, 10));
    pool.volume("b").write(blk, payload(blk, 20));
  }

  std::stringstream stream;
  Snapshot::save_pool(pool, stream);
  StoragePool restored = Snapshot::load_pool(stream);

  EXPECT_EQ(restored.volume_count(), 2u);
  for (std::uint64_t blk = 0; blk < 120; ++blk) {
    EXPECT_EQ(restored.volume("a").read(blk), payload(blk, 10));
    EXPECT_EQ(restored.volume("b").read(blk), payload(blk, 20));
  }
  EXPECT_TRUE(restored.volume("a").scrub().clean());
  EXPECT_TRUE(restored.volume("b").scrub().clean());

  // Volumes still share stores: pool-wide failure degrades both.
  restored.fail_device(1);
  EXPECT_GT(restored.rebuild(), 0u);
  EXPECT_EQ(restored.volume("a").read(3), payload(3, 10));
  // New volumes get fresh ids (the counter was persisted).
  VirtualDisk& c =
      restored.create_volume("c", std::make_shared<MirroringScheme>(2));
  EXPECT_NE(c.volume_id(), restored.volume("a").volume_id());
  EXPECT_NE(c.volume_id(), restored.volume("b").volume_id());
}

TEST(Snapshot, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW((void)Snapshot::load_disk(empty), std::runtime_error);
  std::stringstream wrong("POOLRDS1xxxxxxxxxxxxxxxx");
  EXPECT_THROW((void)Snapshot::load_disk(wrong), std::runtime_error);

  // Truncated stream: valid header, missing body.
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  disk.write(1, payload(1, 1));
  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)Snapshot::load_disk(truncated), std::runtime_error);
}

TEST(Snapshot, RejectsUnknownPlacementKind) {
  // The volume frame of an empty disk holds the only copy of the scheme
  // name and opens with the kind byte: kind, u32 volume id, u32 name
  // length, name.  Each edit is re-sealed so it reaches the kind check;
  // unsealed, the frame checksum stops it first.
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  const std::string full = stream.str();
  const auto load = [](std::istream& in) { return Snapshot::load_disk(in); };
  // 4 was the removed precomputed kind: its byte must not load as any
  // other kind (their placements differ), so it is as unknown as 6.
  for (const std::uint8_t bad : {std::uint8_t{4}, std::uint8_t{6},
                                 std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    SCOPED_TRACE(int{bad});
    const auto set_kind = [&](std::string& payload, std::size_t name_at) {
      ASSERT_EQ(name_at, 9u);
      ASSERT_EQ(static_cast<std::uint8_t>(payload[0]),
                static_cast<std::uint8_t>(disk.placement_kind()));
      payload[0] = static_cast<char>(bad);
    };
    const std::string name = disk.scheme().name();
    EXPECT_NE(load_error(load, edit_frame(full, kSnapshotBody, name, set_kind))
                  .find("unknown placement kind " + std::to_string(bad)),
              std::string::npos);
    EXPECT_NE(load_error(load, edit_frame(full, kSnapshotBody, name, set_kind,
                                          /*sealed=*/false))
                  .find("checksum mismatch"),
              std::string::npos);
  }
}

TEST(Snapshot, DamagedSchemeNameIsRuntimeError) {
  // Same frame as above; damage the scheme parameter in place.  A name
  // the parser rejects and a parameter the scheme rejects both surface as
  // the documented runtime_error, never as the parser's invalid_argument
  // (load_error lets any other exception type fail the test).
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  const std::string full = stream.str();
  const auto load = [](std::istream& in) { return Snapshot::load_disk(in); };
  for (const char bad : {'x', '0'}) {
    const auto set_digit = [&](std::string& payload, std::size_t name_at) {
      ASSERT_EQ(payload[name_at + 9], '2');
      payload[name_at + 9] = bad;
    };
    const std::string sealed = load_error(
        load, edit_frame(full, kSnapshotBody, "mirror(k=2)", set_digit));
    EXPECT_NE(sealed.find("snapshot: volume"), std::string::npos) << sealed;
    EXPECT_NE(load_error(load, edit_frame(full, kSnapshotBody, "mirror(k=2)",
                                          set_digit, /*sealed=*/false))
                  .find("checksum mismatch"),
              std::string::npos);
  }
}

TEST(Snapshot, DuplicateDeviceUidIsRuntimeError) {
  // ClusterConfig rejects a duplicate uid with invalid_argument; from a
  // snapshot that is damage, reported as the documented runtime_error.
  // The device list follows the scheme name: u32 count, then uid u64,
  // capacity u64, u32 name length and a one-letter name per device.
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  const std::string name = disk.scheme().name();
  const auto copy_first_uid = [&](std::string& payload, std::size_t name_at) {
    const std::size_t first = name_at + name.size() + 4;
    const std::size_t second = first + 8 + 8 + 4 + 1;
    ASSERT_NE(payload.compare(first, 8, payload, second, 8), 0);
    payload.replace(second, 8, payload, first, 8);
  };
  const std::string message =
      load_error([](std::istream& in) { return Snapshot::load_disk(in); },
                 edit_frame(stream.str(), kSnapshotBody, name, copy_first_uid));
  EXPECT_NE(message.find("duplicate device uid"), std::string::npos)
      << message;
}

TEST(Snapshot, SaveDuringReshapeRejected) {
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 50; ++b) disk.write(b, payload(b, 1));
  ClusterConfig next = disk.config();
  next.add_device({9, 2500, ""});
  disk.begin_reshape(next);
  std::stringstream stream;
  EXPECT_THROW(Snapshot::save_disk(disk, stream), std::runtime_error);
}

}  // namespace
}  // namespace rds
