// Bit-rot detection and repair: corrupt fragments are detected by checksum
// on the read path (treated as missing, reconstructed from peers) and
// restored in place by repair().
#include <gtest/gtest.h>

#include "src/storage/virtual_disk.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig pool() {
  return ClusterConfig({{1, 2000, ""},
                        {2, 2000, ""},
                        {3, 2000, ""},
                        {4, 2000, ""},
                        {5, 2000, ""},
                        {6, 2000, ""}});
}

Bytes payload(std::uint64_t block) {
  Bytes b(96);
  Xoshiro256 rng(block * 31 + 7);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(Corruption, MirrorReadsAroundCorruptCopy) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  disk.write(5, payload(5));
  ASSERT_TRUE(disk.corrupt_fragment(5, 0));
  EXPECT_EQ(disk.read(5), payload(5));  // the healthy mirror serves
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(disk.stats().degraded_reads, 1u);
}

TEST(Corruption, ErasureReadsAroundCorruptFragment) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(4, 2));
  for (std::uint64_t b = 0; b < 50; ++b) disk.write(b, payload(b));
  ASSERT_TRUE(disk.corrupt_fragment(7, 2));
  ASSERT_TRUE(disk.corrupt_fragment(7, 5));
  EXPECT_EQ(disk.read(7), payload(7));
  // The read stops at four valid fragments (0, 1, 3, 4): fragment 5 is
  // never fetched, so only fragment 2's corruption is seen.
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  // Scrub and repair verify every fragment and find both.
  EXPECT_EQ(disk.scrub().degraded_blocks, 1u);
  EXPECT_EQ(disk.repair(), 2u);
}

TEST(Corruption, MirrorReadFallsBackPastCorruptFirstCopy) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  disk.write(5, payload(5));
  ASSERT_TRUE(disk.corrupt_fragment(5, 0));
  EXPECT_EQ(disk.read(5), payload(5));  // copy 1 serves
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(disk.stats().degraded_reads, 1u);
}

TEST(Corruption, UnreadMirrorCopyIsFoundByScrubNotByReads) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  disk.write(5, payload(5));
  ASSERT_TRUE(disk.corrupt_fragment(5, 2));
  // A healthy read verifies copy 0 only: not degraded, nothing detected.
  EXPECT_EQ(disk.read(5), payload(5));
  EXPECT_EQ(disk.stats().degraded_reads, 0u);
  EXPECT_EQ(disk.stats().checksum_failures, 0u);
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_EQ(report.degraded_blocks, 1u);
  EXPECT_EQ(disk.repair(), 1u);
  EXPECT_TRUE(disk.scrub().clean());
  EXPECT_EQ(disk.read(5), payload(5));
}

TEST(Corruption, FailedOverwriteNeverDecodesAMix) {
  // An overwrite that dies at fragment j leaves fragments < j new and
  // erases the rest; whichever fragments a later read combines, it
  // returns the old bytes, the new bytes or a typed error.
  const Bytes old_bytes = payload(1);
  const Bytes new_bytes = payload(2);
  ASSERT_NE(old_bytes, new_bytes);
  for (unsigned j = 0; j < 6; ++j) {
    VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(4, 2));
    disk.write(9, old_bytes);
    disk.fail_device(disk.copy_locations(9).devices[j]);
    const Result<void> written = disk.try_write(9, new_bytes);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.code(), ErrorCode::kIoError);
    const Result<Bytes> got = disk.try_read(9);
    if (got.ok()) {
      EXPECT_TRUE(got.value() == old_bytes || got.value() == new_bytes)
          << "fragment " << j << ": read decoded a mix";
    } else {
      EXPECT_EQ(got.code(), ErrorCode::kUnrecoverable) << "fragment " << j;
    }
  }
}

TEST(Corruption, TooManyCorruptFragmentsIsUnrecoverable) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(4, 2));
  disk.write(1, payload(1));
  for (unsigned j = 0; j < 3; ++j) {
    ASSERT_TRUE(disk.corrupt_fragment(1, j));
  }
  EXPECT_THROW((void)disk.read(1), std::runtime_error);
}

TEST(Corruption, ScrubDetectsBitRot) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  for (std::uint64_t b = 0; b < 20; ++b) disk.write(b, payload(b));
  EXPECT_TRUE(disk.scrub().clean());
  disk.corrupt_fragment(3, 1);
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.degraded_blocks, 1u);
  EXPECT_EQ(report.unreadable_blocks, 0u);
}

TEST(Corruption, RepairRestoresFragmentsInPlace) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 30; ++b) disk.write(b, payload(b));
  disk.corrupt_fragment(4, 0);
  disk.corrupt_fragment(9, 3);
  disk.corrupt_fragment(9, 4);
  EXPECT_FALSE(disk.scrub().clean());

  const std::uint64_t repaired = disk.repair();
  EXPECT_EQ(repaired, 3u);
  EXPECT_TRUE(disk.scrub().clean());
  for (std::uint64_t b = 0; b < 30; ++b) {
    EXPECT_EQ(disk.read(b), payload(b));
  }
  // Reads after repair are no longer degraded.
  const std::uint64_t degraded = disk.stats().degraded_reads;
  (void)disk.read(4);
  EXPECT_EQ(disk.stats().degraded_reads, degraded);
}

TEST(Corruption, RepairParityAndDataFragment) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 20; ++b) disk.write(b, payload(b));
  disk.corrupt_fragment(2, 4);  // the last parity fragment
  disk.corrupt_fragment(2, 1);  // a data fragment
  EXPECT_EQ(disk.repair(), 2u);
  EXPECT_TRUE(disk.scrub().clean());
  EXPECT_EQ(disk.read(2), payload(2));
}

TEST(Corruption, CorruptUnknownTargetsReturnFalse) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  EXPECT_FALSE(disk.corrupt_fragment(99, 0));  // never written
  disk.write(1, payload(1));
  EXPECT_FALSE(disk.corrupt_fragment(1, 5));  // fragment index out of range
}

TEST(Corruption, OverwriteClearsCorruption) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  disk.write(1, payload(1));
  disk.corrupt_fragment(1, 0);
  disk.write(1, payload(2));  // fresh content, fresh checksums
  EXPECT_EQ(disk.read(1), payload(2));
  EXPECT_TRUE(disk.scrub().clean());
}

}  // namespace
}  // namespace rds
