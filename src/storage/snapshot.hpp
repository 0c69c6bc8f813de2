// Snapshot persistence: save/restore the full state of a VirtualDisk or a
// StoragePool to a byte stream (metadata, fragment payloads, checksums,
// failure flags).  Restart semantics for the simulation stack: a loaded
// snapshot behaves identically to the original, including degraded state.
//
// Format version 3 ("RDSDISK3", "RDSPOOL3", "RDSFSTO2"; layouts in
// docs/persistence.md) is built from the shared codec (src/util/codec.hpp):
// a header (magic, a u64, its CRC-32C), then every section -- a store's
// device record, each fragment, a volume, its block and checksum tables
// 4,096 entries at a time -- in its own CRC-32C frame.  Damage is a runtime_error, never a
// parse of unverified bytes; older versions fail with "bad magic/version".
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "src/storage/file_store.hpp"
#include "src/storage/storage_pool.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/codec.hpp"

namespace rds {

/// Reconstructs a redundancy scheme from its name() string
/// ("mirror(k=2)", "reed-solomon(4+2)").  Parsing is strict: the whole
/// string must be consumed (no trailing garbage), numbers must fit an
/// unsigned, and the scheme constructors' own validation (zero shards, more
/// than 256, ...) applies.  Any other kind -- including the retired
/// "evenodd(p=...)" and "rdp(p=...)" -- is an "unknown scheme kind".
/// Throws std::invalid_argument with a message naming what was wrong.
[[nodiscard]] std::shared_ptr<RedundancyScheme> make_scheme_from_name(
    const std::string& name);

class Snapshot {
 public:
  /// Serializes a standalone disk (configuration, placement kind, scheme,
  /// block table, checksums, device stores including failure flags).
  /// Throws std::runtime_error if a reshape is in flight.
  static void save_disk(const VirtualDisk& disk, std::ostream& out);

  /// Restores a disk saved by save_disk.  Throws std::runtime_error on a
  /// bad magic/version, a truncated stream, a frame that fails its
  /// checksum, or a stored placement kind, scheme name or device set that
  /// does not build a disk.
  static VirtualDisk load_disk(std::istream& in);

  /// Serializes a pool: shared stores once, then every volume's metadata.
  /// load_pool throws like load_disk.
  static void save_pool(const StoragePool& pool, std::ostream& out);
  static StoragePool load_pool(std::istream& in);

  /// Serializes a file store: the file table, free list and block
  /// allocator, then the underlying disk (save_disk format, embedded).
  /// load_file_store throws like load_disk.
  static void save_file_store(const FileStore& store, std::ostream& out);
  static FileStore load_file_store(std::istream& in);

 private:
  // One device store's frames (needs DeviceStore friendship: the walk
  // holds the store's lock).
  static void put_store(std::ostream& out, const DeviceStore& store);
  // A volume's frames (needs VirtualDisk friendship; stores are serialized
  // separately so pool snapshots write shared payloads once).  The volume
  // frame starts with whatever `w` holds; get_volume_meta reads the rest
  // of it from `c` (a cursor over `buf`), then the table frames from `in`.
  static void put_volume_meta(std::ostream& out, codec::Writer& w,
                              const VirtualDisk& disk);
  static VirtualDisk get_volume_meta(
      std::istream& in, codec::Cursor& c, Bytes& buf,
      std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores);
};

}  // namespace rds
