#include "src/storage/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "src/placement/strategy_factory.hpp"
#include "src/util/codec.hpp"

namespace rds {
namespace {

// Version 3 (snapshot.hpp); older streams fail with "bad magic/version".
constexpr char kDiskMagic[] = "RDSDISK3";
constexpr char kPoolMagic[] = "RDSPOOL3";
constexpr char kFileStoreMagic[] = "RDSFSTO2";

// Smallest encodings of a device (uid, capacity, name length) and of a
// file (name length, size, block count), for Cursor::count.
constexpr std::size_t kDeviceBytes = 8 + 8 + 4;
constexpr std::size_t kFileBytes = 4 + 8 + 4;

/// Block-table and checksum entries per frame: no buffer on save or load
/// grows with the volume.
constexpr std::uint64_t kTableChunk = 4096;

using Stores = std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>>;

/// The header's value; a bad magic/version or a damaged header throws the
/// documented runtime_error.
std::uint64_t read_header(std::istream& in, const char* magic,
                          const char* field) {
  const Result<std::uint64_t> value = codec::read_header(in, magic, field);
  if (!value.ok()) {
    throw std::runtime_error("snapshot: " + value.error().message);
  }
  return value.value();
}

/// A cursor over the next frame, read into `buf`; a missing or damaged
/// frame throws the documented runtime_error.
codec::Cursor next_frame(std::istream& in, Bytes& buf, const char* section) {
  const Result<bool> read = codec::read_frame(in, buf);
  if (!read.ok()) {
    throw std::runtime_error(std::string("snapshot: ") + section +
                             " frame: " + read.error().message);
  }
  if (!read.value()) throw std::runtime_error("snapshot: truncated stream");
  return codec::Cursor(buf);
}

/// Throws unless `c` consumed its frame exactly.
void finish(const codec::Cursor& c, const char* section) {
  if (!c.done()) {
    throw std::runtime_error(std::string("snapshot: malformed ") + section +
                             " frame");
  }
}

/// Writes one frame of `w`'s bytes and empties `w` for the next.
void flush(std::ostream& out, codec::Writer& w) {
  codec::write_frame(out, w.data());
  w.clear();
}

// Field lists shared by save (Io = codec::Writer) and load (codec::Cursor).
template <typename Io, typename Key>
void key_fields(Io& io, Key& key) {
  io(key.block, key.fragment, key.volume);
}

template <typename Io, typename D>
void device_fields(Io& io, D& d) {
  io(d.uid, d.capacity, d.name);
}

void put_config(codec::Writer& w, const ClusterConfig& config) {
  w.u32(static_cast<std::uint32_t>(config.size()));
  for (const Device& d : config.devices()) device_fields(w, d);
}

ClusterConfig get_config(codec::Cursor& c) {
  std::vector<Device> devices(c.count(kDeviceBytes));
  for (Device& d : devices) device_fields(c, d);
  if (c.failed()) throw std::runtime_error("snapshot: malformed device list");
  // A zero capacity or a duplicate uid is damage like any other field.
  try {
    return ClusterConfig(std::move(devices));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("snapshot: ") + e.what());
  }
}

/// Writes `table`'s entries, put(entry) each, kTableChunk to a frame.
template <typename Table, typename Put>
void put_table(std::ostream& out, codec::Writer& w, const Table& table,
               Put put) {
  std::uint64_t n = 0;
  for (const auto& entry : table) {
    put(entry);
    if (++n % kTableChunk == 0 || n == table.size()) flush(out, w);
  }
}

/// `n` device stores: per store a device frame, then its fragment frames.
Stores get_stores(std::istream& in, Bytes& buf, std::uint64_t n) {
  Stores stores;
  for (std::uint64_t i = 0; i < n; ++i) {
    codec::Cursor c = next_frame(in, buf, "device");
    Device device;
    device_fields(c, device);
    auto store = std::make_shared<DeviceStore>(device);
    const bool failed = c.u8() != 0;
    const std::uint64_t fragments = c.u64();
    finish(c, "device");
    for (std::uint64_t f = 0; f < fragments; ++f) {
      c = next_frame(in, buf, "fragment");
      FragmentKey key;
      key_fields(c, key);
      const std::span<const std::uint8_t> payload = c.rest();
      finish(c, "fragment");
      store->write(key, Bytes(payload.begin(), payload.end()));
    }
    if (failed) store->fail();
    const DeviceId uid = store->device().uid;
    stores.emplace(uid, std::move(store));
  }
  return stores;
}

}  // namespace

void Snapshot::put_store(std::ostream& out, const DeviceStore& store) {
  // One shared hold for the whole section: the count and the entries come
  // from the same state even while other volumes' I/O reaches the store.
  const ReaderLock lock(store.mu_);
  // A failed device's contents are unreadable: persist the flag only.
  const bool failed = store.failed();
  codec::Writer w;
  device_fields(w, store.device_);
  w.u8(failed ? 1 : 0);
  w.u64(failed ? 0 : store.data_.size());
  flush(out, w);
  if (failed) return;
  // One frame per fragment: key, then the payload to the frame's end.
  for (const auto& [key, payload] : store.data_) {
    key_fields(w, key);
    w.raw(payload);
    flush(out, w);
  }
}

void Snapshot::put_volume_meta(std::ostream& out, codec::Writer& w,
                               const VirtualDisk& disk) {
  const MutexLock lock(disk.mu_);
  w.u8(static_cast<std::uint8_t>(disk.kind_));
  w.u32(disk.volume_id_);
  w.string(disk.scheme_->name());
  put_config(w, disk.config_);
  w.u64(disk.blocks_.size());
  w.u64(disk.checksums_.size());
  flush(out, w);
  put_table(out, w, disk.blocks_,
            [&](const auto& e) { w(e.first, e.second); });
  put_table(out, w, disk.checksums_, [&](const auto& e) {
    key_fields(w, e.first);
    w(e.second);
  });
  // Stats are observability, not state: deliberately not persisted.
}

VirtualDisk Snapshot::get_volume_meta(
    std::istream& in, codec::Cursor& c, Bytes& buf,
    std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores) {
  const std::uint8_t kind_byte = c.u8();
  const std::span<const PlacementKind> kinds = all_placement_kinds();
  const auto known = std::find_if(kinds.begin(), kinds.end(), [&](auto k) {
    return static_cast<std::uint8_t>(k) == kind_byte;
  });
  if (known == kinds.end()) {
    throw std::runtime_error("snapshot: unknown placement kind " +
                             std::to_string(kind_byte));
  }
  const PlacementKind kind = *known;
  const std::uint32_t volume_id = c.u32();
  const std::string scheme_name = c.string();
  ClusterConfig config = get_config(c);
  const std::uint64_t blocks = c.u64();
  const std::uint64_t sums = c.u64();
  finish(c, "volume");  // the tables' frames reuse `buf`
  // The scheme name and the (kind, scheme, config) triple come from the
  // stream: a name the parser rejects or a scheme that does not fit the
  // stored devices is damage, reported like every other corrupt field.
  VirtualDisk disk = [&] {
    try {
      return VirtualDisk(std::move(config), make_scheme_from_name(scheme_name),
                         kind, volume_id, std::move(stores));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("snapshot: volume " +
                               std::to_string(volume_id) + ": " + e.what());
    }
  }();
  {
    // The disk is private to this function, but its block/checksum tables
    // are lock-guarded members; take the lock so the access is provably
    // consistent under the thread-safety analysis.
    const MutexLock lock(disk.mu_);
    for (std::uint64_t left = blocks; left > 0;) {
      codec::Cursor t = next_frame(in, buf, "block table");
      for (auto i = std::min(left, kTableChunk); i > 0; --i, --left) {
        const std::uint64_t block = t.u64();
        t(disk.blocks_[block]);
      }
      finish(t, "block table");
    }
    for (std::uint64_t left = sums; left > 0;) {
      codec::Cursor t = next_frame(in, buf, "checksum table");
      for (auto i = std::min(left, kTableChunk); i > 0; --i, --left) {
        FragmentKey key;
        key_fields(t, key);
        t(disk.checksums_[key]);
      }
      finish(t, "checksum table");
    }
  }
  return disk;
}

std::shared_ptr<RedundancyScheme> make_scheme_from_name(
    const std::string& name) {
  const auto bad = [&](const std::string& why) {
    return std::invalid_argument("make_scheme_from_name: " + why + ": '" +
                                 name + "'");
  };
  // Strict unsigned parse: the whole token must be digits and fit.
  const auto number = [&](std::string_view token) -> unsigned {
    unsigned value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      throw bad("number out of range");
    }
    if (ec != std::errc{} || end != token.data() + token.size() ||
        token.empty()) {
      throw bad("malformed number '" + std::string(token) + "'");
    }
    return value;
  };
  // The parameter list between `prefix` and a ')' that must end the string.
  const auto inner = [&](std::string_view prefix) -> std::string_view {
    std::string_view rest = std::string_view(name).substr(prefix.size());
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) throw bad("missing ')'");
    if (close + 1 != rest.size()) throw bad("trailing characters after ')'");
    return rest.substr(0, close);
  };
  if (name.starts_with("mirror(k=")) {
    return std::make_shared<MirroringScheme>(number(inner("mirror(k=")));
  }
  if (name.starts_with("reed-solomon(")) {
    const std::string_view body = inner("reed-solomon(");
    const std::size_t plus = body.find('+');
    if (plus == std::string_view::npos) throw bad("expected 'D+P'");
    return std::make_shared<ReedSolomonScheme>(number(body.substr(0, plus)),
                                               number(body.substr(plus + 1)));
  }
  throw bad("unknown scheme kind");
}

void Snapshot::save_disk(const VirtualDisk& disk, std::ostream& out) {
  if (disk.reshaping()) {
    throw std::runtime_error("Snapshot: drain the reshape before saving");
  }
  {
    // Scoped: put_volume_meta takes the same (non-reentrant) lock.
    const MutexLock lock(disk.mu_);
    codec::write_header(out, kDiskMagic, disk.stores_.size());
    for (const auto& [uid, store] : disk.stores_) put_store(out, *store);
  }
  codec::Writer w;
  put_volume_meta(out, w, disk);
  if (!out) throw std::runtime_error("Snapshot: write failed");
}

VirtualDisk Snapshot::load_disk(std::istream& in) {
  const std::uint64_t n = read_header(in, kDiskMagic, "store count");
  Bytes buf;
  Stores stores = get_stores(in, buf, n);
  codec::Cursor c = next_frame(in, buf, "volume");
  return get_volume_meta(in, c, buf, std::move(stores));
}

void Snapshot::save_pool(const StoragePool& pool, std::ostream& out) {
  // Lock order pool -> volume: the per-disk sections below take each
  // volume's own lock while the pool lock is held.
  const MutexLock lock(pool.mu_);
  for (const auto& [name, disk] : pool.volumes_) {
    if (disk->reshaping()) {
      throw std::runtime_error("Snapshot: drain reshapes before saving");
    }
  }
  codec::write_header(out, kPoolMagic, pool.stores_.size());
  codec::Writer w;
  w.u32(pool.next_volume_id_);
  put_config(w, pool.config_);
  w.u32(static_cast<std::uint32_t>(pool.volumes_.size()));
  flush(out, w);
  for (const auto& [uid, store] : pool.stores_) put_store(out, *store);
  for (const auto& [name, disk] : pool.volumes_) {
    w.string(name);  // opens the volume's frame
    put_volume_meta(out, w, *disk);
  }
  if (!out) throw std::runtime_error("Snapshot: write failed");
}

StoragePool Snapshot::load_pool(std::istream& in) {
  const std::uint64_t n_stores = read_header(in, kPoolMagic, "store count");
  Bytes buf;
  codec::Cursor c = next_frame(in, buf, "pool");
  const std::uint32_t next_volume_id = c.u32();
  ClusterConfig config = get_config(c);
  const std::uint32_t n_volumes = c.u32();
  finish(c, "pool");
  Stores stores = get_stores(in, buf, n_stores);

  StoragePool pool{ClusterConfig{}};
  {
    // Same reasoning as get_volume_meta: the pool is local, its tables are
    // guarded.
    const MutexLock lock(pool.mu_);
    pool.config_ = std::move(config);
    pool.stores_ = std::move(stores);
    pool.next_volume_id_ = next_volume_id;

    for (std::uint32_t i = 0; i < n_volumes; ++i) {
      c = next_frame(in, buf, "volume");
      std::string name = c.string();
      pool.volumes_.emplace(std::move(name),
                            std::make_unique<VirtualDisk>(
                                get_volume_meta(in, c, buf, pool.stores_)));
    }
  }
  return pool;
}

void Snapshot::save_file_store(const FileStore& store, std::ostream& out) {
  codec::write_header(out, kFileStoreMagic, store.block_size_);
  codec::Writer w;
  w.u64(store.next_block_);
  w.u32(static_cast<std::uint32_t>(store.free_blocks_.size()));
  for (const std::uint64_t id : store.free_blocks_) w.u64(id);
  w.u32(static_cast<std::uint32_t>(store.files_.size()));
  for (const auto& [name, entry] : store.files_) {
    w.string(name);
    w.u64(entry.size);
    w.u32(static_cast<std::uint32_t>(entry.block_ids.size()));
    for (const std::uint64_t id : entry.block_ids) w.u64(id);
  }
  flush(out, w);
  save_disk(store.disk_, out);
  if (!out) throw std::runtime_error("Snapshot: write failed");
}

FileStore Snapshot::load_file_store(std::istream& in) {
  const std::uint64_t block_size =
      read_header(in, kFileStoreMagic, "block size");
  Bytes buf;
  codec::Cursor c = next_frame(in, buf, "file table");
  const std::uint64_t next_block = c.u64();
  std::vector<std::uint64_t> free_blocks(c.count(8));
  for (std::uint64_t& id : free_blocks) id = c.u64();
  std::map<std::string, FileStore::FileEntry> files;
  const std::uint32_t n_files = c.count(kFileBytes);
  for (std::uint32_t i = 0; i < n_files; ++i) {
    std::string name = c.string();
    FileStore::FileEntry entry;
    entry.size = c.u64();
    entry.block_ids.resize(c.count(8));
    for (std::uint64_t& id : entry.block_ids) id = c.u64();
    files.emplace(std::move(name), std::move(entry));
  }
  finish(c, "file table");
  if (block_size == 0) throw std::runtime_error("snapshot: zero block size");
  FileStore store(load_disk(in), static_cast<std::size_t>(block_size));
  store.files_ = std::move(files);
  store.free_blocks_ = std::move(free_blocks);
  store.next_block_ = next_block;
  return store;
}

}  // namespace rds
