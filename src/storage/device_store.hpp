// In-memory simulation of one physical storage device.
//
// Substitution note (see DESIGN.md): the paper's evaluation is itself a
// block-count simulation; this store adds actual byte payloads so the
// virtualization layer above can be tested end-to-end (write -> migrate ->
// fail -> rebuild -> read back), while every placement-level number stays
// identical to a hardware deployment.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cluster/device.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {

/// Key of one stored fragment: (logical block address, fragment index,
/// owning volume).  The volume field namespaces co-hosted volumes that
/// share one set of device stores (see storage/storage_pool.hpp).
struct FragmentKey {
  std::uint64_t block = 0;
  std::uint32_t fragment = 0;
  std::uint32_t volume = 0;

  friend bool operator==(const FragmentKey&, const FragmentKey&) = default;
};

struct FragmentKeyHash {
  [[nodiscard]] std::size_t operator()(const FragmentKey& k) const noexcept;
};

class Snapshot;

/// Thread-safe: every method takes the store's own lock -- shared for the
/// observers, exclusive for the mutators -- because the volumes of one
/// StoragePool share a store and do I/O concurrently, each under its own
/// VirtualDisk lock.  The store lock is a leaf below every other lock.
class DeviceStore {
 public:
  /// `capacity` is in fragments (the paper's "balls").
  explicit DeviceStore(Device device);

  /// A copy: the capacity can change under resize().
  [[nodiscard]] Device device() const RDS_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t used() const RDS_EXCLUDES(mu_);

  /// Fragments stored for one volume (pool mode shares a store across
  /// volumes).  O(stored fragments).
  [[nodiscard]] std::uint64_t used_by_volume(std::uint32_t volume) const
      RDS_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t capacity() const RDS_EXCLUDES(mu_);
  /// Lock-free: topology checks ask every store in turn.
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  /// Stores a fragment; returns whether the key is new (used() grew).  A
  /// new key takes over `payload`'s buffer; an existing key is overwritten
  /// in place (the bytes are copied into the buffer already stored, which
  /// keeps its allocation).  Throws std::runtime_error when the device is
  /// failed or full (and the key is new).
  bool write(const FragmentKey& key, std::vector<std::uint8_t> payload)
      RDS_EXCLUDES(mu_);

  /// Reads a fragment; nullopt if absent or the device is failed.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read(
      const FragmentKey& key) const RDS_EXCLUDES(mu_);

  [[nodiscard]] bool contains(const FragmentKey& key) const RDS_EXCLUDES(mu_);

  /// Removes a fragment if present; returns whether it existed.
  bool erase(const FragmentKey& key) RDS_EXCLUDES(mu_);

  /// Changes the device's capacity (in fragments).  Throws
  /// std::invalid_argument on zero or on a capacity below the current
  /// occupancy -- callers drain fragments off before shrinking.
  void resize(std::uint64_t new_capacity) RDS_EXCLUDES(mu_);

  /// Simulates a crash: all stored data becomes unreadable.
  void fail() RDS_EXCLUDES(mu_);

  /// Simulates silent data corruption (bit rot): flips a byte of the
  /// stored payload, or truncates an empty payload marker.  Returns whether
  /// the fragment existed.  Test/chaos hook.
  bool corrupt(const FragmentKey& key) RDS_EXCLUDES(mu_);

  /// Device replaced by a fresh, empty unit with the same uid.
  void replace() RDS_EXCLUDES(mu_);

 private:
  friend class Snapshot;  // serializes the contents under a ReaderLock

  mutable Mutex mu_;
  Device device_ RDS_GUARDED_BY(mu_);
  std::unordered_map<FragmentKey, std::vector<std::uint8_t>, FragmentKeyHash>
      data_ RDS_GUARDED_BY(mu_);
  // Set and cleared under `mu_`; atomic so failed() needs no lock.
  std::atomic<bool> failed_{false};
};

}  // namespace rds
