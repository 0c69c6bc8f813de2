// shared_ptr-RCU cell with a thread-cached read side.
//
// A writer publishes an immutable snapshot with store()/exchange(); the
// replaced snapshot stays alive until its last holder drops it -- epoch
// semantics with shared_ptr reference counts standing in for grace
// periods.  The pointer itself sits behind an rds::Mutex (the slow path);
// next to it, on its own cache line, the cell keeps a version number that
// every publish bumps with release order while still holding that mutex.
//
// Readers take a scoped guard, read().  Each thread keeps a small
// direct-mapped cache of {cell id, version, shared_ptr} slots per T.  A
// hit -- the slot holds this cell's current version -- reads only the
// version line, which stays shared-clean between publishes, plus
// thread-local memory: no lock, no reference-count traffic, no shared
// write.  A miss (once per thread per publish) copies the pointer and its
// version into the slot under a shared hold of the mutex.  Once a reader
// has synchronized with a publisher (a latch, a flag, a join), its next
// read() sees that publish or a later one; the versions one thread sees
// never go backwards.
//
// A guard is valid until it goes out of scope on the thread that took it.
// Nested guards are fine: a slot pinned by a live guard is never refilled,
// and a read() that would have to refill a pinned slot (another cell that
// maps to it, or a newer version of the same cell) returns a guard that
// owns its own shared_ptr copy instead.
//
// Retention: a cache slot keeps the snapshot it last served alive until
// that thread's next read() of a cell mapping to the slot refills it, or
// until the thread exits -- at most one retired snapshot per slot per
// thread, even after the cell itself is destroyed.  Cell ids are
// process-unique and never reused, so a slot can never serve one cell's
// snapshot for another.
//
// load() returns an owning snapshot (it takes the mutex in shared mode);
// use it when the snapshot must outlive a scope or cross threads.
//
// load()/read()/store()/exchange() are safe from any thread.  Move
// construction / assignment exist so owning objects (VirtualDisk) stay
// movable and are NOT thread-safe: only move a cell while no other thread
// touches either side.  A move-constructed cell gets a fresh id and a
// move-assigned one keeps its own id and bumps its version, so neither
// ever serves its source's (or its own pre-move) cache entries; a
// moved-from cell may only be destroyed or assigned to.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {
namespace detail {

/// Next process-unique RcuCell id; 0 marks an empty cache slot.
inline std::uint64_t next_rcu_cell_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

template <typename T>
class RcuCell {
  struct Slot;

 public:
  /// Thread-cache slots per thread and per T.
  static constexpr std::size_t kCacheSlots = 8;

  /// Scoped read of the current snapshot (see the header comment).  Bound
  /// to the thread that took it; neither copyable nor movable, so it
  /// cannot be stored or handed to another thread.
  class ReadGuard {
   public:
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() {
      if (slot_ != nullptr) --slot_->pins;
    }

    [[nodiscard]] const T* get() const noexcept { return ptr_; }
    const T& operator*() const noexcept { return *ptr_; }
    const T* operator->() const noexcept { return ptr_; }
    explicit operator bool() const noexcept { return ptr_ != nullptr; }

   private:
    friend class RcuCell;
    /// Serves from `slot` and pins it for the guard's lifetime.
    explicit ReadGuard(Slot& slot) noexcept
        : slot_(&slot), ptr_(slot.ptr.get()) {
      ++slot.pins;
    }
    /// Owns its snapshot (the slot was pinned by an enclosing guard).
    explicit ReadGuard(std::shared_ptr<const T> owned) noexcept
        : owned_(std::move(owned)), ptr_(owned_.get()) {}

    Slot* slot_ = nullptr;
    std::shared_ptr<const T> owned_;
    const T* ptr_ = nullptr;
  };

  RcuCell() = default;
  explicit RcuCell(std::shared_ptr<const T> initial) noexcept
      : ptr_(std::move(initial)) {}

  // Not analyzed by -Wthread-safety (constructors never are): moves are
  // documented single-threaded, so nothing can race the unlocked access.
  RcuCell(RcuCell&& other) noexcept
      : mu_(std::move(other.mu_)), ptr_(std::move(other.ptr_)) {}
  // Moves are documented single-threaded, and the source's mutex moves
  // along with the pointer it guards, so there is no lock to take.  The
  // cell keeps its own id; the version bump makes every thread's cached
  // entry for it miss.
  RcuCell& operator=(RcuCell&& other) noexcept RDS_NO_THREAD_SAFETY_ANALYSIS {
    mu_ = std::move(other.mu_);
    ptr_ = std::move(other.ptr_);
    hot_.version.fetch_add(1, std::memory_order_release);
    return *this;
  }
  RcuCell(const RcuCell&) = delete;
  RcuCell& operator=(const RcuCell&) = delete;

  /// Owning copy of the current snapshot (may be null before the first
  /// store).
  [[nodiscard]] std::shared_ptr<const T> load() const noexcept {
    const ReaderLock lock(mu_);
    return ptr_;
  }

  /// Scoped, thread-cached read of the current snapshot.
  [[nodiscard]] ReadGuard read() const noexcept {
    Slot& slot = cache()[hot_.id % kCacheSlots];
    const std::uint64_t version = hot_.version.load(std::memory_order_acquire);
    if (slot.cell == hot_.id && slot.version == version) {
      return ReadGuard(slot);
    }
    if (slot.pins != 0) return ReadGuard(load());
    // The slot's previous snapshot is released after the guard pins the
    // slot, so a destructor that reads an RcuCell cannot refill it first.
    const std::shared_ptr<const T> retired = refill(slot);
    return ReadGuard(slot);
  }

  /// Publishes `next`; readers holding the old snapshot keep it alive.
  void store(std::shared_ptr<const T> next) noexcept {
    // The replaced snapshot is dropped here, after the mutex is released.
    const std::shared_ptr<const T> retired = exchange(std::move(next));
  }

  /// Publishes `next` and returns the snapshot it replaced.  Discarding the
  /// return value would silently drop the old snapshot's last reference
  /// while readers may still need it named -- callers must look at it.
  [[nodiscard]] std::shared_ptr<const T> exchange(
      std::shared_ptr<const T> next) noexcept {
    const MutexLock lock(mu_);
    ptr_.swap(next);
    hot_.version.fetch_add(1, std::memory_order_release);
    return next;
  }

 private:
  struct Slot {
    std::uint64_t cell = 0;  ///< id of the cell served; 0 = empty
    std::uint64_t version = 0;
    unsigned pins = 0;       ///< live guards serving from this slot
    std::shared_ptr<const T> ptr;
  };

  /// What the read hit path touches: written only by publishes and moves
  /// (version; the id never changes), so it stays shared-clean between
  /// publishes instead of sharing a line with the mutex or the pointer.
  struct alignas(64) Hot {
    std::atomic<std::uint64_t> version{0};
    const std::uint64_t id = detail::next_rcu_cell_id();
  };

  static std::array<Slot, kCacheSlots>& cache() noexcept {
    static thread_local std::array<Slot, kCacheSlots> slots;
    return slots;
  }

  /// Loads the current (pointer, version) pair into `slot`; returns the
  /// snapshot the slot held before.
  std::shared_ptr<const T> refill(Slot& slot) const noexcept {
    std::shared_ptr<const T> fresh;
    std::uint64_t version = 0;
    {
      const ReaderLock lock(mu_);
      fresh = ptr_;
      version = hot_.version.load(std::memory_order_relaxed);
    }
    slot.ptr.swap(fresh);
    slot.cell = hot_.id;
    slot.version = version;
    return fresh;
  }

  Hot hot_;
  mutable Mutex mu_;
  std::shared_ptr<const T> ptr_ RDS_GUARDED_BY(mu_);
};

}  // namespace rds
