// Annotated mutex wrappers: the lockable types Clang's -Wthread-safety
// analysis reasons about (see src/util/thread_annotations.hpp).
//
// rds::Mutex wraps a heap-backed reader/writer lock so classes that own one
// stay movable (VirtualDisk and StoragePool are returned by value from
// Snapshot::load_*).  Moving a Mutex while any thread holds or waits on it
// is undefined -- like RcuCell, move only while no other thread touches
// either side; a moved-from Mutex may only be destroyed or assigned to.
//
// rds::MutexLock is the scoped exclusive guard the analysis tracks.  It is
// re-lockable (unlock()/lock()) so condition-variable loops keep their
// guarded-member reads inside a scope the analysis can see:
//
//     MutexLock lock(mu_);
//     while (!ready_) cv_.wait(lock);   // ready_ RDS_GUARDED_BY(mu_)
//
// rds::ReaderLock holds the same mutex in shared mode: any number of
// ReaderLocks coexist, and each excludes every MutexLock.  Under a
// ReaderLock the analysis allows reads of RDS_GUARDED_BY members and
// rejects writes, so a reader path that mutates shared state does not
// compile under Clang (-Werror=thread-safety).
#pragma once

#include <pthread.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "src/util/thread_annotations.hpp"

namespace rds {

class CondVar;
class MutexLock;
class ReaderLock;

namespace detail {

/// The lock under rds::Mutex: a POSIX rwlock that prefers writers.  The
/// glibc default prefers readers, so a steady stream of short reads could
/// hold a writer off indefinitely; here a waiting writer blocks new readers
/// and gets in as soon as the current ones leave.  Like std::shared_mutex,
/// it is not re-entrant in either mode.
class RwLock {
 public:
  RwLock() noexcept {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#ifdef __GLIBC__
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~RwLock() { pthread_rwlock_destroy(&rw_); }
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void lock() noexcept { pthread_rwlock_wrlock(&rw_); }
  [[nodiscard]] bool try_lock() noexcept {
    return pthread_rwlock_trywrlock(&rw_) == 0;
  }
  void unlock() noexcept { pthread_rwlock_unlock(&rw_); }
  void lock_shared() noexcept { pthread_rwlock_rdlock(&rw_); }
  void unlock_shared() noexcept { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

}  // namespace detail

class RDS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : raw_(std::make_unique<detail::RwLock>()) {}
  Mutex(Mutex&&) noexcept = default;
  Mutex& operator=(Mutex&&) noexcept = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RDS_ACQUIRE() { raw_->lock(); }
  void unlock() RDS_RELEASE() { raw_->unlock(); }
  [[nodiscard]] bool try_lock() RDS_TRY_ACQUIRE(true) {
    return raw_->try_lock();
  }
  void lock_shared() RDS_ACQUIRE_SHARED() { raw_->lock_shared(); }
  void unlock_shared() RDS_RELEASE_SHARED() { raw_->unlock_shared(); }

 private:
  friend class MutexLock;
  friend class ReaderLock;
  std::unique_ptr<detail::RwLock> raw_;
};

/// RAII lock the thread-safety analysis understands; re-lockable so
/// wait loops and hand-over-hand sections stay annotated.
class RDS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RDS_ACQUIRE(mu) : lock_(*mu.raw_) {}
  ~MutexLock() RDS_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (the destructor then does nothing).
  void unlock() RDS_RELEASE() { lock_.unlock(); }
  /// Re-acquires after an unlock().
  void lock() RDS_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<detail::RwLock> lock_;
};

/// Shared-mode RAII lock: concurrent with other ReaderLocks on the same
/// mutex, exclusive with MutexLock.
class RDS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(Mutex& mu) RDS_ACQUIRE_SHARED(mu) : lock_(*mu.raw_) {}
  ~ReaderLock() RDS_RELEASE() = default;

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  std::shared_lock<detail::RwLock> lock_;
};

/// Condition variable working on MutexLock.  wait() atomically releases and
/// re-acquires the lock; by the time it returns the caller holds the mutex
/// again, so the analysis (which does not model the transient release) stays
/// sound.  Use explicit `while (!predicate) cv.wait(lock);` loops -- a
/// predicate lambda would read guarded members from a scope the analysis
/// cannot connect to the held lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace rds
