// rds_analyze fixture: a shared hold is still a hold.  ReaderLock holds
// the same capability MutexLock does, so the sleep under it trips
// lock-held-across-call: every writer waiting on the mutex stalls behind
// it.

namespace fix {

class Cache {
 public:
  long lookup() {
    const ReaderLock lock(mu_);
    std::this_thread::sleep_for(backoff_);
    return latest_;
  }

  void store(long value) {
    const MutexLock lock(mu_);
    latest_ = value;
  }

 private:
  Mutex mu_;
  long latest_ RDS_GUARDED_BY(mu_) = 0;
  Duration backoff_;
};

}  // namespace fix
