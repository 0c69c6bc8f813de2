// rds_analyze fixture twin: clean.  Both guards hold mu_: `latest_` is
// written under a MutexLock and read under a ReaderLock, and `limit_`,
// set by the constructor, is read only under the ReaderLock -- which must
// count as holding its declared lock, or its annotation would look wrong.
// The sleep runs after the shared guard's scope closes.

namespace fix {

class Cache {
 public:
  explicit Cache(long limit) : limit_(limit) {}

  long lookup() {
    long value = 0;
    {
      const ReaderLock lock(mu_);
      value = latest_ < limit_ ? latest_ : limit_;
    }
    std::this_thread::sleep_for(backoff_);
    return value;
  }

  void store(long value) {
    const MutexLock lock(mu_);
    latest_ = value;
  }

 private:
  Mutex mu_;
  long latest_ RDS_GUARDED_BY(mu_) = 0;
  long limit_ RDS_GUARDED_BY(mu_) = 0;
  Duration backoff_;
};

}  // namespace fix
