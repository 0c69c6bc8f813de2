// rds_analyze fixture: calls through standard-library objects stay out of
// the lock graph.  `out_` is a std::ostream* member and `sink` a
// std::ostream& parameter, so their write() calls never resolve to
// Volume::write, which takes Volume::mu_.  Volume -> Log is the only lock
// edge: no cycle.

namespace fix {

class Log {
 public:
  void append(int record) {
    const MutexLock lock(mu_);
    out_->write(buffer_, record);
  }

  void dump(std::ostream& sink) {
    const MutexLock lock(mu_);
    sink.write(buffer_, 8);
  }

 private:
  Mutex mu_;
  std::ostream* out_ RDS_GUARDED_BY(mu_) = nullptr;
  char buffer_[8] RDS_GUARDED_BY(mu_);
};

class Volume {
 public:
  void write(int block, int value) {
    const MutexLock lock(mu_);
    log_.append(block + value);
  }

 private:
  Mutex mu_;
  Log log_ RDS_GUARDED_BY(mu_);
};

}  // namespace fix
