// rds_analyze fixture: both ways to balance an in-flight gauge.  The RAII
// guard satisfies the rule structurally (no add/sub pair to check); the
// manual version sub()s on the exception edge and on fall-through before
// any other throwing call.

namespace fix {

class Placer {
 public:
  Placer() {
    inflight_ = &registry_.gauge("rds_fix_inflight");
  }

  void place(int count) {
    const GaugeGuard guard(*inflight_);
    place_all(count);
  }

  void place_manual(int count) {
    inflight_->add(1);
    try {
      place_all(count);
    } catch (...) {
      inflight_->sub(1);
      throw;
    }
    inflight_->sub(1);
  }

 private:
  void place_all(int count);

  Registry registry_;
  Gauge* inflight_ = nullptr;
};

}  // namespace fix
