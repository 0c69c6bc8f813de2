// rds_analyze fixture: trips metric-balance.  The shape of the historical
// BatchPlacer defect: an in-flight gauge is add()ed, a throwing call runs,
// and the matching sub() is only on the fall-through path -- the exception
// edge leaves the gauge raised forever.

namespace fix {

class Placer {
 public:
  Placer() {
    inflight_ = &registry_.gauge("rds_fix_inflight");
  }

  void place(int count) {
    inflight_->add(1);
    place_all(count);
    inflight_->sub(1);
  }

 private:
  void place_all(int count);

  Registry registry_;
  Gauge* inflight_ = nullptr;
};

}  // namespace fix
