// rds_analyze fixture: the balanced twin of loadsim_gauge_bad.cpp -- the
// shape src/sim/load_sim.cpp actually uses.  The RAII guard covers the
// throwing selector call structurally; the manual variant balances the
// exception edge by hand.

namespace fix {

class LoadSim {
 public:
  LoadSim() {
    inflight_ = &registry_.gauge("rds_fix_loadsim_inflight");
  }

  void serve(int request) {
    const GaugeGuard in_flight_guard(*inflight_);
    select_replica(request);
  }

  void serve_manual(int request) {
    inflight_->add(1);
    try {
      select_replica(request);
    } catch (...) {
      inflight_->sub(1);
      throw;
    }
    inflight_->sub(1);
  }

 private:
  void select_replica(int request);

  Registry registry_;
  Gauge* inflight_ = nullptr;
};

}  // namespace fix
