// rds_analyze fixture: trips metric-balance on the queue-sim shape.  The
// in-flight gauge of the load simulator is raised per request, but a
// throwing selector call sits between add() and sub() -- the exception
// edge leaves rds_loadsim_inflight stuck at its peak.

namespace fix {

class LoadSim {
 public:
  LoadSim() {
    inflight_ = &registry_.gauge("rds_fix_loadsim_inflight");
  }

  void serve(int request) {
    inflight_->add(1);
    select_replica(request);
    inflight_->sub(1);
  }

 private:
  void select_replica(int request);

  Registry registry_;
  Gauge* inflight_ = nullptr;
};

}  // namespace fix
