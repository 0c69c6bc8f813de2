// rds_analyze fixture twin: clean.  The epoch handle is only ever read
// through inside the guard scope; what lands in members is plain copied
// data, and the store() into the RcuCell itself is the publishing path.

namespace fix {

class Cache {
 public:
  void refresh() {
    auto snap = published_.read();
    last_count_ = snap->count;
  }

  void publish(PlacementEpoch next) {
    // rds_lint: allow(atomic-memory-order) -- RcuCell::store, not a
    // std::atomic op.
    published_.store(next);
  }

 private:
  RcuCell<PlacementEpoch> published_;
  long last_count_ = 0;
};

}  // namespace fix
