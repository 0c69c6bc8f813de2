// rds_analyze fixture: trips rcu-escape twice.  A scoped read guard is
// direct-initialized from the RcuCell, then a raw pointer from it and the
// address of a field read through it are stashed in members.  Both dangle
// once the guard's scope ends and a publish retires the epoch.

namespace fix {

class Cache {
 public:
  void refresh() {
    const RcuCell<PlacementEpoch>::ReadGuard guard(published_.read());
    epoch_ = guard.get();
    devices_ = &guard->devices;
  }

 private:
  RcuCell<PlacementEpoch> published_;
  const PlacementEpoch* epoch_ = nullptr;
  const DeviceList* devices_ = nullptr;
};

}  // namespace fix
