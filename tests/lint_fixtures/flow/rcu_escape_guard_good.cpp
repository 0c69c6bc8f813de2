// rds_analyze fixture twin: clean.  Fields are read through the scoped
// read guard and copied into members; a bitwise `&` with a field is a
// read, not an address taken.

namespace fix {

class Cache {
 public:
  void refresh() {
    const RcuCell<PlacementEpoch>::ReadGuard guard(published_.read());
    epoch_number_ = guard->epoch;
    device_count_ = guard->devices.size();
    mask_ = flags_ & guard->mask;
  }

 private:
  RcuCell<PlacementEpoch> published_;
  unsigned long epoch_number_ = 0;
  unsigned long device_count_ = 0;
  unsigned long mask_ = 0;
  unsigned long flags_ = 0;
};

}  // namespace fix
