// Fixture twin: every allow() either shields a live finding or names a
// rule id rds_analyze does not own (here a clang-tidy check), which the
// stale-suppression pass must leave alone -- zero findings expected.
#include <atomic>

namespace fixture {

std::atomic<int> counter_value{0};

int still_violating() {
  // rds_lint: allow(atomic-memory-order) -- fixture: suppression in use
  return counter_value.load();
}

int foreign_rule() {
  // rds_lint: allow(bugprone-use-after-move) -- clang-tidy's; not ours
  return counter_value.load(std::memory_order_relaxed);
}

}  // namespace fixture
