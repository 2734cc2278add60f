// qf_check fixture: stale-allow — a suppression must suppress something.

#include <atomic>

namespace fixture {

inline int counter() {
  static std::atomic<int> hits{0};  // qf-allow(mutable-static): FINDING: stale, atomic is allowed
  return hits.load();  // qf-allow(no-such-check): FINDING: unknown check name
}

inline int knob() {
  static int value = 3;  // qf-allow(mutable-static): OK, suppresses a finding
  return value;
}

}  // namespace fixture
