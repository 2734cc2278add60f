// qf_check fixture: volatile-sync — volatile is not a synchronization
// primitive.

#include <atomic>

namespace fixture {

volatile bool stop_requested = false;  // FINDING: volatile-sync
std::atomic<bool> stop_flag{false};    // OK: atomic

inline void spin_until_stopped() {
  volatile int polls = 0;  // FINDING: volatile-sync
  while (!stop_requested) {
    polls = polls + 1;
  }
}

volatile unsigned mmio_shadow = 0;  // qf-allow(volatile-sync): fixture exemption

}  // namespace fixture
