// qf_check fixture: sleep-poll — sleeping inside a retry loop.

#include <atomic>
#include <chrono>
#include <thread>

namespace fixture {

inline void poll_braced(const std::atomic<bool>& ready) {
  while (!ready.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // FINDING
  }
}

inline void poll_braceless(const std::atomic<bool>& ready) {
  for (int i = 0; i < 10 && !ready.load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // FINDING
}

inline void poll_do_while(const std::atomic<bool>& ready) {
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // FINDING
  } while (!ready.load());
}

inline void sleep_after_loop(int n) {
  int sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += i;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(sum));  // OK
}

inline void exempt(const std::atomic<bool>& ready) {
  while (!ready.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));  // qf-allow(sleep-poll): fixture exemption
  }
}

}  // namespace fixture
