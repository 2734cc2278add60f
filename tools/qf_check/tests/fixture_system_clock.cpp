// qf_check fixture: system-clock — intervals need a monotonic clock.

#include <chrono>

namespace fixture {

inline double elapsed_wall() {
  const auto t0 = std::chrono::system_clock::now();  // FINDING: system-clock
  const auto t1 = std::chrono::steady_clock::now();  // OK: steady_clock
  (void)t1;
  return static_cast<double>(t0.time_since_epoch().count());
}

inline const char* label() { return "std::chrono::system_clock"; }  // OK: string

}  // namespace fixture
