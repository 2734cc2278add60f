// qf_check fixture: detached-thread — library threads must be joined.

#include <thread>

namespace fixture {

inline void fire_and_forget() {
  std::thread worker([] {});
  worker.detach();  // FINDING: detached-thread
}

inline void joined() {
  std::thread worker([] {});
  worker.join();  // OK: joined
  // worker.detach() in a comment is not code
}

inline void exempt() {
  std::thread t([] {});
  t.detach();  // qf-allow(detached-thread): fixture exemption
}

}  // namespace fixture
