#pragma once
/// \file communicator.hpp
/// \brief Simulated MPI communicator (substitution substrate; see
/// ARCHITECTURE.md, "The distributed layer").
///
/// The paper benchmarks on up to 512 MPI cores. This container has no MPI;
/// we reproduce the *semantics* the AMR algorithms rely on — rank counts,
/// contiguous rank ranges over the global quadrant sequence, prefix sums,
/// gathers — with deterministic in-process execution. Since PR 8 the
/// substrate is a real sharded runtime (message_queue.hpp): run_ranks
/// spawns one worker thread per rank, wired to per-rank MPSC mailboxes,
/// and the collectives here are thin synchronous wrappers over the
/// message-passing versions on RankCtx. The Communicator itself stays a
/// cheap copyable value (Forest stores one by value); mailboxes live only
/// for the duration of a run_ranks call.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "par/message_queue.hpp"

namespace qforest::par {

/// A communicator of \p size simulated ranks.
class Communicator {
 public:
  explicit Communicator(int size = 1);

  [[nodiscard]] int size() const { return size_; }

  /// Run \p fn(RankCtx&) once per rank, each rank on its own worker
  /// thread with a mailbox in a fresh RankGroup (size 1 runs inline).
  /// The ctx offers isend/irecv/wait_all/recv plus the message-passing
  /// collectives; see message_queue.hpp for the threading contract.
  template <class Fn>
  void run_ranks(Fn&& fn) const {
    RankGroup group(size_);
    group.run(std::forward<Fn>(fn));
  }

  /// Exclusive prefix sum over one value per rank (MPI_Exscan + final sum):
  /// result has size()+1 entries, result[r] = sum of values[0..r).
  /// Synchronous wrapper over RankCtx::exscan — each rank contributes
  /// values[r] through the message queue; single-rank calls stay serial.
  [[nodiscard]] std::vector<std::int64_t> exscan(
      const std::vector<std::int64_t>& values) const;

  /// Real per-rank gather: rank r contributes values[r], every rank
  /// gathers the full vector through the message queue, and all gathered
  /// copies are verified byte-identical before one is returned. The
  /// single-rank fast path returns the input unchanged.
  template <class T>
  [[nodiscard]] std::vector<T> allgather(const std::vector<T>& values) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "allgather element must be trivially copyable");
    assert(static_cast<int>(values.size()) == size_);
    if (size_ == 1) {
      return values;
    }
    std::vector<T> out(values.size());
    std::atomic<int> mismatches{0};
    run_ranks([&](RankCtx& ctx) {
      const std::vector<T> gathered =
          ctx.allgather(values[static_cast<std::size_t>(ctx.rank())]);
      if (gathered.size() != values.size() ||
          std::memcmp(gathered.data(), values.data(),
                      values.size() * sizeof(T)) != 0) {
        // mo: relaxed — error tally; read only after run_ranks joined.
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      if (ctx.rank() == 0) {
        out = gathered;
      }
    });
    // mo: relaxed — writers joined in run_ranks; the join orders them.
    assert(mismatches.load(std::memory_order_relaxed) == 0 &&
           "allgather: ranks disagree");
    (void)mismatches;
    return out;
  }

  /// Split \p n items into size() contiguous chunks as evenly as possible
  /// (the classical block distribution). Returns size()+1 offsets.
  [[nodiscard]] std::vector<std::int64_t> block_distribution(
      std::int64_t n) const;

  /// Rank owning global index \p g under offsets from block_distribution /
  /// weighted partitioning: the unique r with offsets[r] <= g < offsets[r+1].
  static int owner_of(const std::vector<std::int64_t>& offsets,
                      std::int64_t g);

 private:
  int size_;
};

}  // namespace qforest::par
