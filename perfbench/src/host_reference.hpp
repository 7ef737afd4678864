#pragma once
// A fixed reference kernel that measures how fast the host is right now.
//
// On a shared host, absolute host time drifts by a quarter or more in phases
// that last from seconds to minutes, and a whole run can fall into a slow
// phase. The reference kernel is timed in short slices interleaved with the
// measured work; host times are then scaled by nominal / measured slice time,
// so a run in a slow phase reads about what it would in a nominal one. The
// kernel lives in the benchmark, not in the simulator, so no change to the
// simulator can make it faster. It mixes the simulator's kinds of host work:
// a tag-array cache model, a hash-map backing store of about 15 MiB, and a
// stream over a 16 MiB array. Its memory is allocated and
// touched once, up front, so the process's peak RSS less resident_bytes()
// is the simulator's own.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/bench_meter.hpp"

namespace perfbench {

/// One slice of the reference kernel, `iterations` long, with its hash map
/// allocated from `arena` (std::bad_alloc when the arena is too small).
/// Deterministic: the same inputs give the same checksum.
std::uint64_t reference_kernel(std::uint32_t iterations,
                               const std::vector<std::uint32_t>& stream,
                               std::span<std::byte> arena);

class HostReference {
 public:
  /// About the host time of one slice on a 2.0 GHz Xeon virtual machine.
  /// Only a scale: it sets which host speed the scaled values match.
  static constexpr double kNominalSliceSeconds = 0.1;
  /// A slice must outgrow the host's caches, or it does not feel the
  /// memory contention that slows the simulator; shorter slices did not
  /// track the simulator's drift.
  static constexpr std::uint32_t kSliceIterations = 600'000;
  /// Measured work between two slices, when interleaved by maybe_slice().
  static constexpr double kCadenceSeconds = 1.5;
  static constexpr std::size_t kArenaBytes = std::size_t{24} << 20;

  HostReference();

  /// Starts a new window: forgets the slices timed so far.
  void start_window();
  /// Times one slice into the current window.
  void slice();
  /// Times one slice when kCadenceSeconds have passed since the last.
  void maybe_slice();

  /// kNominalSliceSeconds / mean slice time of the window: multiply a host
  /// time measured during the window by this to get it at nominal speed.
  /// Throws std::logic_error when the window holds no slice.
  double time_scale() const;
  std::size_t slices() const { return slices_; }
  /// Bytes the reference keeps resident for the whole run.
  std::size_t resident_bytes() const {
    return stream_.size() * sizeof(std::uint32_t) + arena_.size();
  }

 private:
  std::vector<std::uint32_t> stream_;
  std::vector<std::byte> arena_;
  cpc::sim::Stopwatch since_slice_;
  double seconds_ = 0.0;
  std::size_t slices_ = 0;
  std::uint64_t checksum_ = 0;  ///< keeps every slice's result observable
};

}  // namespace perfbench
