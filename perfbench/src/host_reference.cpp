#include "host_reference.hpp"

#include <memory_resource>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr std::uint32_t kStreamWords = 4u << 20;  // 16 MiB
constexpr std::uint32_t kL1Lines = 128;
constexpr std::uint32_t kL2Lines = 1024;

}  // namespace

std::uint64_t reference_kernel(std::uint32_t iterations,
                               const std::vector<std::uint32_t>& stream,
                               std::span<std::byte> arena) {
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint32_t, std::uint32_t> memory(&pool);
  memory.reserve(iterations);
  std::vector<std::uint32_t> l1(kL1Lines, ~0u);
  std::vector<std::uint32_t> l2(kL2Lines, ~0u);
  std::uint64_t x = 42;
  std::uint64_t checksum = 0;
  std::uint32_t sequential = 0;
  const std::uint32_t mask = static_cast<std::uint32_t>(stream.size()) - 1;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::uint32_t addr = ((x >> 33) & 1) != 0 ? (sequential += 4)
                                              : static_cast<std::uint32_t>(x >> 40) << 2;
    addr &= (1u << 24) - 1;
    const std::uint32_t line = addr >> 6;
    if (l1[line % kL1Lines] != line) {
      l1[line % kL1Lines] = line;
      if (l2[line % kL2Lines] != line) {
        l2[line % kL2Lines] = line;
        checksum += 7;
      }
    }
    if (((x >> 20) & 3) != 0) {
      checksum += memory[addr];
    } else {
      memory[addr] = static_cast<std::uint32_t>(x);
    }
    checksum += stream[(i * 16u + static_cast<std::uint32_t>(x >> 58)) & mask];
  }
  return checksum;
}

HostReference::HostReference() : stream_(kStreamWords), arena_(kArenaBytes) {
  std::uint32_t x = 12345;
  for (std::uint32_t& word : stream_) {
    x = x * 1664525u + 1013904223u;
    word = x;
  }
}

void HostReference::start_window() {
  seconds_ = 0.0;
  slices_ = 0;
}

void HostReference::slice() {
  const cpc::sim::Stopwatch watch;
  checksum_ += reference_kernel(kSliceIterations, stream_, arena_);
  seconds_ += watch.seconds();
  ++slices_;
  since_slice_.restart();
}

void HostReference::maybe_slice() {
  if (since_slice_.seconds() >= kCadenceSeconds) slice();
}

double HostReference::time_scale() const {
  if (slices_ == 0) throw std::logic_error("host reference window has no slice");
  return kNominalSliceSeconds * static_cast<double>(slices_) / seconds_;
}

}  // namespace perfbench
