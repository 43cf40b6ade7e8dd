#include "reference.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>

namespace emubench {
namespace {

// The kernel's shape follows the emulator's hot loop: pop the earliest of
// a few ten thousand pending events, touch per-node state scattered over a
// few MiB, schedule a follow-up event.
constexpr std::uint32_t kPending = 1 << 15;
constexpr std::uint32_t kStateWords = 1 << 19;  // 4 MiB
constexpr int kSteps = 400000;

struct Event {
  std::uint64_t at;
  std::uint32_t node;
};

bool later(const Event& a, const Event& b) { return a.at > b.at; }

/// The kernel's memory, mapped for one call and unmapped after it, so the
/// kernel never adds to the resident set while the emulator runs.
class Arena {
 public:
  Arena() {
    memory_ = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (memory_ == MAP_FAILED) throw std::bad_alloc();
    std::memset(memory_, 0, kBytes);  // fault every page in before timing
  }
  ~Arena() { munmap(memory_, kBytes); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::uint64_t* state() { return static_cast<std::uint64_t*>(memory_); }
  Event* heap() { return reinterpret_cast<Event*>(state() + kStateWords); }

 private:
  static constexpr std::size_t kBytes =
      kStateWords * sizeof(std::uint64_t) + kPending * sizeof(Event);
  void* memory_;
};

double timed_kernel() {
  Arena arena;
  std::uint64_t* state = arena.state();
  Event* heap = arena.heap();
  Event* heap_end = heap + kPending;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::uint32_t node = 0; node < kPending; ++node) {
    heap[node] = {next() % 1000000, node};
  }
  std::make_heap(heap, heap_end, later);

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(heap, heap_end, later);
    const Event event = heap_end[-1];
    std::uint64_t& word =
        state[(event.node * 2654435761ULL + event.at) & (kStateWords - 1)];
    word += event.at;
    sum += word & 0xff ? word : 1;
    heap_end[-1] = {event.at + 1 + next() % 10000, event.node};
    std::push_heap(heap, heap_end, later);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  static volatile std::uint64_t sink = 0;
  sink = sink + sum;
  return seconds;
}

}  // namespace

double reference_seconds(const std::vector<int>& cpus) {
  if (cpus.empty()) return timed_kernel();
  cpu_set_t saved;
  pthread_getaffinity_np(pthread_self(), sizeof saved, &saved);
  double total = 0.0;
  for (const int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(static_cast<std::size_t>(cpu), &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    total += timed_kernel();
  }
  // Engine workers inherit this thread's mask, so it must come back whole.
  pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
  return total / static_cast<double>(cpus.size());
}

}  // namespace emubench
