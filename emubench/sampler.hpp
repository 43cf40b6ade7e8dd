// SIGPROF stack sampler: per-module host-time shares with no
// instrumentation in the program.
//
// While started, the process-wide ITIMER_PROF fires every `interval_us` of
// consumed CPU time; the kernel delivers SIGPROF to the thread that was
// running, so samples are proportional to CPU use across all threads. The
// handler records the raw return addresses of the interrupted stack into a
// preallocated slot and nothing else.
//
// attribute() runs after stop(): it symbolizes addresses against the
// executable's own ELF symbol table (local symbols included, so functions
// in anonymous namespaces resolve), and charges each sample to the first
// frame, innermost first, whose function is declared in a `p2plab::<module>`
// namespace. Code the compiler inlined is charged to the function it was
// inlined into. A sample with no p2plab frame on its stack is unattributed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace emubench {

struct SampleSlot;  // one recorded stack; defined in sampler.cpp

class StackSampler {
 public:
  /// Keeps the first `capacity` samples over all start()/stop() periods.
  /// Only one sampler may exist at a time in a process.
  explicit StackSampler(std::size_t capacity);
  ~StackSampler();

  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Install the handler and arm the timer (`interval_us` below one
  /// second).
  void start(long interval_us);
  /// Disarm the timer; samples taken so far are kept.
  void stop();

  struct Attribution {
    std::map<std::string, std::uint64_t> by_module;  // "sim", "bt", ...
    std::uint64_t unattributed = 0;
    std::uint64_t total = 0;  // samples kept
  };
  Attribution attribute() const;

 private:
  std::unique_ptr<SampleSlot[]> slots_;
  std::size_t capacity_ = 0;
  bool running_ = false;
};

}  // namespace emubench
