// The engine's one barrier (engine/engine.hpp PhaseBarrier): atomic arrival
// plus a generation word, waiters spinning `spin_rounds` pauses before they
// fall back to yielding. The engine runs it with the full spin budget when
// every worker owns a core and with none otherwise; both settings must give
// the same guarantees, which is what the determinism suite relies on:
//   * the completion runs exactly once per round, on the last arrival;
//   * it sees every party's pre-arrival writes of that round;
//   * no party starts its next round before that completion has finished.
// The shared state below is deliberately non-atomic, so under
// ThreadSanitizer a missing happens-before edge is a reported race, not
// just a flaky count.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hpp"

namespace p2plab::engine {
namespace {

constexpr std::uint64_t kRounds = 10000;

TEST(PhaseBarrier, CompletionRunsOnceWithEveryArrivalVisible) {
  for (const std::size_t parties :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::uint32_t spin_rounds : {0u, 1u << 14}) {
      SCOPED_TRACE("parties " + std::to_string(parties) + ", spin_rounds " +
                   std::to_string(spin_rounds));
      PhaseBarrier barrier(parties, spin_rounds);
      // slot[t]: party t's input for the current round, written before it
      // arrives. next_input / completions: written only by the completion.
      std::vector<std::uint64_t> slot(parties, 0);
      std::uint64_t next_input = 0;
      std::uint64_t completions = 0;
      std::atomic<std::uint64_t> stale_inputs{0};
      std::atomic<std::uint64_t> missed_slots{0};
      std::atomic<std::uint64_t> repeated_completions{0};

      auto party = [&](std::size_t t) {
        for (std::uint64_t round = 0; round < kRounds; ++round) {
          // The previous round's completion published this round's input;
          // reading anything else means this party got ahead of it.
          const std::uint64_t input = next_input;
          if (input != round) stale_inputs.fetch_add(1);
          slot[t] = input;
          barrier.arrive_and_wait([&] {
            for (const std::uint64_t s : slot) {
              if (s != round) missed_slots.fetch_add(1);
            }
            if (completions != round) repeated_completions.fetch_add(1);
            ++completions;
            next_input = round + 1;
          });
        }
      };
      std::vector<std::thread> threads;
      for (std::size_t t = 1; t < parties; ++t) threads.emplace_back(party, t);
      party(0);
      for (auto& thread : threads) thread.join();

      EXPECT_EQ(completions, kRounds);
      EXPECT_EQ(stale_inputs.load(), 0u);
      EXPECT_EQ(missed_slots.load(), 0u);
      EXPECT_EQ(repeated_completions.load(), 0u);
    }
  }
}

}  // namespace
}  // namespace p2plab::engine
