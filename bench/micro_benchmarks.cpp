// Microbenchmarks of the platform's hot paths (google-benchmark).
//
// These are engineering benchmarks, not paper figures: they bound the
// wall-clock cost of the mechanisms that the 10^8-event experiments lean
// on (event queue, rule scan, pipes, SHA-1, picker).
#include <algorithm>

#include <benchmark/benchmark.h>

#include "bittorrent/picker.hpp"
#include "bittorrent/sha1.hpp"
#include "common/rng.hpp"
#include "core/platform.hpp"
#include "ipfw/firewall.hpp"
#include "metrics/registry.hpp"
#include "sim/simulation.hpp"

using namespace p2plab;

namespace {

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  sim::Simulation sim;
  const auto horizon = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  // Keep `horizon` events pending; each iteration schedules one and
  // dispatches one.
  for (std::int64_t i = 0; i < horizon; ++i) {
    sim.schedule_after(
        Duration::us(static_cast<std::int64_t>(rng.uniform(1000))), [] {});
  }
  for (auto _ : state) {
    sim.schedule_after(
        Duration::us(static_cast<std::int64_t>(rng.uniform(1000))), [] {});
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleDispatch)->Arg(1000)->Arg(100000);

void BM_EventQueueScheduleDispatchInstrumented(benchmark::State& state) {
  // Same loop with kernel metrics bound: the delta against the plain
  // variant is the registry's per-event overhead (budget: <= 2%).
  sim::Simulation sim;
  metrics::Registry registry;
  sim.bind_metrics(registry);
  const auto horizon = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  for (std::int64_t i = 0; i < horizon; ++i) {
    sim.schedule_after(
        Duration::us(static_cast<std::int64_t>(rng.uniform(1000))), [] {});
  }
  for (auto _ : state) {
    sim.schedule_after(
        Duration::us(static_cast<std::int64_t>(rng.uniform(1000))), [] {});
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleDispatchInstrumented)->Arg(1000)->Arg(100000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Timer-heavy protocol behavior: nearly every scheduled event (a
  // retransmit or keepalive timer) is cancelled before it fires. Each
  // iteration schedules one event and cancels the oldest pending one, so
  // the queue never dispatches — this isolates the O(1) slab cancel from
  // heap dispatch. Cancelled slots are reclaimed lazily on dispatch, so a
  // trickle of step() calls keeps the heap from accumulating tombstones
  // the way a real run's dispatch stream would.
  sim::Simulation sim;
  const auto horizon = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<sim::EventId> pending(horizon);
  for (std::size_t i = 0; i < horizon; ++i) {
    pending[i] = sim.schedule_after(
        Duration::us(static_cast<std::int64_t>(rng.uniform(1000))), [] {});
  }
  std::size_t oldest = 0;
  std::uint64_t cancelled = 0;
  for (auto _ : state) {
    cancelled += sim.cancel(pending[oldest]);
    pending[oldest] = sim.schedule_after(
        Duration::us(static_cast<std::int64_t>(rng.uniform(1000))), [] {});
    oldest = (oldest + 1) % horizon;
    if ((cancelled & 0xff) == 0) sim.step();
  }
  benchmark::DoNotOptimize(cancelled);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1000)->Arg(100000);

void BM_EventQueueWindowed(benchmark::State& state) {
  // Gossip-shaped kernel load driven the way the engine drives a shard:
  // state.range(0) long-period protocol timers share the queue with a few
  // short-delay chains (a datagram's hops through pipes and NICs), and
  // each iteration is one BSP window — open_window, run_before,
  // advance_to. The timers wait in the far tier while the chains cycle
  // through a near tier of a handful of entries. Items are dispatched
  // events.
  struct Load {
    sim::Simulation sim;
    Rng rng{1};
    void timer(Duration first, Duration period) {
      sim.schedule_after(first, [this, period] { timer(period, period); });
    }
    void chain() {
      sim.schedule_after(
          Duration::us(1 + static_cast<std::int64_t>(rng.uniform(30))),
          [this] { chain(); });
    }
  } load;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    load.timer(
        Duration::us(static_cast<std::int64_t>(load.rng.uniform(1'000'000))),
        Duration::ms(500 + static_cast<std::int64_t>(load.rng.uniform(500))));
  }
  for (int c = 0; c < 6; ++c) load.chain();
  const Duration window = Duration::us(100);
  SimTime end = SimTime::zero();
  for (auto _ : state) {
    end = end + window;
    load.sim.open_window(end);
    load.sim.run_before(end);
    load.sim.advance_to(end);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(load.sim.dispatched_events()));
}
BENCHMARK(BM_EventQueueWindowed)->Arg(200);

// One pnode's rule table as Platform::compile_rules lays it out: two /32
// access rules per hosted vnode (out on the source, in on the
// destination), then four outbound inter-zone group rules.
void add_fold_rules(ipfw::Firewall& fw, std::uint32_t vnodes) {
  const ipfw::PipeId up = fw.create_pipe({});
  const ipfw::PipeId down = fw.create_pipe({});
  const Ipv4Addr zone = *Ipv4Addr::parse("10.1.0.0");
  std::uint32_t number = 100;
  for (std::uint32_t i = 0; i < vnodes; ++i) {
    const CidrBlock host{zone.offset(i + 1), 32};
    fw.add_rule({.number = number++, .src = host, .dst = CidrBlock::any(),
                 .dir = ipfw::RuleDir::kOut,
                 .action = ipfw::RuleAction::kPipe, .pipe = up});
    fw.add_rule({.number = number++, .src = CidrBlock::any(), .dst = host,
                 .dir = ipfw::RuleDir::kIn,
                 .action = ipfw::RuleAction::kPipe, .pipe = down});
  }
  for (std::uint32_t z = 0; z < 4; ++z) {
    fw.add_rule({.number = 60000 + z, .src = CidrBlock{zone, 16},
                 .dst = CidrBlock{zone.offset((z + 1) << 16), 16},
                 .dir = ipfw::RuleDir::kOut,
                 .action = ipfw::RuleAction::kPipe, .pipe = up});
  }
}

// Per-packet classification. Args {vnodes, fillers}: a fold-shaped table
// whose packets alternate outbound and inbound over every hosted vnode,
// or the Figure 6 table of never-matching fillers that a ping walks end
// to end.
void BM_FirewallClassify(benchmark::State& state) {
  sim::Simulation sim;
  ipfw::Firewall fw(sim, {}, Rng{1});
  const auto vnodes = static_cast<std::uint32_t>(state.range(0));
  add_fold_rules(fw, vnodes);
  fw.add_filler_rules(100000, static_cast<std::uint32_t>(state.range(1)));
  const Ipv4Addr zone = *Ipv4Addr::parse("10.1.0.0");
  const Ipv4Addr remote = *Ipv4Addr::parse("10.3.0.7");
  std::uint32_t i = 0;
  std::uint64_t scanned = 0;
  for (auto _ : state) {
    const Ipv4Addr local = zone.offset(i % std::max(vnodes, 1u) + 1);
    const bool out = (i++ & 1) == 0;
    const auto result =
        out ? fw.classify(local, remote, ipfw::RuleDir::kOut)
            : fw.classify(remote, local, ipfw::RuleDir::kIn);
    scanned += result.rules_scanned;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rules_scanned"] = benchmark::Counter(
      static_cast<double>(scanned), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FirewallClassify)
    ->Args({32, 0})
    ->Args({1000, 0})
    ->Args({0, 50000});

// Rule setup: a fold-shaped table of N vnodes (2N + 4 add_rule calls)
// plus the first classify, which builds the index. Linear in N.
void BM_FirewallSetup(benchmark::State& state) {
  const auto vnodes = static_cast<std::uint32_t>(state.range(0));
  const Ipv4Addr src = *Ipv4Addr::parse("10.1.0.1");
  const Ipv4Addr dst = *Ipv4Addr::parse("10.3.0.7");
  for (auto _ : state) {
    sim::Simulation sim;
    ipfw::Firewall fw(sim, {}, Rng{1});
    add_fold_rules(fw, vnodes);
    benchmark::DoNotOptimize(fw.classify(src, dst, ipfw::RuleDir::kOut));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (2 * state.range(0) + 4));
}
BENCHMARK(BM_FirewallSetup)
    ->Arg(2000)
    ->Arg(8000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_PipeTransit(benchmark::State& state) {
  sim::Simulation sim;
  ipfw::Pipe pipe(sim,
                  {.bandwidth = Bandwidth::gbps(10),
                   .queue_limit = DataSize::mib(64)},
                  Rng{1});
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    pipe.enqueue(ipfw::Pipe::Segment{.size = DataSize::kib(16),
                                     .flow = delivered % 8,
                                     .on_exit = [&delivered] { ++delivered; }});
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_PipeTransit);

// DRR with a standing backlog: state.range(0) flows x state.range(1)
// segments queued behind a busy server, then drained. BM_PipeTransit above
// never queues, so it does not reach the DRR bookkeeping.
void BM_PipeDrrBacklog(benchmark::State& state) {
  sim::Simulation sim;
  ipfw::Pipe pipe(sim,
                  {.bandwidth = Bandwidth::gbps(10),
                   .queue_limit = DataSize::mib(64)},
                  Rng{1});
  const auto flows = static_cast<ipfw::FlowId>(state.range(0));
  const auto per_flow = state.range(1);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    for (std::int64_t k = 0; k < per_flow; ++k) {
      for (ipfw::FlowId f = 0; f < flows; ++f) {
        pipe.enqueue(ipfw::Pipe::Segment{
            .size = DataSize::bytes(1500),
            .flow = f,
            .on_exit = [&delivered] { ++delivered; }});
      }
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_PipeDrrBacklog)->Args({8, 16})->Args({64, 4});

// Connection churn: every burst is a flow id the pipe has never seen, so
// each one joins the ring and the flow index and leaves them drained.
void BM_PipeFlowChurn(benchmark::State& state) {
  sim::Simulation sim;
  ipfw::Pipe pipe(sim,
                  {.bandwidth = Bandwidth::gbps(10),
                   .queue_limit = DataSize::mib(64)},
                  Rng{1});
  const auto burst = state.range(0);
  ipfw::FlowId next_flow = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    // Two fresh flows per burst, so the second one queues behind the first.
    for (int f = 0; f < 2; ++f, ++next_flow) {
      for (std::int64_t k = 0; k < burst; ++k) {
        pipe.enqueue(ipfw::Pipe::Segment{
            .size = DataSize::bytes(1500),
            .flow = next_flow,
            .on_exit = [&delivered] { ++delivered; }});
      }
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_PipeFlowChurn)->Arg(4);

void BM_Sha1Throughput(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(16 * 1024)->Arg(256 * 1024);

void BM_PickerPick(benchmark::State& state) {
  const auto meta =
      bt::MetaInfo::make_synthetic("f", DataSize::mib(16), 1, false);
  bt::PieceStore store(meta, false);
  bt::PiecePicker picker(meta, store, Rng{1});
  bt::Bitfield have(meta.piece_count());
  have.set_all();
  picker.peer_has_bitfield(have);
  for (auto _ : state) {
    const auto ref = picker.pick(have);
    benchmark::DoNotOptimize(ref);
    if (ref) {
      picker.on_requested(*ref);
      picker.on_request_discarded(*ref);  // keep state steady
    }
  }
}
BENCHMARK(BM_PickerPick);

void BM_PingRoundTrip(benchmark::State& state) {
  // Whole-platform packet path cost (both directions, all layers).
  core::Platform platform(topology::homogeneous_dsl(2),
                          core::PlatformConfig{.physical_nodes = 2});
  for (auto _ : state) {
    const auto rtt = platform.ping(0, 1);
    benchmark::DoNotOptimize(rtt);
  }
}
BENCHMARK(BM_PingRoundTrip);

}  // namespace

BENCHMARK_MAIN();
