// Hot-path allocation microbench: the headline number behind the
// zero-allocation work (pooled packets + inline event callbacks).
//
// Four phases, all measured after a warmup so slabs, pools, pipe queues
// and socket queues are at steady-state capacity. Each times its measured
// work as kWindows equal windows and reports the median window's rate, so
// one window slowed by a neighbour on a shared box does not move the
// result:
//
//   events:  self-rescheduling timer chains through the bare simulation
//            kernel driven by step() — isolates schedule/dispatch cost.
//   windowed: the same chains plus long-period protocol timers, driven the
//            way Engine::worker drives a shard: the kernel's calendar on a
//            lookahead grid and one open_window / run_before / advance_to
//            per window holding the next event — the route every shipped
//            run takes.
//   packets: a ping-pong workload between two shaped hosts through the
//            route every Platform run takes (firewall scan, Dummynet pipes
//            with deferred delays, NIC tx + switch folded into the fabric
//            stamp, NIC rx, demux delivery) — the per-packet cost that
//            bounds the paper's Figs 6/9/10 reproduction. The bare Network
//            has no engine handoff, so it schedules its own fabric arrival
//            at the same stamp.
//   messages: datagram and stream ping-pong through a SocketManager on the
//            same two shaped hosts — the socket layer's per-message cost.
//            Every message reuses one body allocated up front, and the
//            handlers capture more than std::function's 16-byte small-object
//            budget, as application handlers do; the claim is that the
//            socket layer adds no allocation per message.
//
// Allocations are counted by interposing the global operator new/delete of
// this binary (an atomic tick per call; works in every build type). The
// steady-state claim is "allocations/event ~ 0 and the InlineCallback
// heap-fallback counter stays flat over the measured window".
//
// Rates follow the box's speed, and a shared box drifts. The bench also
// times a fixed reference loop (reference_seconds below) before and after
// the phases and reports each rate scaled by it — the units done in one
// reference loop's time, which holds still when the whole box slows down.
// The gate script (scripts/bench_gate.sh) enforces floors on these scaled
// rates against the committed baseline.
//
// Output: CSV on stdout plus the standardized BENCH_hotpath.json (also
// into $P2PLAB_RESULTS_DIR when set).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench_env.hpp"
#include "common/ipv4.hpp"
#include "common/rng.hpp"
#include "core/bench_report.hpp"
#include "net/network.hpp"
#include "profile/profiler.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulation.hpp"
#include "sockets/socket.hpp"
#include "vnode/vnode.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

/// Every delete below frees through here. Out of line, so that gcc does not
/// see an inlined delete's free() meet the interposed operator new's
/// pointer and warn (-Wmismatched-new-delete) about a pairing that is this
/// file's own malloc and free.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Interposed allocation counter. Covers every operator-new form the
// platform uses; deletes are forwarded untouched (the count of interest is
// allocations, and free() of nullptr-safe storage needs no bookkeeping).
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace p2plab {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

/// Wall seconds of a fixed loop shaped like the kernel's hot loop and
/// independent of the emulator's code: pop the earliest of 4 k pending
/// timestamps from a binary heap, update a word of 256 KiB of scattered
/// state, push a follow-up. Like the phases it stays in cache, so it
/// tracks the core's speed rather than memory contention. The best of
/// three runs, so one preemption does not count.
double reference_seconds() {
  constexpr std::uint32_t kPending = 1 << 12;
  constexpr std::uint32_t kStateWords = 1 << 15;
  constexpr int kSteps = 200'000;
  // Static: the bench interposes operator new, and the loop's memory is
  // no part of what it counts.
  static std::uint64_t state[kStateWords];
  static std::pair<std::uint64_t, std::uint32_t> heap[kPending];
  const auto later = [](const auto& a, const auto& b) {
    return a.first > b.first;
  };
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  double best = 0.0;
  std::uint64_t sum = 0;
  for (int run = 0; run < 3; ++run) {
    for (std::uint32_t node = 0; node < kPending; ++node) {
      heap[node] = {next() % 1'000'000, node};
    }
    std::make_heap(std::begin(heap), std::end(heap), later);
    const bench::WallTimer timer;
    for (int step = 0; step < kSteps; ++step) {
      std::pop_heap(std::begin(heap), std::end(heap), later);
      auto& [at, node] = heap[kPending - 1];
      std::uint64_t& word =
          state[(node * 2654435761ULL + at) & (kStateWords - 1)];
      word += at;
      sum += (word & 0xff) != 0 ? word : 1;
      at += 1 + next() % 10'000;
      std::push_heap(std::begin(heap), std::end(heap), later);
    }
    const double seconds = timer.elapsed_seconds();
    best = run == 0 ? seconds : std::min(best, seconds);
  }
  static volatile std::uint64_t sink = 0;
  sink = sink + sum;
  return best;
}

struct PhaseResult {
  double wall_seconds = 0.0;   // all windows
  double rate = 0.0;           // units per second of the median window
  std::uint64_t units = 0;     // events or packets
  std::uint64_t events = 0;    // kernel events dispatched in the window
  std::uint64_t allocs = 0;    // operator-new calls in the window
  std::uint64_t fallbacks = 0;  // InlineCallback heap fallbacks in the window
  std::uint64_t start_ns = 0;  // profiler clock at window start
};

constexpr std::size_t kWindows = 5;

/// Runs a phase's measured work, units `from` to `from + total`, as
/// kWindows equal windows: `run_to(target)` advances the phase until
/// `units()` reaches `target`. Sets r.wall_seconds and r.rate.
template <typename RunTo, typename Units>
void time_windows(PhaseResult& r, std::uint64_t from, std::uint64_t total,
                  RunTo run_to, Units units) {
  std::array<double, kWindows> rates{};
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::uint64_t begin = units();
    const bench::WallTimer timer;
    run_to(from + total * (w + 1) / kWindows);
    const double seconds = timer.elapsed_seconds();
    r.wall_seconds += seconds;
    rates[w] =
        seconds > 0 ? static_cast<double>(units() - begin) / seconds : 0.0;
  }
  std::nth_element(rates.begin(), rates.begin() + kWindows / 2, rates.end());
  r.rate = rates[kWindows / 2];
}

/// A timer that reschedules itself every `period`. Each event captures
/// what the network layer's completion closures capture — a few pointers
/// plus a handle-sized payload (~32 bytes). That is over std::function's
/// small-object budget but well inside InlineCallback's, which is exactly
/// the gap being measured.
struct Chain {
  sim::Simulation* sim;
  std::uint64_t* fired;
  Duration period;
  void arm() {
    sim->schedule_after(period,
                        [this, fired = fired, tick = std::uint64_t{0}] {
                          ++*fired;
                          (void)tick;
                          arm();
                        });
  }
};

/// Phase 1: raw kernel throughput. `chains` timers each reschedule
/// themselves until `total` events have been dispatched.
PhaseResult run_event_phase(profile::Profiler& prof, std::uint64_t warmup,
                            std::uint64_t total, std::size_t chains) {
  sim::Simulation sim;
  std::uint64_t fired = 0;
  std::vector<Chain> all(chains);
  for (std::size_t i = 0; i < chains; ++i) {
    all[i] = Chain{&sim, &fired, Duration::us(10 + static_cast<int>(i))};
    all[i].arm();
  }
  while (sim.dispatched_events() < warmup) sim.step();

  const std::uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events0 = sim.dispatched_events();
  const std::uint64_t fb0 = sim::InlineCallback::heap_fallbacks();
  PhaseResult r;
  r.start_ns = prof.now_ns();
  time_windows(
      r, warmup, total,
      [&](std::uint64_t target) {
        while (sim.dispatched_events() < target) sim.step();
      },
      [&] { return sim.dispatched_events(); });
  r.events = sim.dispatched_events() - events0;
  r.units = r.events;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  r.fallbacks = sim::InlineCallback::heap_fallbacks() - fb0;
  return r;
}

/// Phase 2: the engine's window loop over one shard's kernel. `chains`
/// timers as in phase 1 share the queue with `timers` protocol timers of
/// 5-50 ms periods (some beyond the calendar's span); each window is the
/// lookahead-grid cell holding the next event, as Engine::coordinate
/// picks it.
PhaseResult run_windowed_phase(profile::Profiler& prof, std::uint64_t warmup,
                               std::uint64_t total, std::size_t chains,
                               std::size_t timers) {
  const Duration lookahead = Duration::us(40);
  sim::Simulation sim;
  sim.set_lookahead(lookahead);
  std::uint64_t fired = 0;
  std::vector<Chain> all;
  all.reserve(chains + timers);
  for (std::size_t i = 0; i < chains; ++i) {
    all.push_back(Chain{&sim, &fired, Duration::us(10 + static_cast<int>(i))});
  }
  Rng rng(7);
  for (std::size_t i = 0; i < timers; ++i) {
    all.push_back(Chain{
        &sim, &fired,
        Duration::us(5'000 + static_cast<std::int64_t>(rng.uniform(45'000)))});
  }
  for (Chain& c : all) c.arm();
  const std::int64_t l_ns = lookahead.count_ns();
  auto run_windows = [&](std::uint64_t until) {
    while (sim.dispatched_events() < until) {
      const SimTime next = *sim.next_event_time();
      const SimTime end = SimTime::from_ns((next.count_ns() / l_ns + 1) * l_ns);
      sim.open_window(end);
      sim.run_before(end);
      sim.advance_to(end);
      sim.maybe_compact();
    }
  };
  run_windows(warmup);

  const std::uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events0 = sim.dispatched_events();
  const std::uint64_t fb0 = sim::InlineCallback::heap_fallbacks();
  PhaseResult r;
  r.start_ns = prof.now_ns();
  time_windows(r, warmup, total, run_windows,
               [&] { return sim.dispatched_events(); });
  r.events = sim.dispatched_events() - events0;
  r.units = r.events;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  r.fallbacks = sim::InlineCallback::heap_fallbacks() - fb0;
  return r;
}

/// The paper's standard vnode access link: shaped bandwidth and delay on
/// both directions of the host, via pipe rules like core/platform.
void shape_access_link(net::Host* host) {
  const CidrBlock self{host->admin_ip(), 32};
  const ipfw::PipeId up = host->firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(100), .delay = Duration::ms(1)});
  const ipfw::PipeId down = host->firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(100), .delay = Duration::ms(1)});
  host->firewall().add_rule({.number = 100,
                             .src = self,
                             .dir = ipfw::RuleDir::kOut,
                             .action = ipfw::RuleAction::kPipe,
                             .pipe = up});
  host->firewall().add_rule({.number = 110,
                             .dst = self,
                             .dir = ipfw::RuleDir::kIn,
                             .action = ipfw::RuleAction::kPipe,
                             .pipe = down});
}

/// Phase 3: the full per-packet path. Two hosts with shaped access links
/// ping-pong `inflight` packets; the demux response is the only
/// application logic, so the measured cost is the emulated network itself.
PhaseResult run_packet_phase(profile::Profiler& prof, std::uint64_t warmup,
                             std::uint64_t total, std::size_t inflight) {
  sim::Simulation sim;
  net::Network network{sim, Rng{42}};
  const Ipv4Addr addr_a = ip("192.168.38.1");
  const Ipv4Addr addr_b = ip("192.168.38.2");
  net::Host& a = network.add_host("a", addr_a);
  net::Host& b = network.add_host("b", addr_b);
  shape_access_link(&a);
  shape_access_link(&b);

  std::uint64_t delivered = 0;
  auto make_packet = [](Ipv4Addr src, Ipv4Addr dst, std::uint64_t flow) {
    net::Packet p;
    p.src = src;
    p.dst = dst;
    p.src_port = 7;
    p.dst_port = 7;
    p.wire_size = DataSize::bytes(1500);
    p.flow = flow;
    return p;
  };
  // The demux is the steady-state driver: every delivery sends the reply.
  network.set_socket_demux([&](net::Packet&& p) {
    ++delivered;
    network.send(make_packet(p.dst, p.src, p.flow));
  });
  for (std::size_t i = 0; i < inflight; ++i) {
    network.send(make_packet(addr_a, addr_b, 1000 + i));
  }

  while (delivered < warmup && sim.step()) {
  }
  const std::uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events0 = sim.dispatched_events();
  const std::uint64_t delivered0 = delivered;
  const std::uint64_t fb0 = sim::InlineCallback::heap_fallbacks();
  PhaseResult r;
  r.start_ns = prof.now_ns();
  time_windows(
      r, delivered0, total,
      [&](std::uint64_t target) {
        while (delivered < target && sim.step()) {
        }
      },
      [&] { return delivered; });
  r.units = delivered - delivered0;
  r.events = sim.dispatched_events() - events0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  r.fallbacks = sim::InlineCallback::heap_fallbacks() - fb0;
  return r;
}

/// Phase 4: the socket layer. Over the phase 3 hosts, `inflight` datagrams
/// bounce between two UDP sockets and `inflight` messages between the two
/// ends of one stream connection; each delivery sends the reply. The
/// warmup is in simulated time: it spans the first retransmission-timer
/// cycles (the 1 s RTO floor), after which the kernel's queues hold their
/// steady size.
PhaseResult run_message_phase(profile::Profiler& prof, Duration warmup,
                              std::uint64_t total, std::size_t inflight) {
  sim::Simulation sim;
  net::Network network{sim, Rng{42}};
  sockets::SocketManager mgr{network};
  net::Host& a = network.add_host("a", ip("192.168.38.1"));
  net::Host& b = network.add_host("b", ip("192.168.38.2"));
  shape_access_link(&a);
  shape_access_link(&b);
  vnode::VirtualNode node_a{a, 1, ip("10.0.0.1")};
  vnode::VirtualNode node_b{b, 2, ip("10.0.0.2")};
  vnode::Process proc_a{node_a};
  vnode::Process proc_b{node_b};
  sockets::SocketApi api_a{mgr, proc_a};
  sockets::SocketApi api_b{mgr, proc_b};

  std::uint64_t delivered = 0;
  const std::shared_ptr<const void> body = std::make_shared<const int>(0);
  const auto message = [&body] {
    return sockets::Message{.type = 1,
                            .size = DataSize::bytes(1024),
                            .body = body};
  };

  // Datagrams: each end answers to the sender's address. The handlers
  // capture three pointers, 24 bytes.
  const sockets::DatagramSocketPtr udp_a = api_a.udp_bind(5000);
  const sockets::DatagramSocketPtr udp_b = api_b.udp_bind(5000);
  for (sockets::DatagramSocket* sock : {udp_a.get(), udp_b.get()}) {
    sock->on_message([sock, &delivered, &message](sockets::Message&&,
                                                  Ipv4Addr from,
                                                  std::uint16_t port) {
      ++delivered;
      sock->send_to(from, port, message());
    });
  }
  for (std::size_t i = 0; i < inflight; ++i) {
    udp_a->send_to(udp_b->local_ip(), 5000, message());
  }

  // A stream: both ends echo every message back.
  const auto echo = [&delivered, &message](
                        const sockets::StreamSocketPtr& sock) {
    sock->on_message([raw = sock.get(), &delivered, &message](
                         sockets::Message&&) {
      ++delivered;
      raw->send(message());
    });
  };
  sockets::StreamSocketPtr client;
  sockets::StreamSocketPtr server;
  const sockets::ListenerPtr listener =
      api_b.listen(6881, [&](sockets::StreamSocketPtr s) {
        server = s;
        echo(s);
      });
  api_a.connect(ip("10.0.0.2"), 6881, [&](sockets::StreamSocketPtr s) {
    client = s;
    echo(s);
    for (std::size_t i = 0; i < inflight; ++i) s->send(message());
  });

  while (sim.now() < SimTime::zero() + warmup && sim.step()) {
  }
  const std::uint64_t alloc0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events0 = sim.dispatched_events();
  const std::uint64_t delivered0 = delivered;
  const std::uint64_t fb0 = sim::InlineCallback::heap_fallbacks();
  PhaseResult r;
  r.start_ns = prof.now_ns();
  time_windows(
      r, delivered0, total,
      [&](std::uint64_t target) {
        while (delivered < target && sim.step()) {
        }
      },
      [&] { return delivered; });
  r.units = delivered - delivered0;
  r.events = sim.dispatched_events() - events0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - alloc0;
  r.fallbacks = sim::InlineCallback::heap_fallbacks() - fb0;
  // A dialed socket owns itself until teardown: close both ends so the
  // phase releases them.
  for (const sockets::StreamSocketPtr& s : {client, server}) {
    if (s) s->close();
  }
  return r;
}

int run(int argc, char** argv) {
  const bool profiling = bench::profile_enabled(argc, argv);
  constexpr std::uint64_t kEventTotal = 4'000'000;
  constexpr std::uint64_t kPacketTotal = 400'000;
  constexpr std::uint64_t kMessageTotal = 400'000;

  // The profiler always exists (one ring, one phase-level sample per
  // measured window — two clock reads outside the hot loops); `profiling`
  // only controls whether the timeline and rollup are emitted. That keeps
  // the gate's "with profiling on" run identical in work to the baseline.
  profile::Profiler prof(1);
  const double reference_before = reference_seconds();
  const PhaseResult ev =
      run_event_phase(prof, kEventTotal / 10, kEventTotal, /*chains=*/64);
  const PhaseResult win =
      run_windowed_phase(prof, kEventTotal / 10, kEventTotal, /*chains=*/64,
                         /*timers=*/256);
  const PhaseResult pk =
      run_packet_phase(prof, kPacketTotal / 10, kPacketTotal,
                       /*inflight=*/64);
  const PhaseResult msg =
      run_message_phase(prof, Duration::sec(2), kMessageTotal,
                        /*inflight=*/16);
  const double reference =
      (reference_before + reference_seconds()) / 2.0;
  for (std::uint64_t window = 0;
       const PhaseResult* r : {&ev, &win, &pk, &msg}) {
    profile::PhaseSample sample;
    sample.start_ns = r->start_ns;
    sample.dur_ns =
        static_cast<std::uint64_t>(r->wall_seconds * 1e9);
    sample.window = window++;
    sample.events = r->events;
    sample.phase = profile::Phase::kExecute;
    prof.shard_ring(0).push(sample);
  }

  const double events_per_second = ev.rate;
  const double windowed_events_per_second = win.rate;
  const double packets_per_second = pk.rate;
  const double messages_per_second = msg.rate;
  const double ev_allocs_per_event =
      ev.events > 0 ? static_cast<double>(ev.allocs) /
                          static_cast<double>(ev.events)
                    : 0.0;
  const double win_allocs_per_event =
      win.events > 0 ? static_cast<double>(win.allocs) /
                           static_cast<double>(win.events)
                     : 0.0;
  const double pk_allocs_per_event =
      pk.events > 0 ? static_cast<double>(pk.allocs) /
                          static_cast<double>(pk.events)
                    : 0.0;
  const double msg_allocs_per_message =
      msg.units > 0 ? static_cast<double>(msg.allocs) /
                          static_cast<double>(msg.units)
                    : 0.0;

  std::printf("phase,units,events,wall_seconds,units_per_second,allocs,"
              "allocs_per_event\n");
  std::printf("events,%llu,%llu,%.6f,%.0f,%llu,%.6f\n",
              static_cast<unsigned long long>(ev.units),
              static_cast<unsigned long long>(ev.events), ev.wall_seconds,
              events_per_second, static_cast<unsigned long long>(ev.allocs),
              ev_allocs_per_event);
  std::printf("windowed,%llu,%llu,%.6f,%.0f,%llu,%.6f\n",
              static_cast<unsigned long long>(win.units),
              static_cast<unsigned long long>(win.events), win.wall_seconds,
              windowed_events_per_second,
              static_cast<unsigned long long>(win.allocs),
              win_allocs_per_event);
  std::printf("packets,%llu,%llu,%.6f,%.0f,%llu,%.6f\n",
              static_cast<unsigned long long>(pk.units),
              static_cast<unsigned long long>(pk.events), pk.wall_seconds,
              packets_per_second, static_cast<unsigned long long>(pk.allocs),
              pk_allocs_per_event);
  std::printf("messages,%llu,%llu,%.6f,%.0f,%llu,%.6f\n",
              static_cast<unsigned long long>(msg.units),
              static_cast<unsigned long long>(msg.events), msg.wall_seconds,
              messages_per_second, static_cast<unsigned long long>(msg.allocs),
              msg.events > 0 ? static_cast<double>(msg.allocs) /
                                   static_cast<double>(msg.events)
                             : 0.0);

  std::vector<std::pair<std::string, double>> fields = {
      {"cores", static_cast<double>(profile::Profiler::online_cores())},
      {"events", static_cast<double>(ev.events)},
      {"wall_seconds", ev.wall_seconds},
      {"events_per_second", events_per_second},
      {"windowed_events", static_cast<double>(win.events)},
      {"windowed_events_per_second", windowed_events_per_second},
      {"packets", static_cast<double>(pk.units)},
      {"packets_per_second", packets_per_second},
      {"messages", static_cast<double>(msg.units)},
      {"messages_per_second", messages_per_second},
      // The gated rates: units done in one reference loop's time.
      {"reference_seconds", reference},
      {"events_per_reference", events_per_second * reference},
      {"windowed_events_per_reference",
       windowed_events_per_second * reference},
      {"packets_per_reference", packets_per_second * reference},
      {"messages_per_reference", messages_per_second * reference},
      {"event_allocs_per_event", ev_allocs_per_event},
      {"windowed_allocs_per_event", win_allocs_per_event},
      {"packet_allocs_per_event", pk_allocs_per_event},
      {"message_allocs_per_message", msg_allocs_per_message},
      // "stays flat over the run" is the steady-state claim the gate
      // checks: fallbacks in the measured windows, not since process start.
      {"callback_heap_fallbacks",
       static_cast<double>(ev.fallbacks + win.fallbacks + pk.fallbacks +
                           msg.fallbacks)},
      {"peak_rss_bytes", static_cast<double>(core::peak_rss_bytes())}};
  if (profiling) {
    const profile::Rollup roll = prof.rollup();
    fields.emplace_back("shard0_utilization_pct",
                        roll.shards[0].utilization_pct);
    fields.emplace_back("barrier_wait_share", roll.barrier_wait_share);
    fields.emplace_back("merge_share", roll.merge_share);
    fields.emplace_back("imbalance_ratio", roll.imbalance_ratio);
    fields.emplace_back("profile_ring_dropped",
                        static_cast<double>(roll.ring_dropped));
    prof.write_perfetto_to_results("profile_hotpath.json");
  }
  core::write_bench_json("hotpath_alloc", "BENCH_hotpath", fields);
  return 0;
}

}  // namespace
}  // namespace p2plab

int main(int argc, char** argv) { return p2plab::run(argc, argv); }
