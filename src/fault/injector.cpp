#include "fault/injector.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "metrics/recorder.hpp"

namespace p2plab::fault {

FaultInjector::FaultInjector(core::Platform& platform, FaultPlan plan)
    : platform_(platform), plan_(std::move(plan)) {
  plan_.sort();
}

void FaultInjector::bind_metrics(metrics::Registry& reg) {
  metrics_.injected = reg.counter("fault.injected");
  metrics_.recovered = reg.counter("fault.recovered");
  metrics_.active = reg.gauge("fault.active");
}

sim::Simulation& FaultInjector::sim_for(const FaultSpec& spec) {
  const std::size_t vnode =
      spec.kind == FaultKind::kTrackerOutage ? 0 : spec.node;
  return platform_.sim_of_vnode(vnode);
}

void FaultInjector::arm() {
  P2PLAB_ASSERT_MSG(!armed_, "FaultInjector::arm called twice");
  armed_ = true;
  std::uint64_t next_id = 0;
  for (const FaultSpec& spec : plan_.specs()) {
    const std::uint64_t id = next_id++;
    // Each fault is scheduled on the simulation owning its target, so the
    // injection executes on that shard's worker thread and only ever
    // touches that shard's infrastructure. Closures point into plan_,
    // which is never changed after arm(), instead of copying the spec:
    // that keeps them within InlineCallback's inline budget.
    sim::Simulation& sim = sim_for(spec);
    const SimTime at = spec.at < sim.now() ? sim.now() : spec.at;
    sim.schedule_at(at, [this, spec = &spec, id] { inject(*spec, id); });
  }
}

void FaultInjector::mark_injected(const FaultSpec& spec, std::uint64_t id,
                                  SimTime at) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.injected;
    metrics_.injected.inc();
    metrics_.active.set(static_cast<double>(stats_.unrecovered()));
  }
  P2PLAB_TRACE(at, "fault", "fault_injected",
               {{"id", id},
                {"type", fault_kind_name(spec.kind)},
                {"node", spec.node}});
}

void FaultInjector::mark_recovered(const FaultSpec& spec, std::uint64_t id,
                                   SimTime at) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.recovered;
    metrics_.recovered.inc();
    metrics_.active.set(static_cast<double>(stats_.unrecovered()));
  }
  P2PLAB_TRACE(at, "fault", "fault_recovered",
               {{"id", id},
                {"type", fault_kind_name(spec.kind)},
                {"node", spec.node}});
}

void FaultInjector::inject(const FaultSpec& spec, std::uint64_t id) {
  sim::Simulation& sim = sim_for(spec);
  mark_injected(spec, id, sim.now());

  switch (spec.kind) {
    case FaultKind::kCrash:
      // Infrastructure dies first (sockets aborted silently, address
      // detached), then the application forgets its session state; with
      // the sockets already closed, nothing the hook does can leak onto
      // the wire.
      platform_.crash_vnode(spec.node);
      if (node_hooks_.on_crash) node_hooks_.on_crash(spec.node);
      if (spec.rejoin) {
        sim.schedule_after(spec.duration, [this, spec = &spec, id] {
          platform_.rejoin_vnode(spec->node);
          if (node_hooks_.on_rejoin) node_hooks_.on_rejoin(spec->node);
          mark_recovered(*spec, id, sim_for(*spec).now());
        });
      } else {
        // Permanent departure: the teardown itself is the recovery — the
        // platform is in its intended post-fault state right away.
        mark_recovered(spec, id, sim_for(spec).now());
      }
      break;

    case FaultKind::kLeave:
      if (node_hooks_.on_leave) node_hooks_.on_leave(spec.node);
      // The grace period lets the farewell traffic (stopped announce,
      // FINs) drain before the address disappears.
      sim.schedule_after(kLeaveGrace, [this, spec = &spec, id] {
        platform_.crash_vnode(spec->node);
        mark_recovered(*spec, id, sim_for(*spec).now());
      });
      break;

    // Link windows of one kind may overlap on one vnode: each closes only
    // itself (the platform nests downs, sums spikes and keeps the newest
    // open burst override in force).
    case FaultKind::kLinkDown:
      platform_.set_link_down(spec.node, true);
      sim.schedule_after(spec.duration, [this, spec = &spec, id] {
        platform_.set_link_down(spec->node, false);
        mark_recovered(*spec, id, sim_for(*spec).now());
      });
      break;

    case FaultKind::kLatencySpike:
      platform_.add_link_latency(spec.node, spec.extra_latency);
      sim.schedule_after(spec.duration, [this, spec = &spec, id] {
        platform_.add_link_latency(spec->node, -spec->extra_latency);
        mark_recovered(*spec, id, sim_for(*spec).now());
      });
      break;

    case FaultKind::kBurstLoss: {
      const std::uint64_t window =
          platform_.open_burst_loss(spec.node, spec.burst);
      sim.schedule_after(spec.duration, [this, spec = &spec, id, window] {
        platform_.close_burst_loss(spec->node, window);
        mark_recovered(*spec, id, sim_for(*spec).now());
      });
      break;
    }

    case FaultKind::kTrackerOutage: {
      // Overlapping outage windows refcount: the tracker restores when the
      // last window closes. (All tracker faults run on vnode 0's shard, so
      // the lock is for the header's invariant, not contention.)
      bool first;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        first = ++tracker_outages_ == 1;
      }
      if (first && service_hooks_.on_tracker_outage) {
        service_hooks_.on_tracker_outage();
      }
      sim.schedule_after(spec.duration, [this, spec = &spec, id] {
        bool last;
        {
          const std::lock_guard<std::mutex> lock(mu_);
          last = --tracker_outages_ == 0;
        }
        if (last && service_hooks_.on_tracker_restore) {
          service_hooks_.on_tracker_restore();
        }
        mark_recovered(*spec, id, sim_for(*spec).now());
      });
      break;
    }
  }
}

}  // namespace p2plab::fault
