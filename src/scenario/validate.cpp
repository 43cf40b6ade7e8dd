#include "scenario/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ipfw/pipe.hpp"
#include "metrics/stats.hpp"
#include "metrics/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/workload.hpp"

namespace p2plab::scenario {

namespace {

// Harness ports, clear of the swarm's (tracker 7000, peers 6881).
constexpr std::uint16_t kGoodputPortBase = 5000;
constexpr std::uint16_t kFairPortBase = 5100;
constexpr std::uint16_t kLossPort = 40002;
constexpr int kRttRepeats = 3;
constexpr std::uint64_t kRttPayloadBytes = 8;
constexpr std::uint64_t kLossPayloadBytes = 100;

/// The Gilbert-Elliott chain the loss phase injects on the probe target's
/// access link (fault-overlay path, like `burstloss` faults): ~6.7 %
/// stationary loss, in bad-state runs of ~4 datagrams.
constexpr ipfw::GilbertElliott kLossProbe{
    .p_good_to_bad = 0.02, .p_bad_to_good = 0.25, .loss_bad = 0.9};
// Pass bands: relative error for goodput, RTT and loss; an absolute floor
// for the Jain index.
constexpr double kGoodputTolerance = 0.12;
constexpr double kRttTolerance = 0.10;
constexpr double kLossTolerance = 0.25;
constexpr double kJainMin = 0.95;

double serialize_secs(Bandwidth bw, double wire_bytes) {
  if (bw.is_unlimited()) return 0.0;
  return wire_bytes * 8.0 / static_cast<double>(bw.count_bps());
}

bool within(double measured, double expected, double tolerance) {
  return std::abs(measured - expected) <=
         tolerance * std::max(expected, 1e-12);
}

}  // namespace

ValidateHarness::ValidateHarness(core::Platform& platform,
                                 const ScenarioSpec& spec)
    : platform_(platform),
      spec_(spec),
      params_(spec.validate),
      topo_(spec.topology.built
                ? *spec.topology.built
                : topology::homogeneous_dsl(spec.vnodes(),
                                            spec.topology.auto_link)) {
  // Node zones in vnode order, clamped to the nodes the workload occupies
  // (an inline topology may be bigger than the harness).
  std::size_t first = 0;
  for (const topology::Zone& z : topo_.zones()) {
    if (z.node_count == 0) continue;  // latency-aggregate container zone
    if (first >= params_.nodes) break;
    zones_.push_back(NodeZone{z.name, first,
                              std::min(z.node_count, params_.nodes - first),
                              z.link});
    first += z.node_count;
  }
}

std::vector<InvariantResult> ValidateHarness::run() {
  std::vector<InvariantResult> out;
  phase_goodput(out);
  phase_rtt(out);
  phase_fairness(out);
  phase_loss(out);
  return out;
}

bool ValidateHarness::await(const std::function<bool()>& done,
                            Duration limit) {
  platform_.run(platform_.now() + limit, done, Duration::sec(1));
  return done();
}

double ValidateHarness::bottleneck_bytes_per_sec(std::size_t src,
                                                 std::size_t dst) const {
  if (!params_.expect_bandwidth.is_unlimited()) {
    return static_cast<double>(params_.expect_bandwidth.count_bps()) / 8.0;
  }
  const topology::LinkClass& ls = topo_.link_of_node(src);
  const topology::LinkClass& ld = topo_.link_of_node(dst);
  double best = std::numeric_limits<double>::infinity();
  if (!ls.up.is_unlimited()) {
    best = std::min(best, static_cast<double>(ls.up.count_bps()) / 8.0);
  }
  if (!ld.down.is_unlimited()) {
    best = std::min(best, static_cast<double>(ld.down.count_bps()) / 8.0);
  }
  return best;
}

void ValidateHarness::start_transfer(std::size_t src, std::size_t dst,
                                     std::uint16_t port, std::uint64_t bytes,
                                     std::size_t slot, TransferProbe* probe,
                                     SimTime at) {
  probe->target_bytes = bytes;
  const std::uint64_t msg_bytes =
      std::max<std::uint64_t>(1, params_.message.count_bytes());
  sim::Simulation& dst_sim = platform_.sim_of_vnode(dst);
  dst_sim.schedule_at(at, [this, dst, port, slot, probe, &dst_sim] {
    listeners_[slot] = platform_.api(dst).listen(
        port, [probe, &dst_sim](sockets::StreamSocketPtr sock) {
          sock->on_message([probe, &dst_sim](sockets::Message&& m) {
            probe->received += m.size.count_bytes();
            if (!probe->done && probe->received >= probe->target_bytes) {
              probe->done = true;
              probe->end = dst_sim.now();
            }
          });
        });
  });
  const Ipv4Addr remote = platform_.api(dst).effective_bind_address();
  sim::Simulation& src_sim = platform_.sim_of_vnode(src);
  src_sim.schedule_at(
      at, [this, src, remote, port, bytes, msg_bytes, probe, &src_sim] {
        probe->start = src_sim.now();
        platform_.api(src).connect(
            remote, port,
            [bytes, msg_bytes](sockets::StreamSocketPtr sock) {
              std::uint64_t left = bytes;
              while (left > 0) {
                const std::uint64_t n = std::min(left, msg_bytes);
                sock->send(
                    sockets::Message{1, DataSize::bytes(n), nullptr});
                left -= n;
              }
              // Close once fully acked: stops the retransmit timer, so
              // later phases measure on a quiet network. The receiver has
              // already counted every byte by then (acks trail delivery).
              sock->on_writable(
                  DataSize::zero(),
                  [weak = std::weak_ptr<sockets::StreamSocket>(sock)] {
                    if (auto s = weak.lock()) s->close();
                  });
            },
            [probe] { probe->failed = true; });
      });
}

void ValidateHarness::phase_goodput(std::vector<InvariantResult>& out) {
  std::vector<std::size_t> zone_idx;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (zones_[z].count >= 2) zone_idx.push_back(z);
  }
  if (zone_idx.empty()) return;
  transfers_.assign(zone_idx.size(), TransferProbe{});
  listeners_.assign(zone_idx.size(), nullptr);
  const std::uint64_t bytes = params_.transfer.count_bytes();
  const std::uint64_t msg_bytes =
      std::max<std::uint64_t>(1, params_.message.count_bytes());
  const std::uint64_t n_msgs = (bytes + msg_bytes - 1) / msg_bytes;
  const double wire_total =
      static_cast<double>(bytes + n_msgs * sockets::kHeaderBytes);

  // One flow at a time: a goodput measurement needs an otherwise idle
  // network (the fairness phase covers contention).
  for (std::size_t k = 0; k < zone_idx.size(); ++k) {
    const NodeZone& zone = zones_[zone_idx[k]];
    TransferProbe* probe = &transfers_[k];
    start_transfer(zone.first, zone.first + 1,
                   static_cast<std::uint16_t>(kGoodputPortBase + k), bytes,
                   k, probe, platform_.now() + Duration::sec(1));
    const double bw = bottleneck_bytes_per_sec(zone.first, zone.first + 1);
    const double expected_secs =
        std::isfinite(bw) ? wire_total / bw : 1.0;
    await([probe] { return probe->done || probe->failed; },
          Duration::seconds(expected_secs * 3 + 60));

    InvariantResult r;
    r.name = "goodput:" + zone.name;
    r.tolerance = kGoodputTolerance;
    if (!std::isfinite(bw)) {
      // Unlimited bottleneck and no expect_bandwidth: no reference rate.
      r.pass = probe->done;
      r.detail = probe->done ? "unlimited bottleneck; transfer completed"
                             : "unlimited bottleneck; transfer stalled";
      out.push_back(std::move(r));
      continue;
    }
    r.expected = static_cast<double>(bytes) * bw / wire_total;
    if (probe->done) {
      const double secs = (probe->end - probe->start).to_seconds();
      r.measured = secs > 0 ? static_cast<double>(bytes) / secs : 0.0;
      r.pass = within(r.measured, r.expected, r.tolerance);
      r.detail = "bytes/s";
    } else {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s; received %llu of %llu bytes",
                    probe->failed ? "connect failed" : "timed out",
                    static_cast<unsigned long long>(probe->received),
                    static_cast<unsigned long long>(bytes));
      r.detail = buf;
    }
    out.push_back(std::move(r));
  }
}

void ValidateHarness::phase_rtt(std::vector<InvariantResult>& out) {
  // Fig 7's check, generalized: one intra-zone pair plus every zone-pair
  // of representatives (capped so huge topologies stay cheap).
  struct PairSpec {
    std::size_t a, b;
  };
  std::vector<PairSpec> pairs;
  if (zones_[0].count >= 2) {
    pairs.push_back({zones_[0].first, zones_[0].first + 1});
  }
  for (std::size_t i = 0; i < zones_.size(); ++i) {
    for (std::size_t j = i + 1;
         j < zones_.size() && pairs.size() < 7; ++j) {
      pairs.push_back({zones_[i].first, zones_[j].first});
    }
  }
  if (pairs.empty()) return;

  // Let the previous phase's teardown traffic clear, then probe one pair
  // at a time on the otherwise idle network.
  platform_.run(platform_.now() + Duration::sec(1));
  const std::uint64_t wire_bytes = kRttPayloadBytes + sockets::kUdpHeaderBytes;
  const double wire = static_cast<double>(wire_bytes);
  for (const PairSpec& pair : pairs) {
    const std::size_t a = pair.a;
    const std::size_t b = pair.b;
    int replies = 0;
    double sum_s = 0;
    for (int i = 0; i < kRttRepeats; ++i) {
      if (const auto rtt = platform_.ping(a, b, DataSize::bytes(wire_bytes))) {
        sum_s += rtt->to_seconds();
        ++replies;
      }
    }
    const topology::LinkClass& la = topo_.link_of_node(a);
    const topology::LinkClass& lb = topo_.link_of_node(b);
    const Duration inter =
        topo_.inter_zone_latency(topo_.node_address(a),
                                 topo_.node_address(b))
            .value_or(Duration::zero());
    // Additive path delay both ways plus the datagram's serialization at
    // all four access pipes it crosses.
    const double expected_s =
        2.0 * (la.latency + lb.latency + inter).to_seconds() +
        serialize_secs(la.up, wire) + serialize_secs(lb.down, wire) +
        serialize_secs(lb.up, wire) + serialize_secs(la.down, wire);
    auto zone_name = [this](std::size_t node) -> const std::string& {
      for (const NodeZone& z : zones_) {
        if (node >= z.first && node < z.first + z.count) return z.name;
      }
      return zones_.front().name;
    };
    InvariantResult r;
    r.name = "rtt:" + zone_name(a) + "-" + zone_name(b);
    r.expected = expected_s * 1e3;
    r.tolerance = kRttTolerance;
    if (replies == kRttRepeats) {
      r.measured = sum_s / kRttRepeats * 1e3;
      r.pass = within(r.measured, r.expected, r.tolerance);
      r.detail = "ms";
    } else {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%d of %d echo replies", replies,
                    kRttRepeats);
      r.detail = buf;
    }
    out.push_back(std::move(r));
  }
}

void ValidateHarness::phase_fairness(std::vector<InvariantResult>& out) {
  const std::size_t flows = std::min(params_.flows, zones_[0].count);
  if (flows < 1) return;
  // Sources are the head of zone 0; the sink sits behind its own access
  // link (first node of zone 1, or past the sources when there is only
  // one zone — the parser guarantees nodes > flows).
  const std::size_t sink =
      zones_.size() > 1 ? zones_[1].first : zones_[0].first + flows;
  transfers_.assign(flows, TransferProbe{});
  listeners_.assign(flows, nullptr);
  const std::uint64_t bytes = params_.transfer.count_bytes();
  const std::uint64_t msg_bytes =
      std::max<std::uint64_t>(1, params_.message.count_bytes());
  const std::uint64_t n_msgs = (bytes + msg_bytes - 1) / msg_bytes;
  const double wire_total =
      static_cast<double>(bytes + n_msgs * sockets::kHeaderBytes);

  const SimTime at = platform_.now() + Duration::sec(1);
  for (std::size_t i = 0; i < flows; ++i) {
    start_transfer(zones_[0].first + i, sink,
                   static_cast<std::uint16_t>(kFairPortBase + i), bytes, i,
                   &transfers_[i], at);
  }
  const double bw = bottleneck_bytes_per_sec(zones_[0].first, sink);
  const double expected_secs =
      std::isfinite(bw) ? static_cast<double>(flows) * wire_total / bw : 1.0;
  await(
      [this] {
        for (const TransferProbe& p : transfers_) {
          if (!p.done && !p.failed) return false;
        }
        return true;
      },
      Duration::seconds(expected_secs * 3 + 120));

  double sum = 0, sum_sq = 0;
  std::size_t completed = 0;
  for (const TransferProbe& p : transfers_) {
    if (!p.done) continue;
    const double secs = (p.end - p.start).to_seconds();
    const double rate = secs > 0 ? static_cast<double>(bytes) / secs : 0.0;
    sum += rate;
    sum_sq += rate * rate;
    ++completed;
  }
  InvariantResult r;
  r.name = "fairness:jain";
  r.expected = 1.0;
  r.tolerance = kJainMin;  // absolute floor, not a relative band
  if (completed == flows && sum_sq > 0) {
    r.measured =
        sum * sum / (static_cast<double>(flows) * sum_sq);
    r.pass = r.measured >= kJainMin;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "index over %zu flows (floor %.3g)",
                  flows, kJainMin);
    r.detail = buf;
  } else {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "only %zu of %zu flows completed",
                  completed, flows);
    r.detail = buf;
  }
  out.push_back(std::move(r));
}

void ValidateHarness::phase_loss(std::vector<InvariantResult>& out) {
  if (params_.loss_datagrams == 0) return;
  const std::size_t src = 0;
  const std::size_t dst = params_.nodes - 1;

  transfers_.clear();
  listeners_.clear();
  udp_socks_.assign(2, nullptr);
  loss_received_ = 0;

  const std::uint64_t total = params_.loss_datagrams;
  const SimTime t0 = platform_.now() + Duration::sec(1);
  const Ipv4Addr dst_addr = platform_.api(dst).effective_bind_address();

  std::uint64_t burst_window = 0;
  platform_.sim_of_vnode(dst).schedule_at(t0, [this, dst, &burst_window] {
    auto sock = platform_.api(dst).udp_bind(kLossPort);
    sock->on_message([this](sockets::Message&&, Ipv4Addr, std::uint16_t) {
      ++loss_received_;
    });
    udp_socks_[0] = std::move(sock);
    // The overlay switches on from the link's own simulation, like the
    // fault injector's burst faults.
    burst_window = platform_.open_burst_loss(dst, kLossProbe);
  });
  // The whole batch fits the 8 MiB access-pipe queue, so nothing tail-drops
  // for a reason other than the loss models under test.
  platform_.sim_of_vnode(src).schedule_at(
      t0 + Duration::ms(10), [this, src, dst_addr, total] {
        auto sock = platform_.api(src).udp_bind(0);
        for (std::uint64_t i = 0; i < total; ++i) {
          sock->send_to(
              dst_addr, kLossPort,
              sockets::Message{3, DataSize::bytes(kLossPayloadBytes),
                               nullptr});
        }
        udp_socks_[1] = std::move(sock);
      });

  const topology::LinkClass& ls = topo_.link_of_node(src);
  const topology::LinkClass& ld = topo_.link_of_node(dst);
  const double wire =
      static_cast<double>(kLossPayloadBytes + sockets::kUdpHeaderBytes);
  const double batch = wire * static_cast<double>(total);
  const double drain_s =
      serialize_secs(ls.up, batch) + serialize_secs(ld.down, batch) + 5.0;
  platform_.run(platform_.now() + Duration::sec(1) +
                Duration::seconds(drain_s));
  // Restore the topology's configured loss for whoever runs next.
  platform_.sim_of_vnode(dst).schedule_at(
      platform_.now() + Duration::ms(1),
      [this, dst, &burst_window] {
        platform_.close_burst_loss(dst, burst_window);
      });
  platform_.run(platform_.now() + Duration::ms(10));

  const double measured_loss =
      1.0 - static_cast<double>(loss_received_) / static_cast<double>(total);
  const double pi_bad =
      kLossProbe.p_good_to_bad /
      (kLossProbe.p_good_to_bad + kLossProbe.p_bad_to_good);
  const double ge_loss = pi_bad * kLossProbe.loss_bad;
  const double expected_loss =
      1.0 - (1.0 - ls.loss_rate) * (1.0 - ld.loss_rate) * (1.0 - ge_loss);

  InvariantResult r;
  r.name = "loss:gilbert";
  r.measured = measured_loss;
  r.expected = expected_loss;
  r.tolerance = kLossTolerance;
  r.pass = within(measured_loss, expected_loss, kLossTolerance);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu of %llu datagrams delivered",
                static_cast<unsigned long long>(loss_received_),
                static_cast<unsigned long long>(total));
  r.detail = buf;
  out.push_back(std::move(r));
}

// ---------------------------------------------------------------------------
// The `validate` workload plugin: the emulator-accuracy harness wrapped
// for the registry.

namespace {

void write_accuracy_json(const ScenarioSpec& spec,
                         const std::vector<InvariantResult>& results,
                         bool pass) {
  const std::string& name = spec.outputs.accuracy_json;
  if (name.empty()) return;
  char buf[160];
  std::string json = "{\"scenario\": \"" + spec.name + "\", \"pass\": " +
                     (pass ? "1" : "0") + ", \"invariants\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InvariantResult& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"pass\": %d, \"measured\": %.15g, "
                  "\"expected\": %.15g, \"tolerance\": %.15g}",
                  i > 0 ? ", " : "", r.name.c_str(), r.pass ? 1 : 0,
                  r.measured, r.expected, r.tolerance);
    json += buf;
  }
  json += "]}";
  std::printf("# %s %s\n", name.c_str(), json.c_str());
  metrics::write_results_file(name + ".json", json + "\n");
}

class ValidateWorkload final : public Workload {
 public:
  explicit ValidateWorkload(const ScenarioSpec& spec) : spec_(spec) {}

  int execute(ExperimentRunner& runner) override {
    core::Platform& platform = runner.platform();
    ValidateHarness harness(platform, spec_);
    const std::vector<InvariantResult> results = harness.run();
    runner.stop_clock();

    int failures = 0;
    for (const InvariantResult& r : results) {
      std::printf("# invariant %-22s %-4s measured=%-12.6g expected=%-12.6g "
                  "tolerance=%.3g%s%s\n",
                  r.name.c_str(), r.pass ? "ok" : "FAIL", r.measured,
                  r.expected, r.tolerance, r.detail.empty() ? "" : "  ",
                  r.detail.c_str());
      failures += !r.pass;
    }
    std::printf("# accuracy: %zu/%zu invariants within tolerance at "
                "t=%.0f s; %llu events\n",
                results.size() - static_cast<std::size_t>(failures),
                results.size(), runner.end_of_run().to_seconds(),
                static_cast<unsigned long long>(
                    platform.dispatched_events()));

    write_accuracy_json(spec_, results, failures == 0);
    runner.write_bench_json("flows",
                            static_cast<double>(spec_.validate.flows));
    return failures == 0 ? 0 : 1;
  }

 private:
  const ScenarioSpec& spec_;
};

class ValidatePlugin final : public WorkloadPlugin {
 public:
  const char* name() const override { return "validate"; }
  const char* description() const override {
    return "emulator-accuracy harness: goodput, RTT, fairness, loss "
           "invariants";
  }

  std::vector<const char*> workload_keys() const override {
    return {"nodes",          "flows",          "transfer",
            "message",        "loss_datagrams", "expect_bandwidth"};
  }
  std::vector<const char*> output_keys() const override {
    return {"accuracy_json"};
  }

  bool parse_workload(ParamReader& reader,
                      ScenarioSpec& spec) const override {
    ValidateParams& v = spec.validate;
    const bool ok =
        reader.take_count("nodes", &v.nodes) &&
        reader.require("nodes", v.nodes >= 3, "validate needs nodes >= 3") &&
        reader.take_count("flows", &v.flows) &&
        reader.require("flows", v.flows >= 1, "validate needs flows >= 1") &&
        reader.take_size("transfer", &v.transfer) &&
        reader.take_size("message", &v.message) &&
        reader.take_count("loss_datagrams", &v.loss_datagrams) &&
        reader.take_bandwidth("expect_bandwidth", &v.expect_bandwidth);
    if (!ok) return false;
    if (v.flows + 1 > v.nodes) {
      const KvEntry* blame = reader.section().find("flows");
      if (blame == nullptr) blame = reader.section().find("nodes");
      return reader.fail_at(
          blame != nullptr ? blame->source : text::line_source(0),
          "validate needs nodes > flows (a fairness sink besides "
          "the sources)");
    }
    return true;
  }

  bool parse_outputs(ParamReader& reader, ScenarioSpec& spec) const override {
    return reader.take_string("accuracy_json", &spec.outputs.accuracy_json);
  }

  std::size_t vnodes(const ScenarioSpec& spec) const override {
    return spec.validate.nodes;
  }

  std::unique_ptr<Workload> create(const ScenarioSpec& spec) const override {
    return std::make_unique<ValidateWorkload>(spec);
  }
};

}  // namespace

void register_validate_workload(WorkloadRegistry& registry) {
  registry.add(std::make_unique<ValidatePlugin>());
}

}  // namespace p2plab::scenario
