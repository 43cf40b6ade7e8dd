// Topology-aware shard partitioning.
//
// The engine assigns whole physical nodes to shards. Striping them into
// contiguous index blocks would ignore the topology: a zone's nodes — the
// densest traffic neighborhoods, since zone members share subnets, latency
// classes and (in the paper's deployments) racks — can land on different
// shards, inflating cross-shard handoff volume and the per-shard event
// imbalance the profiler reports. topo_partition() instead runs a greedy
// graph-growing partition over a pnode affinity graph (edge weight = the
// number of co-zone vnode pairs two pnodes could form), balanced to within
// one pnode, followed by a seed-keyed local swap refinement pass.
//
// The partition is a pure function of (topology, pnode count, shard count,
// seed) — never of wall-clock or thread timing — and is *invisible to
// results* by the engine's determinism design (engine.hpp): any partition
// produces bit-identical traces; a better one only produces them faster.
// On homogeneous single-zone topologies (fig10's auto topology) all
// affinities tie and the greedy pass degenerates to the same contiguous
// blocks stripe_partition() produces. Platform always uses topo_partition().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/topology.hpp"

namespace p2plab::engine {

/// Contiguous index blocks, shard p * shards / pnodes: the topology-blind
/// reference the partition tests compare topo_partition() against.
std::vector<std::size_t> stripe_partition(std::size_t pnodes,
                                          std::size_t shards);

/// Greedy zone-affinity partition of `pnodes` physical nodes into `shards`
/// balanced groups (sizes differ by at most one). Deterministic for a fixed
/// (topology, pnodes, shards, seed); `shards` must not exceed `pnodes`.
std::vector<std::size_t> topo_partition(const topology::Topology& topo,
                                        std::size_t pnodes,
                                        std::size_t shards,
                                        std::uint64_t seed);

}  // namespace p2plab::engine
