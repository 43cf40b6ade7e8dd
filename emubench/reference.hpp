// A fixed reference kernel that measures how fast the host runs right now.
//
// The box the benchmark runs on is shared: its speed drifts by tens of
// percent over minutes while the guest sees no steal time. The kernel does
// the same work on every call and in every build (it uses none of the
// emulator's code and keeps no memory between calls), so its time tracks
// the host alone. The harness runs it on the workers' CPUs before and
// after every timed execute(); run.py scales the iteration's host times by
// it.
#pragma once

#include <vector>

namespace emubench {

/// Runs the kernel once on each of `cpus` (the calling thread is pinned to
/// each in turn, then given back its affinity mask) and returns the mean
/// host seconds of one call. An empty list runs it once where it stands.
double reference_seconds(const std::vector<int>& cpus);

}  // namespace emubench
