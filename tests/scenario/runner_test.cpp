// End-to-end ExperimentRunner tests on deliberately tiny swarms: a spec
// goes in, the experiment runs to its stop condition, and the run is
// deterministic — the same spec produces the same completion times whether
// it came from C++ or from DSL text, and at any shard count.
#include "scenario/runner.hpp"

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/parser.hpp"

namespace p2plab::scenario {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.swarm.clients = 6;
  spec.swarm.seeders = 2;
  spec.swarm.file_size = DataSize::mib(1);
  spec.swarm.start_interval = Duration::sec(1);
  spec.engine.pin_workers = false;
  return spec;
}

std::vector<double> completion_times(ExperimentRunner& runner) {
  return runner.swarm().completion_times_sec();
}

TEST(ExperimentRunner, TinySwarmRunsToCompletion) {
  ExperimentRunner runner(tiny_spec());
  EXPECT_EQ(runner.run(), 0);
  EXPECT_TRUE(runner.swarm().all_complete());
  const std::vector<double> times = completion_times(runner);
  ASSERT_EQ(times.size(), 6u);
  for (const double t : times) EXPECT_GT(t, 0.0);
}

TEST(ExperimentRunner, DslAndCatalogSpecsProduceIdenticalRuns) {
  ExperimentRunner from_cpp(tiny_spec());
  ASSERT_EQ(from_cpp.run(), 0);

  ParseResult parsed = parse_scenario(
      "scenario tiny\n"
      "[workload]\n"
      "type swarm\n"
      "clients 6\n"
      "seeders 2\n"
      "file_size 1M\n"
      "start_interval 1\n"
      "[engine]\n"
      "pin off\n",
      {});
  ASSERT_TRUE(parsed.spec) << parsed.error;
  ExperimentRunner from_dsl(std::move(*parsed.spec));
  ASSERT_EQ(from_dsl.run(), 0);

  EXPECT_EQ(completion_times(from_cpp), completion_times(from_dsl));
}

TEST(ExperimentRunner, ShardedRunMatchesSingleShard) {
  ExperimentRunner single(tiny_spec());  // engine.shards defaults to 1
  ASSERT_EQ(single.run(), 0);

  ScenarioSpec sharded_spec = tiny_spec();
  sharded_spec.engine.shards = 2;
  ExperimentRunner sharded(std::move(sharded_spec));
  ASSERT_EQ(sharded.run(), 0);

  EXPECT_EQ(completion_times(single), completion_times(sharded));
}

TEST(ExperimentRunner, StopTimeEndsEarly) {
  ScenarioSpec spec = tiny_spec();
  spec.engine.stop = StopMode::kTime;
  spec.engine.run_for = Duration::sec(5);
  ExperimentRunner runner(std::move(spec));
  EXPECT_EQ(runner.run(), 0);
  EXPECT_FALSE(runner.swarm().all_complete());
  EXPECT_LE(runner.platform().now().to_seconds(), 6.0);
}

TEST(ExperimentRunner, ChurnDirectiveInjectsAndRecovers) {
  ScenarioSpec spec = tiny_spec();
  spec.swarm.clients = 8;
  spec.faults.churn.enabled = true;
  spec.faults.churn.fraction = 0.25;
  spec.faults.churn.window_start = Duration::sec(5);
  spec.faults.churn.window_end = Duration::sec(30);
  spec.faults.churn.rejoin_fraction = 1.0;  // everyone comes back
  spec.faults.churn.rejoin_min = Duration::sec(5);
  spec.faults.churn.rejoin_max = Duration::sec(10);
  spec.engine.stop = StopMode::kSurvivorsComplete;
  spec.engine.check_invariants = true;
  ExperimentRunner runner(std::move(spec));
  EXPECT_EQ(runner.run(), 0);  // invariant checks pass
}

/// Run `spec`'s text and return its stdout; `code` gets the exit code.
std::string run_capturing_stdout(const std::string& text, int* code) {
  ParseResult parsed = parse_scenario(text, {});
  EXPECT_TRUE(parsed.spec) << parsed.error;
  if (!parsed.spec) return "";
  ExperimentRunner runner(std::move(*parsed.spec));
  testing::internal::CaptureStdout();
  *code = runner.run();
  return testing::internal::GetCapturedStdout();
}

int failed_checks(const std::string& out) {
  int failed = 0;
  for (std::size_t at = out.find(" FAIL\n"); at != std::string::npos;
       at = out.find(" FAIL\n", at + 1)) {
    ++failed;
  }
  return failed;
}

constexpr const char* kUnrecoveredFail =
    "# check every injected fault recovered                 FAIL";

// A fault window still open when the stop condition fires is an injected
// fault that never recovered: the shared invariant fails the run (and is
// the only check that fails), for either fault-capable workload.
TEST(ExperimentRunner, GossipFaultOpenAtStopFailsTheRun) {
  int code = 0;
  const std::string out = run_capturing_stdout(
      "scenario open_fault\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 4\n"
      "[faults]\n"
      "linkdown node=2 at=2 for=100\n"
      "[engine]\n"
      "stop time\n"
      "run_for 5\n"
      "pin off\n"
      "check_invariants on\n",
      &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find(kUnrecoveredFail), std::string::npos) << out;
  EXPECT_EQ(failed_checks(out), 1) << out;
}

TEST(ExperimentRunner, SwarmFaultOpenAtStopFailsTheRun) {
  int code = 0;
  const std::string out = run_capturing_stdout(
      "scenario open_fault\n"
      "[workload]\n"
      "type swarm\n"
      "clients 4\n"
      "seeders 2\n"
      "file_size 1M\n"
      "start_interval 1\n"
      "[faults]\n"
      "linkdown node=2 at=1 for=300\n"  // a seeder, down past completion
      "[engine]\n"
      "pin off\n"
      "check_invariants on\n",
      &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find(kUnrecoveredFail), std::string::npos) << out;
  EXPECT_EQ(failed_checks(out), 1) << out;
}

TEST(ExperimentRunner, PlatformOnlyProfilingFoldsButWritesNothing) {
  // Profiling enabled on the platform while `[engine] profile` stays off
  // (how a harness collects the rollup): the rollup reaches the registry,
  // but no timeline file is named, so none is written and none warned of.
  char dir[] = "/tmp/p2plab_runner_profile_XXXXXX";
  ASSERT_NE(mkdtemp(dir), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir, 1);
  ExperimentRunner runner(tiny_spec());
  runner.setup();
  runner.platform().enable_profiling();
  testing::internal::CaptureStderr();
  const int code = runner.execute();
  const std::string err = testing::internal::GetCapturedStderr();
  unsetenv("P2PLAB_RESULTS_DIR");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(err.find("P2PLAB_RESULTS_DIR"), std::string::npos) << err;
  std::vector<std::string> written;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    written.push_back(file.path().filename().string());
  }
  EXPECT_TRUE(written.empty()) << written.front();
  std::filesystem::remove_all(dir);
  bool folded = false;
  for (const auto& entry : runner.registry().snapshot()) {
    folded = folded || entry.name == "profile.imbalance.ratio";
  }
  EXPECT_TRUE(folded);
}

TEST(ExperimentRunner, PingSweepProducesRttCurve) {
  ScenarioSpec spec;
  spec.name = "mini_ping";
  spec.workload = "ping_sweep";
  spec.ping.rules_max = 1000;
  spec.ping.rules_step = 500;
  spec.ping.probes = 2;
  ExperimentRunner runner(std::move(spec));
  EXPECT_EQ(runner.run(), 0);
}

}  // namespace
}  // namespace p2plab::scenario
