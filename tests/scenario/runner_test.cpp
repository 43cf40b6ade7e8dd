// End-to-end ExperimentRunner tests on deliberately tiny swarms: a spec
// goes in, the experiment runs to its stop condition, and the run is
// deterministic — the same spec produces the same completion times whether
// it came from C++ or from DSL text, and at any shard count.
#include "scenario/runner.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
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

/// The data rows of a timeline CSV, split into fields.
std::vector<std::vector<std::string>> csv_rows(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::ifstream file(path);
  std::string line;
  std::getline(file, line);  // header
  while (std::getline(file, line)) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    rows.push_back(fields);
  }
  return rows;
}

TEST(ExperimentRunner, ValidateRunWritesAShardInvariantTimeline) {
  // The runner owns the run record of every workload: a validate run that
  // names `metrics` gets the health timeline, and ends with the `# run:`
  // line and the registry dump like any other run.
  const std::string text =
      "scenario record\n"
      "[topology]\n"
      "zone senders 10.1.0.0/24 nodes=4 down=8M up=2M latency=20ms\n"
      "zone sink 10.2.0.0/24 nodes=2 down=2M up=2M latency=30ms\n"
      "zone far 10.3.0.0/24 nodes=4 down=2M up=512k latency=40ms\n"
      "latency senders sink 100ms\n"
      "latency senders far 400ms\n"
      "latency sink far 200ms\n"
      "[workload]\n"
      "type validate\n"
      "nodes 10\n"
      "[engine]\n"
      "pin off\n"
      "[outputs]\n"
      "metrics record_metrics\n";
  std::vector<std::vector<std::vector<std::string>>> timelines;
  for (const char* shards : {"1", "3"}) {
    char dir[] = "/tmp/p2plab_runner_record_XXXXXX";
    ASSERT_NE(mkdtemp(dir), nullptr);
    setenv("P2PLAB_RESULTS_DIR", dir, 1);
    ParseOptions options;
    options.overrides = {std::string("engine.shards=") + shards};
    ParseResult parsed = parse_scenario(text, options);
    ASSERT_TRUE(parsed.spec) << parsed.error;
    std::string out;
    {
      ExperimentRunner runner(std::move(*parsed.spec));
      testing::internal::CaptureStdout();
      EXPECT_EQ(runner.run(), 0);
      out = testing::internal::GetCapturedStdout();
    }  // the timeline's CsvWriter flushes here
    unsetenv("P2PLAB_RESULTS_DIR");
    EXPECT_NE(out.find("\n# run: wall_s="), std::string::npos) << out;
    EXPECT_NE(out.find("\n# sim.events.dispatched = "), std::string::npos);
    timelines.push_back(csv_rows(std::string(dir) + "/record_metrics.csv"));
    std::filesystem::remove_all(dir);
  }
  const auto& one = timelines[0];
  const auto& three = timelines[1];
  // One row per 60 simulated seconds, plus the final one at the stop.
  ASSERT_GE(one.size(), 2u);
  ASSERT_EQ(one.size(), three.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].size(), 10u);
    ASSERT_EQ(three[i].size(), 10u);
    // Everything but wall_s, events_per_wall_s and sim_s_per_wall_s.
    for (const std::size_t col : {0u, 2u, 3u, 6u, 7u, 8u, 9u}) {
      EXPECT_EQ(one[i][col], three[i][col])
          << "row " << i << " column " << col;
    }
  }
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
