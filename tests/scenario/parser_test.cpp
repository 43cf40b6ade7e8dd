// Scenario-DSL parser tests: golden error messages (with line numbers —
// the DSL's main UX surface), --set override semantics, unit parsing, and
// the shipped-catalog equivalence guarantee: every scenarios/*.scn must
// parse to exactly the spec its C++ catalog twin builds, so `p2plab_run`
// and the bench binaries stay interchangeable.
#include "scenario/parser.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/catalog.hpp"

namespace p2plab::scenario {
namespace {

ScenarioSpec parse_ok(const std::string& text,
                      const std::vector<std::string>& overrides = {}) {
  ParseOptions options;
  options.overrides = overrides;
  ParseResult result = parse_scenario(text, options);
  EXPECT_TRUE(result.spec) << result.error;
  return result.spec ? *result.spec : ScenarioSpec{};
}

std::string parse_error(const std::string& text,
                        const std::vector<std::string>& overrides = {}) {
  ParseOptions options;
  options.overrides = overrides;
  ParseResult result = parse_scenario(text, options);
  EXPECT_FALSE(result.spec) << "expected a parse error";
  return result.error;
}

TEST(ScenarioParser, MinimalSwarmDefaults) {
  const ScenarioSpec spec = parse_ok(
      "scenario tiny\n"
      "[workload]\n"
      "type swarm\n"
      "clients 8\n");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.workload, "swarm");
  EXPECT_EQ(spec.swarm.clients, 8u);
  EXPECT_EQ(spec.swarm.seeders, 4u);  // SwarmConfig defaults survive
  EXPECT_EQ(spec.swarm.file_size.count_bytes(), DataSize::mib(16).count_bytes());
  EXPECT_EQ(spec.vnodes(), 13u);  // tracker + 4 seeders + 8 clients
  EXPECT_EQ(spec.engine.shards, 1u);
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_TRUE(spec.declared_outputs().empty());
}

TEST(ScenarioParser, CommentsBlankLinesAndQuotedValues) {
  const ScenarioSpec spec = parse_ok(
      "# a comment\n"
      "scenario quoted\n"
      "\n"
      "[workload]\n"
      "type swarm            # trailing comment\n"
      "clients 4\n"
      "[outputs]\n"
      "completions done\n"
      "completions_note \"a note, with spaces # not a comment\"\n");
  EXPECT_EQ(spec.outputs.completions, "done");
  EXPECT_EQ(spec.outputs.completions_note,
            "a note, with spaces # not a comment");
}

TEST(ScenarioParser, SizesAndDurations) {
  const ScenarioSpec spec = parse_ok(
      "scenario units\n"
      "[workload]\n"
      "type swarm\n"
      "clients 4\n"
      "file_size 4M\n"
      "piece_length 64k\n"
      "start_interval 250ms\n"
      "max_duration 8000\n");
  EXPECT_EQ(spec.swarm.file_size.count_bytes(), DataSize::mib(4).count_bytes());
  EXPECT_EQ(spec.swarm.piece_length.count_bytes(),
            DataSize::kib(64).count_bytes());
  EXPECT_EQ(spec.swarm.start_interval, Duration::millis(250));
  EXPECT_EQ(spec.swarm.max_duration, Duration::sec(8000));  // bare = seconds
}

TEST(ScenarioParser, ParseDataSizeUnits) {
  EXPECT_EQ(parse_data_size("100")->count_bytes(), 100u);
  EXPECT_EQ(parse_data_size("256k")->count_bytes(), 256u * 1024);
  EXPECT_EQ(parse_data_size("256K")->count_bytes(), 256u * 1024);
  EXPECT_EQ(parse_data_size("16M")->count_bytes(), 16u * 1024 * 1024);
  EXPECT_EQ(parse_data_size("1G")->count_bytes(), 1024u * 1024 * 1024);
  EXPECT_FALSE(parse_data_size("0"));    // sizes must be positive
  EXPECT_FALSE(parse_data_size(""));
  EXPECT_FALSE(parse_data_size("12T"));  // unknown suffix
  EXPECT_FALSE(parse_data_size("bogus"));
}

// -- validate workload (the accuracy harness) -----------------------------

TEST(ScenarioParserValidate, AllKeysParse) {
  const ScenarioSpec spec = parse_ok(
      "scenario acc\n"
      "[workload]\n"
      "type validate\n"
      "nodes 6\n"
      "flows 3\n"
      "transfer 4M\n"
      "message 32k\n"
      "loss_datagrams 5000\n"
      "ge_p_good_bad 0.05\n"
      "ge_p_bad_good 0.5\n"
      "ge_loss_bad 0.8\n"
      "goodput_tolerance 0.2\n"
      "rtt_tolerance 0.15\n"
      "loss_tolerance 0.3\n"
      "jain_min 0.9\n"
      "[engine]\n"
      "transport tcp\n"
      "[outputs]\n"
      "accuracy_json ACC\n");
  EXPECT_EQ(spec.workload, "validate");
  EXPECT_EQ(spec.validate.nodes, 6u);
  EXPECT_EQ(spec.validate.flows, 3u);
  EXPECT_EQ(spec.validate.transfer.count_bytes(),
            DataSize::mib(4).count_bytes());
  EXPECT_EQ(spec.validate.message.count_bytes(),
            DataSize::kib(32).count_bytes());
  EXPECT_EQ(spec.validate.loss_datagrams, 5000u);
  EXPECT_DOUBLE_EQ(spec.validate.ge_p_good_bad, 0.05);
  EXPECT_DOUBLE_EQ(spec.validate.ge_p_bad_good, 0.5);
  EXPECT_DOUBLE_EQ(spec.validate.ge_loss_bad, 0.8);
  EXPECT_DOUBLE_EQ(spec.validate.goodput_tolerance, 0.2);
  EXPECT_DOUBLE_EQ(spec.validate.rtt_tolerance, 0.15);
  EXPECT_DOUBLE_EQ(spec.validate.loss_tolerance, 0.3);
  EXPECT_DOUBLE_EQ(spec.validate.jain_min, 0.9);
  EXPECT_EQ(spec.engine.transport, TransportModel::kTcp);
  EXPECT_EQ(spec.vnodes(), 6u);
  const std::vector<std::string> files = spec.declared_outputs();
  EXPECT_NE(std::find(files.begin(), files.end(), "ACC.json"), files.end());
}

TEST(ScenarioParserValidate, DefaultsAndFlowTransport) {
  const ScenarioSpec spec =
      parse_ok("scenario acc\n[workload]\ntype validate\n");
  EXPECT_EQ(spec.validate.nodes, 8u);
  EXPECT_EQ(spec.validate.flows, 4u);
  EXPECT_DOUBLE_EQ(spec.validate.goodput_tolerance, 0.12);
  EXPECT_DOUBLE_EQ(spec.validate.jain_min, 0.95);
  EXPECT_EQ(spec.engine.transport, TransportModel::kFlow);
  EXPECT_TRUE(spec.validate.expect_bandwidth.is_unlimited());
}

TEST(ScenarioParserValidate, ExpectBandwidthOverrideViaSet) {
  // The CI control case: a wrong bandwidth expectation injected by --set
  // must reach the spec so the harness can fail against it.
  const ScenarioSpec spec =
      parse_ok("scenario acc\n[workload]\ntype validate\n",
               {"workload.expect_bandwidth=8M"});
  EXPECT_FALSE(spec.validate.expect_bandwidth.is_unlimited());
  EXPECT_EQ(spec.validate.expect_bandwidth.count_bps(),
            Bandwidth::mbps(8).count_bps());
}

TEST(ScenarioParserValidate, NodesFloor) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type validate\n"
                        "nodes 2\n"),
            "line 4: validate needs nodes >= 3");
}

TEST(ScenarioParserValidate, FlowsNeedASinkBesidesTheSources) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type validate\n"
                        "nodes 4\n"
                        "flows 4\n"),
            "line 5: validate needs nodes > flows (a fairness sink besides "
            "the sources)");
}

TEST(ScenarioParserValidate, UnknownTransport) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type validate\n"
                        "[engine]\n"
                        "transport quic\n"),
            "line 5: unknown transport 'quic' (tcp|flow)");
}

TEST(ScenarioParserValidate, ValidateKeyInSwarmWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "jain_min 0.9\n"),
            "line 4: key 'jain_min' is not valid for workload type swarm");
}

TEST(ScenarioParserGossip, GossipKeysParse) {
  const ScenarioSpec spec = parse_ok(
      "scenario g\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 16\n"
      "period 500ms\n"
      "ping_timeout 150ms\n"
      "suspect_timeout 3\n"
      "indirect 2\n"
      "piggyback 6\n"
      "join_interval 100ms\n"
      "[engine]\n"
      "stop time\n"
      "run_for 60\n");
  EXPECT_EQ(spec.workload, "gossip");
  EXPECT_EQ(spec.gossip.nodes, 16u);
  EXPECT_EQ(spec.gossip.period, Duration::ms(500));
  EXPECT_EQ(spec.gossip.ping_timeout, Duration::ms(150));
  EXPECT_EQ(spec.gossip.suspect_timeout, Duration::sec(3));
  EXPECT_EQ(spec.gossip.indirect_k, 2u);
  EXPECT_EQ(spec.gossip.piggyback, 6u);
  EXPECT_EQ(spec.gossip.join_interval, Duration::ms(100));
  EXPECT_EQ(spec.vnodes(), 16u);
  EXPECT_EQ(spec.engine.stop, StopMode::kTime);
}

TEST(ScenarioParserGossip, UnknownWorkloadTypeEnumeratesRegistry) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type chord\n"),
            "line 3: unknown workload type 'chord' "
            "(expected gossip|ping_sweep|swarm|validate)");
}

TEST(ScenarioParserGossip, GossipKeyInSwarmWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "suspect_timeout 3\n"),
            "line 4: key 'suspect_timeout' is not valid for workload type "
            "swarm");
}

TEST(ScenarioParserGossip, SwarmKeyInGossipWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "clients 8\n"),
            "line 4: key 'clients' is not valid for workload type gossip");
}

TEST(ScenarioParserGossip, SwarmOutputInGossipWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "[engine]\n"
                        "stop time\n"
                        "run_for 60\n"
                        "[outputs]\n"
                        "completions done\n"),
            "line 8: key 'completions' is not valid for workload type "
            "gossip");
}

TEST(ScenarioParserGossip, GossipRequiresStopTime) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "[engine]\n"
                        "stop all_complete\n"),
            "line 5: gossip requires stop=time (membership has no "
            "completion; run_for bounds the experiment)");
}

TEST(ScenarioParserGossip, GossipDefaultStopRejected) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"),
            "[engine]: gossip requires stop=time (membership has no "
            "completion; run_for bounds the experiment)");
}

TEST(ScenarioParserGossip, SetOverrideBadDuration) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "[engine]\n"
                        "stop time\n"
                        "run_for 60\n",
                        {"workload.suspect_timeout=soon"}),
            "--set workload.suspect_timeout=soon: bad duration 'soon' for "
            "suspect_timeout");
}

TEST(ScenarioParserGossip, SetOverrideAppliesToGossip) {
  const ScenarioSpec spec = parse_ok(
      "scenario g\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 32\n"
      "[engine]\n"
      "stop time\n"
      "run_for 60\n",
      {"workload.nodes=12", "workload.indirect=5"});
  EXPECT_EQ(spec.gossip.nodes, 12u);
  EXPECT_EQ(spec.gossip.indirect_k, 5u);
}

// -- golden errors --------------------------------------------------------

TEST(ScenarioParserErrors, SectionBeforeScenarioHeader) {
  EXPECT_EQ(parse_error("[workload]\ntype swarm\n"),
            "line 1: expected 'scenario <name>' before any section");
}

TEST(ScenarioParserErrors, UnknownSection) {
  EXPECT_EQ(parse_error("scenario x\n[warp]\n"),
            "line 2: unknown section [warp]");
}

TEST(ScenarioParserErrors, DuplicateSection) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\ntype swarm\n"
                        "[engine]\n"
                        "[workload]\n"),
            "line 5: duplicate section [workload]");
}

TEST(ScenarioParserErrors, UnknownKeyWithLineNumber) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "clientz 5\n"),
            "line 4: unknown key 'clientz' in [workload]");
}

TEST(ScenarioParserErrors, DuplicateKey) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "clients 5\n"
                        "clients 6\n"),
            "line 5: duplicate key 'clients' in [workload]");
}

TEST(ScenarioParserErrors, BadCountKeepsSourceLine) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "clients never\n"),
            "line 4: bad count 'never' for clients");
}

TEST(ScenarioParserErrors, BadTopologyIncludePath) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[topology]\n"
                        "include no/such/file.topo\n"),
            "line 5: include 'no/such/file.topo': cannot read file");
}

TEST(ScenarioParserErrors, ConflictingTopologySources) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[topology]\n"
                        "auto\n"
                        "node n0 10.0.0.1\n"),
            "line 5: [topology] cannot mix 'auto' with other topology "
            "sources");
}

TEST(ScenarioParserErrors, ConflictingFaultSources) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[faults]\n"
                        "include plan.fault\n"
                        "linkdown node=5 at=300 for=20\n"),
            "line 5: [faults] cannot mix 'include' with inline directives");
}

TEST(ScenarioParserErrors, ChurnNeedsWindow) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[faults]\n"
                        "churn fraction=0.3\n"),
            "line 5: churn needs window=START..END");
}

TEST(ScenarioParserErrors, StopTimeRequiresRunFor) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "stop time\n"),
            "line 5: stop=time requires run_for");
}

TEST(ScenarioParserErrors, FoldAndPhysicalNodesConflict) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "physical_nodes 6\n"
                        "fold 32\n"),
            "line 6: fold and physical_nodes are mutually exclusive");
}

TEST(ScenarioParserErrors, PingKeyInSwarmWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "rules_max 1000\n"),
            "line 4: key 'rules_max' is not valid for workload type swarm");
}

TEST(ScenarioParserErrors, SwarmOutputInPingWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type ping_sweep\n"
                        "[outputs]\n"
                        "completions done\n"),
            "line 5: key 'completions' is not valid for workload type "
            "ping_sweep");
}

TEST(ScenarioParserErrors, FaultsRequireSwarm) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type ping_sweep\n"
                        "[faults]\n"
                        "tracker_outage at=100 for=10\n"),
            "line 5: [faults] requires workload type gossip or swarm");
}

TEST(ScenarioParserErrors, UnterminatedQuote) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[outputs]\n"
                        "completions_note \"oops\n"),
            "line 5: unterminated quote");
}

// -- profiling keys -------------------------------------------------------

TEST(ScenarioParserProfile, ProfileKeyAndPinParse) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "[engine]\n"
      "profile on\n"
      "pin off\n");
  EXPECT_TRUE(spec.engine.profile);
  ASSERT_TRUE(spec.engine.pin_workers.has_value());
  EXPECT_FALSE(*spec.engine.pin_workers);
  EXPECT_EQ(spec.resolved_profile_trace(), "profile.json");
}

TEST(ScenarioParserProfile, OffByDefaultAndUndeclared) {
  const ScenarioSpec spec =
      parse_ok("scenario x\n[workload]\ntype swarm\n");
  EXPECT_FALSE(spec.engine.profile);
  EXPECT_FALSE(spec.engine.pin_workers.has_value());
  EXPECT_EQ(spec.resolved_profile_trace(), "");
  for (const std::string& file : spec.declared_outputs()) {
    EXPECT_EQ(file.find("profile"), std::string::npos) << file;
  }
}

TEST(ScenarioParserProfile, ProfileTraceOutputImpliesProfiling) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "[outputs]\n"
      "profile_trace fig_profile.json\n");
  EXPECT_TRUE(spec.engine.profile);
  EXPECT_EQ(spec.resolved_profile_trace(), "fig_profile.json");
  const std::vector<std::string> files = spec.declared_outputs();
  EXPECT_NE(std::find(files.begin(), files.end(), "fig_profile.json"),
            files.end());
}

TEST(ScenarioParserProfile, BadProfileValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "profile maybe\n"),
            "line 5: bad value 'maybe' for profile (expected on|off)");
}

// -- scaling keys (barrier / window / partition) --------------------------

TEST(ScenarioParserScaling, BarrierWindowPartitionParse) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "[engine]\n"
      "barrier spin\n"
      "window adaptive\n"
      "partition stripe\n");
  ASSERT_TRUE(spec.engine.barrier.has_value());
  EXPECT_EQ(*spec.engine.barrier, BarrierWait::kSpin);
  EXPECT_EQ(spec.engine.window, WindowPolicy::kAdaptive);
  EXPECT_EQ(spec.engine.partition, PartitionPolicy::kStripe);
}

TEST(ScenarioParserScaling, BlockBarrierParses) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "[engine]\n"
      "barrier block\n");
  ASSERT_TRUE(spec.engine.barrier.has_value());
  EXPECT_EQ(*spec.engine.barrier, BarrierWait::kBlock);
}

TEST(ScenarioParserScaling, Defaults) {
  const ScenarioSpec spec =
      parse_ok("scenario x\n[workload]\ntype swarm\n");
  EXPECT_FALSE(spec.engine.barrier.has_value());  // auto: spin iff cores
  EXPECT_EQ(spec.engine.window, WindowPolicy::kFixed);
  EXPECT_EQ(spec.engine.partition, PartitionPolicy::kTopo);
}

TEST(ScenarioParserScaling, ZeroShardsRejected) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "shards 0\n"),
            "line 5: shards must be positive");
}

TEST(ScenarioParserScaling, BadBarrierValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "barrier busywait\n"),
            "line 5: unknown barrier 'busywait' (spin|block)");
}

TEST(ScenarioParserScaling, BadWindowValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "window huge\n"),
            "line 5: unknown window 'huge' (fixed|adaptive)");
}

TEST(ScenarioParserScaling, BadPartitionValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "partition random\n"),
            "line 5: unknown partition 'random' (topo|stripe)");
}

TEST(ScenarioParserScaling, UnknownEngineKeyEnumeratesTheKeyList) {
  // The error must enumerate every accepted key — including the scaling
  // trio — from the same single source --list-workloads prints.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "warp 9\n"),
            "line 5: unknown key 'warp' in [engine] (expected " +
                engine_keys() + ")");
  EXPECT_NE(engine_keys().find("barrier"), std::string::npos);
  EXPECT_NE(engine_keys().find("window"), std::string::npos);
  EXPECT_NE(engine_keys().find("partition"), std::string::npos);
}

TEST(ScenarioParserScaling, SetOverridesReachScalingKeys) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n[workload]\ntype swarm\n",
      {"engine.barrier=spin", "engine.window=adaptive",
       "engine.partition=stripe"});
  ASSERT_TRUE(spec.engine.barrier.has_value());
  EXPECT_EQ(*spec.engine.barrier, BarrierWait::kSpin);
  EXPECT_EQ(spec.engine.window, WindowPolicy::kAdaptive);
  EXPECT_EQ(spec.engine.partition, PartitionPolicy::kStripe);
}

// -- --set overrides ------------------------------------------------------

TEST(ScenarioParserOverrides, SetRewritesValue) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n[workload]\ntype swarm\nclients 160\n",
      {"workload.clients=8", "engine.shards=2"});
  EXPECT_EQ(spec.swarm.clients, 8u);
  EXPECT_EQ(spec.engine.shards, 2u);
}

TEST(ScenarioParserOverrides, MalformedSet) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"workload.clients"}),
            "--set workload.clients: expected section.key=value");
}

TEST(ScenarioParserOverrides, UnknownSectionInSet) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"warp.speed=9"}),
            "--set warp.speed=9: unknown section 'warp'");
}

TEST(ScenarioParserOverrides, UnknownKeyInSetKeepsSetSource) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"workload.clientz=5"}),
            "--set workload.clientz=5: unknown key 'clientz' in [workload]");
}

TEST(ScenarioParserOverrides, ZeroShardsInSetKeepsSetSource) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"engine.shards=0"}),
            "--set engine.shards=0: shards must be positive");
}

TEST(ScenarioParserOverrides, BadValueInSetKeepsSetSource) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"workload.clients=lots"}),
            "--set workload.clients=lots: bad count 'lots' for clients");
}

// -- shipped .scn <-> catalog equivalence ---------------------------------

void expect_same_plan(const fault::FaultPlan& a, const fault::FaultPlan& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const fault::FaultSpec& x = a.specs()[i];
    const fault::FaultSpec& y = b.specs()[i];
    EXPECT_EQ(x.kind, y.kind) << "fault " << i;
    EXPECT_EQ(x.node, y.node) << "fault " << i;
    EXPECT_EQ(x.at, y.at) << "fault " << i;
    EXPECT_EQ(x.duration, y.duration) << "fault " << i;
    EXPECT_EQ(x.rejoin, y.rejoin) << "fault " << i;
    EXPECT_EQ(x.extra_latency, y.extra_latency) << "fault " << i;
  }
}

void expect_equivalent(const ScenarioSpec& parsed, const ScenarioSpec& built) {
  EXPECT_EQ(parsed.name, built.name);
  EXPECT_EQ(parsed.workload, built.workload);
  EXPECT_EQ(parsed.swarm.clients, built.swarm.clients);
  EXPECT_EQ(parsed.swarm.seeders, built.swarm.seeders);
  EXPECT_EQ(parsed.swarm.file_size.count_bytes(),
            built.swarm.file_size.count_bytes());
  EXPECT_EQ(parsed.swarm.piece_length.count_bytes(),
            built.swarm.piece_length.count_bytes());
  EXPECT_EQ(parsed.swarm.start_interval, built.swarm.start_interval);
  EXPECT_EQ(parsed.swarm.content_seed, built.swarm.content_seed);
  EXPECT_EQ(parsed.swarm.max_duration, built.swarm.max_duration);
  EXPECT_EQ(parsed.ping.nodes, built.ping.nodes);
  EXPECT_EQ(parsed.ping.rules_max, built.ping.rules_max);
  EXPECT_EQ(parsed.ping.rules_step, built.ping.rules_step);
  EXPECT_EQ(parsed.ping.probes, built.ping.probes);
  EXPECT_EQ(parsed.validate.nodes, built.validate.nodes);
  EXPECT_EQ(parsed.validate.flows, built.validate.flows);
  EXPECT_EQ(parsed.validate.transfer.count_bytes(),
            built.validate.transfer.count_bytes());
  EXPECT_EQ(parsed.validate.message.count_bytes(),
            built.validate.message.count_bytes());
  EXPECT_EQ(parsed.validate.loss_datagrams, built.validate.loss_datagrams);
  EXPECT_EQ(parsed.validate.ge_p_good_bad, built.validate.ge_p_good_bad);
  EXPECT_EQ(parsed.validate.ge_p_bad_good, built.validate.ge_p_bad_good);
  EXPECT_EQ(parsed.validate.ge_loss_bad, built.validate.ge_loss_bad);
  EXPECT_EQ(parsed.validate.goodput_tolerance,
            built.validate.goodput_tolerance);
  EXPECT_EQ(parsed.validate.rtt_tolerance, built.validate.rtt_tolerance);
  EXPECT_EQ(parsed.validate.loss_tolerance, built.validate.loss_tolerance);
  EXPECT_EQ(parsed.validate.jain_min, built.validate.jain_min);
  EXPECT_EQ(parsed.validate.expect_bandwidth, built.validate.expect_bandwidth);
  EXPECT_EQ(parsed.gossip.nodes, built.gossip.nodes);
  EXPECT_EQ(parsed.gossip.period, built.gossip.period);
  EXPECT_EQ(parsed.gossip.ping_timeout, built.gossip.ping_timeout);
  EXPECT_EQ(parsed.gossip.suspect_timeout, built.gossip.suspect_timeout);
  EXPECT_EQ(parsed.gossip.indirect_k, built.gossip.indirect_k);
  EXPECT_EQ(parsed.gossip.piggyback, built.gossip.piggyback);
  EXPECT_EQ(parsed.gossip.join_interval, built.gossip.join_interval);
  EXPECT_EQ(parsed.engine.transport, built.engine.transport);
  EXPECT_EQ(parsed.engine.shards, built.engine.shards);
  EXPECT_EQ(parsed.engine.physical_nodes, built.engine.physical_nodes);
  EXPECT_EQ(parsed.engine.fold, built.engine.fold);
  EXPECT_EQ(parsed.engine.seed, built.engine.seed);
  EXPECT_EQ(parsed.engine.stop, built.engine.stop);
  EXPECT_EQ(parsed.engine.check_invariants, built.engine.check_invariants);
  EXPECT_EQ(parsed.engine.trace, built.engine.trace);
  EXPECT_EQ(parsed.engine.profile, built.engine.profile);
  EXPECT_EQ(parsed.engine.pin_workers, built.engine.pin_workers);
  EXPECT_EQ(parsed.engine.barrier, built.engine.barrier);
  EXPECT_EQ(parsed.engine.window, built.engine.window);
  EXPECT_EQ(parsed.engine.partition, built.engine.partition);
  EXPECT_EQ(parsed.resolved_physical_nodes(), built.resolved_physical_nodes());
  EXPECT_EQ(parsed.faults.churn.enabled, built.faults.churn.enabled);
  EXPECT_EQ(parsed.faults.churn.fraction, built.faults.churn.fraction);
  EXPECT_EQ(parsed.faults.churn.window_start, built.faults.churn.window_start);
  EXPECT_EQ(parsed.faults.churn.window_end, built.faults.churn.window_end);
  EXPECT_EQ(parsed.faults.churn.rejoin_fraction,
            built.faults.churn.rejoin_fraction);
  EXPECT_EQ(parsed.faults.churn.rejoin_min, built.faults.churn.rejoin_min);
  EXPECT_EQ(parsed.faults.churn.rejoin_max, built.faults.churn.rejoin_max);
  EXPECT_EQ(parsed.faults.churn.rng_stream, built.faults.churn.rng_stream);
  expect_same_plan(parsed.faults.plan, built.faults.plan);
  EXPECT_EQ(parsed.declared_outputs(), built.declared_outputs());
  EXPECT_EQ(parsed.outputs.completions_note, built.outputs.completions_note);
  EXPECT_EQ(parsed.outputs.completion_curve_note,
            built.outputs.completion_curve_note);
  EXPECT_EQ(parsed.outputs.csv_note, built.outputs.csv_note);
  EXPECT_EQ(parsed.outputs.sampled_every, built.outputs.sampled_every);
  EXPECT_EQ(parsed.outputs.grid, built.outputs.grid);
  EXPECT_EQ(parsed.outputs.report, built.outputs.report);
}

ScenarioSpec parse_shipped(const char* file) {
  const std::string path =
      std::string(P2PLAB_SOURCE_DIR) + "/scenarios/" + file;
  ParseResult result = parse_scenario_file(path, {});
  EXPECT_TRUE(result.spec) << path << ": " << result.error;
  return result.spec ? *result.spec : ScenarioSpec{};
}

/// Zone-level identity of two inline topologies: a harness deriving its
/// expectations (accuracy) or its base RTT (fig6) from the topology would
/// silently change if the file and the catalog drifted apart.
void expect_same_topology(const ScenarioSpec& parsed,
                          const ScenarioSpec& built) {
  ASSERT_EQ(parsed.topology.source, TopologySource::kInline);
  ASSERT_EQ(built.topology.source, TopologySource::kInline);
  ASSERT_TRUE(parsed.topology.built.has_value());
  ASSERT_TRUE(built.topology.built.has_value());
  const topology::Topology& pt = *parsed.topology.built;
  const topology::Topology& ct = *built.topology.built;
  ASSERT_EQ(pt.zones().size(), ct.zones().size());
  for (std::size_t z = 0; z < pt.zones().size(); ++z) {
    const topology::Zone& a = pt.zones()[z];
    const topology::Zone& b = ct.zones()[z];
    EXPECT_EQ(a.name, b.name) << "zone " << z;
    EXPECT_EQ(a.subnet.to_string(), b.subnet.to_string()) << "zone " << z;
    EXPECT_EQ(a.node_count, b.node_count) << "zone " << z;
    EXPECT_EQ(a.link.down, b.link.down) << "zone " << z;
    EXPECT_EQ(a.link.up, b.link.up) << "zone " << z;
    EXPECT_EQ(a.link.latency, b.link.latency) << "zone " << z;
    EXPECT_EQ(a.link.loss_rate, b.link.loss_rate) << "zone " << z;
  }
  ASSERT_EQ(pt.latencies().size(), ct.latencies().size());
  for (std::size_t i = 0; i < pt.latencies().size(); ++i) {
    EXPECT_EQ(pt.latencies()[i].a, ct.latencies()[i].a) << "latency " << i;
    EXPECT_EQ(pt.latencies()[i].b, ct.latencies()[i].b) << "latency " << i;
    EXPECT_EQ(pt.latencies()[i].latency, ct.latencies()[i].latency)
        << "latency " << i;
  }
}

TEST(ShippedScenarios, Fig6MatchesCatalog) {
  const ScenarioSpec parsed = parse_shipped("fig6.scn");
  const ScenarioSpec built = catalog::fig6();
  expect_equivalent(parsed, built);
  expect_same_topology(parsed, built);
  // The LAN link adds no delay: the RTT is the rule scan and the host path.
  const topology::LinkClass& lan = parsed.topology.built->link_of_node(0);
  EXPECT_TRUE(lan.up.is_unlimited());
  EXPECT_TRUE(lan.down.is_unlimited());
  EXPECT_EQ(lan.latency, Duration::zero());
}

TEST(ShippedScenarios, Fig8MatchesCatalog) {
  expect_equivalent(parse_shipped("fig8.scn"), catalog::fig8());
}

TEST(ShippedScenarios, Fig10MatchesCatalog) {
  expect_equivalent(parse_shipped("fig10.scn"), catalog::fig10());
}

TEST(ShippedScenarios, ChurnMatchesCatalog) {
  expect_equivalent(parse_shipped("churn.scn"), catalog::churn());
}

TEST(ShippedScenarios, FlashCrowdParses) {
  const ScenarioSpec spec = parse_shipped("flashcrowd.scn");
  expect_equivalent(spec, catalog::flash_crowd());
}

TEST(ShippedScenarios, GossipMatchesCatalog) {
  expect_equivalent(parse_shipped("gossip.scn"), catalog::gossip());
}

TEST(ShippedScenarios, AccuracyMatchesCatalog) {
  const ScenarioSpec parsed = parse_shipped("accuracy.scn");
  const ScenarioSpec built = catalog::accuracy();
  expect_equivalent(parsed, built);
  expect_same_topology(parsed, built);
}

}  // namespace
}  // namespace p2plab::scenario
