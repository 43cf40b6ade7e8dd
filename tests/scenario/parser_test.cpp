// Scenario-DSL parser tests: golden error messages (with line numbers —
// the DSL's main UX surface), --set override semantics, unit parsing, and
// every shipped scenarios/*.scn parsing (each file is the only spec of its
// experiment).
#include "scenario/parser.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/workload.hpp"

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
  EXPECT_EQ(text::parse_size("100")->count_bytes(), 100u);
  EXPECT_EQ(text::parse_size("256k")->count_bytes(), 256u * 1024);
  EXPECT_EQ(text::parse_size("256K")->count_bytes(), 256u * 1024);
  EXPECT_EQ(text::parse_size("16M")->count_bytes(), 16u * 1024 * 1024);
  EXPECT_EQ(text::parse_size("1G")->count_bytes(), 1024u * 1024 * 1024);
  EXPECT_FALSE(text::parse_size("0"));    // sizes must be positive
  EXPECT_FALSE(text::parse_size(""));
  EXPECT_FALSE(text::parse_size("12T"));  // unknown suffix
  EXPECT_FALSE(text::parse_size("bogus"));
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
  EXPECT_EQ(spec.engine.transport, sockets::TransportModel::kTcp);
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
  EXPECT_EQ(spec.engine.transport, sockets::TransportModel::kFlow);
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
            "line 0: gossip requires stop=time (membership has no "
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

TEST(ScenarioParserGossip, LastMemberMustStartBeforeTheRunEnds) {
  // Member i starts at i x join_interval (200 ms by default): at 1024
  // members the last one would start 24.6 s after a 180 s run ends.
  const std::string head =
      "scenario g\n"
      "[workload]\n"
      "type gossip\n"
      "[engine]\n"
      "stop time\n"
      "run_for 180\n";
  EXPECT_EQ(parse_error(head, {"workload.nodes=1024"}),
            "line 5: gossip member 1023 starts at 204.6s (join_interval x "
            "1023), not before run_for 180s ends: run_for must exceed "
            "204.6s");
  // Starting exactly at the end is refused too; one earlier is fine.
  EXPECT_NE(parse_error(head, {"workload.nodes=901"}).find("member 900"),
            std::string::npos);
  EXPECT_EQ(parse_ok(head, {"workload.nodes=900"}).gossip.nodes, 900u);
  // A node count whose last start overflows 64-bit nanoseconds is
  // refused, not wrapped.
  EXPECT_NE(parse_error(head, {"workload.nodes=100000000000000"})
                .find("member 99999999999999 starts at"),
            std::string::npos);
  // The benchmark's shape: 128 members over two simulated hours.
  EXPECT_EQ(parse_ok(head, {"workload.nodes=128", "engine.run_for=7200"})
                .gossip.nodes,
            128u);
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

TEST(ScenarioParserErrors, ReportKeyIsRetired) {
  // Every run ends with its report; there is nothing left to switch on.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type ping_sweep\n"
                        "[outputs]\n"
                        "report on\n"),
            "line 5: unknown key 'report' in [outputs]");
}

TEST(ScenarioParser, RunRecordOutputsAreCrossWorkload) {
  // The health timeline and the flight-recorder trace belong to every
  // workload, and name the files the run declares.
  for (const char* type : {"ping_sweep", "validate", "swarm"}) {
    const ScenarioSpec spec = parse_ok(std::string("scenario x\n"
                                                   "[workload]\n"
                                                   "type ") +
                                       type +
                                       "\n"
                                       "[outputs]\n"
                                       "metrics run_metrics\n"
                                       "trace run.jsonl\n");
    EXPECT_EQ(spec.outputs.metrics, "run_metrics") << type;
    EXPECT_TRUE(spec.engine.trace) << type;
    const std::vector<std::string> files = spec.declared_outputs();
    EXPECT_NE(std::find(files.begin(), files.end(), "run_metrics.csv"),
              files.end())
        << type;
    EXPECT_NE(std::find(files.begin(), files.end(), "run.jsonl"), files.end())
        << type;
  }
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

TEST(ScenarioParserErrors, PingRuleCountsOutOfRange) {
  const std::string ping =
      "scenario x\n"
      "[workload]\n"
      "type ping_sweep\n";
  for (const std::string key : {"rules_max", "rules_step"}) {
    EXPECT_EQ(parse_error(ping + key + " 4294967296\n"),
              "line 4: " + key + " must be at most 4294967295");
    EXPECT_EQ(parse_error(ping, {"workload." + key + "=4294967296"}),
              "--set workload." + key + "=4294967296: " + key +
                  " must be at most 4294967295");
  }
  EXPECT_EQ(parse_error(ping + "rules_step 0\n"),
            "line 4: rules_step must be positive");
  const ScenarioSpec spec =
      parse_ok(ping, {"workload.rules_max=4294967295",
                      "workload.rules_step=4294967295"});
  EXPECT_EQ(spec.ping.rules_max, 4294967295u);
  EXPECT_EQ(spec.ping.rules_step, 4294967295u);
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

TEST(ScenarioParserErrors, FaultNodesOutsideTheWorkload) {
  // Each of these used to parse and then abort the run with an uncaught
  // std::out_of_range. A swarm of 8 clients has 13 vnodes (0..12), an
  // 8-member gossip 8.
  const std::string swarm =
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "clients 8\n"
      "[faults]\n";
  const std::string gossip =
      "scenario x\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 8\n"
      "[engine]\n"
      "stop time\n"
      "run_for 60\n"
      "[faults]\n";
  EXPECT_EQ(parse_error(swarm + "linkdown node=50 at=1 for=5\n"),
            "line 6: node must be at most 12");
  EXPECT_EQ(parse_error(swarm + "crash node=-1 at=1\n"),
            "line 6: bad count '-1' for node");
  EXPECT_EQ(parse_error(swarm +
                        "churn fraction=0.5 window=1..20 first=5 last=500\n"),
            "line 6: last must be at most 12");
  EXPECT_EQ(parse_error(swarm + "churn window=1..20 first=9 last=5\n"),
            "line 6: churn needs first <= last");
  EXPECT_EQ(parse_error(gossip + "crash node=20 at=5\n"),
            "line 9: node must be at most 7");
  EXPECT_EQ(parse_error(gossip + "churn window=1..20 first=8\n"),
            "line 9: first must be at most 7");
  const ScenarioSpec edge = parse_ok(gossip + "crash node=7 at=5\n");
  EXPECT_EQ(edge.faults.plan.specs()[0].node, 7u);

  // An included fault file keeps the "include '...': line N" shape.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "p2plab_parser_test";
  std::filesystem::create_directories(dir);
  {
    std::ofstream plan(dir / "far.fault");
    plan << "# plan\ncrash node=3 at=1\ncrash node=20 at=5\n";
  }
  ParseOptions options;
  options.base_dir = dir.string();
  EXPECT_EQ(parse_scenario(gossip + "include far.fault\n", options).error,
            "line 9: include 'far.fault': line 3: node must be at most 7");
  std::filesystem::remove_all(dir);
}

TEST(ScenarioParserErrors, ChurnBoundsMeetTheWorkloadDefaults) {
  // A bound left out defaults to the workload's churn victims (swarm: the
  // clients, 5..12 here; gossip: 1..nodes-1), so the given one is checked
  // against it. Both first two inputs used to parse and then abort the
  // run on FaultPlan::churn's assertion.
  const std::string swarm =
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "clients 8\n"
      "[faults]\n";
  const std::string gossip =
      "scenario x\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 8\n"
      "[engine]\n"
      "stop time\n"
      "run_for 60\n"
      "[faults]\n";
  EXPECT_EQ(parse_error(swarm + "churn fraction=0.5 window=1..20 last=2\n"),
            "line 6: churn needs first <= last");
  EXPECT_EQ(parse_error(gossip + "churn fraction=0.5 window=1..20 last=0\n"),
            "line 9: churn needs first <= last");
  EXPECT_EQ(parse_error(swarm + "churn window=1..20 first=12 last=5\n"),
            "line 6: churn needs first <= last");
  // Rejoin downtimes are drawn from [rejoin_min, rejoin_max).
  EXPECT_EQ(parse_error(swarm +
                        "churn window=1..20 rejoin_min=100 rejoin_max=5\n"),
            "line 6: churn needs rejoin_min <= rejoin_max");
  EXPECT_EQ(parse_error(swarm + "churn window=1..20 rejoin_min=200\n"),
            "line 6: churn needs rejoin_min <= rejoin_max");

  const ScenarioSpec low = parse_ok(swarm + "churn window=1..20 last=5\n");
  EXPECT_EQ(churn_range(low).first, 5u);
  EXPECT_EQ(churn_range(low).last, 5u);
  const ScenarioSpec all = parse_ok(gossip + "churn window=1..20 first=0\n");
  EXPECT_EQ(churn_range(all).first, 0u);
  EXPECT_EQ(churn_range(all).last, 7u);
}

TEST(ScenarioParserErrors, MalformedValuesCarryTheirLine) {
  // NaN, infinity, values past their 64-bit field, fractional counts and
  // repeated attributes parsed on the old code and then aborted the run
  // or changed it silently; each is now refused on its own line.
  const std::string head =
      "scenario x\n"
      "[workload]\n"
      "type swarm\n";
  const std::pair<std::string, std::string> cases[] = {
      {head + "file_size 1e30G\n", "line 4: bad size '1e30G'"},
      {head + "max_duration inf\n", "line 4: bad duration 'inf'"},
      {head + "start_interval nan\n", "line 4: bad duration 'nan'"},
      {head + "clients 5.7\n", "line 4: bad count '5.7'"},
      {head + "[faults]\nchurn fraction=nan window=1..20\n",
       "line 5: bad value 'nan' for fraction"},
      {head + "[faults]\nchurn window=1..20 window=2..30\n",
       "line 5: duplicate key 'window' in churn"},
      {head + "[faults]\ntracker_outage at=1e300 for=5\n",
       "line 5: bad duration '1e300' for at"},
      {head + "[faults]\nspike node=5 at=1 add=1e30 for=5\n",
       "line 5: bad duration '1e30' for add"},
      {head + "[faults]\nburstloss node=5 at=1 for=5 pgb=nan pbg=0.3\n",
       "line 5: bad value 'nan' for pgb"},
      {head + "[topology]\nauto latency=nan\n",
       "line 5: bad duration 'nan' for latency"},
      {head + "[topology]\nauto loss=nan\n",
       "line 5: bad value 'nan' for loss"},
      {head + "[topology]\nauto down=1e30G\n",
       "line 5: bad bandwidth '1e30G' for down"},
      {head + "[topology]\nauto up=1M up=2M\n",
       "line 5: duplicate key 'up' in auto"},
      {head + "[topology]\nauto jitter=5ms\n",
       "line 5: unknown key 'jitter' in auto"},
      {head + "[topology]\n"
              "zone a 10.1.0.0/24 nodes=5.7 down=2M up=1M latency=1ms\n",
       "line 5: bad count '5.7' for nodes"},
      {head + "[topology]\n"
              "zone a 10.1.0.0/24 nodes=20 down=2M up=1M latency=1e30s\n",
       "line 5: bad duration '1e30s' for latency"},
      {head + "[topology]\n"
              "zone a 10.1.0.0/24 nodes=20 down=2M up=1M latency=1ms\n"
              "zone b 10.2.0.0/24 nodes=20 down=2M up=1M latency=1ms\n"
              "latency a b 1e300\n",
       "line 7: bad latency '1e300'"},
  };
  for (const auto& [text, expected] : cases) {
    const std::string error = parse_error(text);
    EXPECT_EQ(error.rfind(expected, 0), 0u) << text << " -> " << error;
  }
}

TEST(ScenarioParser, HashStartsACommentInEverySection) {
  // `#` outside quotes ends the line in [faults] and [topology] just as in
  // the key/value sections: `at=5#x` is `at=5`.
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "clients 8#0\n"
      "[topology]\n"
      "zone a 10.1.0.0/24 nodes=20 down=2M up=1M latency=7ms#x loss=1\n"
      "[faults]\n"
      "crash node=3 at=5#x rejoin=9\n");
  EXPECT_EQ(spec.swarm.clients, 8u);
  EXPECT_EQ(spec.topology.built->zones()[0].link.latency, Duration::ms(7));
  EXPECT_EQ(spec.topology.built->zones()[0].link.loss_rate, 0.0);
  ASSERT_EQ(spec.faults.plan.size(), 1u);
  EXPECT_EQ(spec.faults.plan.specs()[0].at, SimTime::zero() + Duration::sec(5));
  EXPECT_FALSE(spec.faults.plan.specs()[0].rejoin);
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

// -- scaling keys (window, barrier and partition are gone) ---------------

/// The unknown-key error every removed [engine] key now gets.
std::string unknown_engine_key(const std::string& where,
                               const std::string& key) {
  return where + ": unknown key '" + key + "' in [engine] (expected " +
         engine_keys() + ")";
}

TEST(ScenarioParserScaling, BarrierWindowPartitionParse) {
  // Windows always follow the fixed lookahead grid, the barrier derives its
  // spin budget from the core count and the partition is always
  // topology-aware: no scaling key is left, so each is refused.
  for (const std::string entry :
       {"window fixed", "window adaptive", "barrier spin", "barrier block",
        "partition topo", "partition stripe"}) {
    const std::string key = entry.substr(0, entry.find(' '));
    EXPECT_EQ(parse_error("scenario x\n"
                          "[workload]\n"
                          "type swarm\n"
                          "[engine]\n"
                          "shards 2\n" +
                          entry + "\n"),
              unknown_engine_key("line 6", key))
        << entry;
  }
}

TEST(ScenarioParserScaling, BlockBarrierParses) {
  // What `barrier block` used to force is now simply the automatic choice
  // on a box with fewer cores than shards; the key itself is unknown.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "barrier block\n"),
            unknown_engine_key("line 5", "barrier"));
}

TEST(ScenarioParserScaling, Defaults) {
  const ScenarioSpec spec =
      parse_ok("scenario x\n[workload]\ntype swarm\n");
  EXPECT_FALSE(spec.engine.pin_workers.has_value());  // auto: pin iff cores
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
  // Any barrier value, valid or not, now fails on the key.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "barrier busywait\n"),
            unknown_engine_key("line 5", "barrier"));
}

TEST(ScenarioParserScaling, BadPartitionValue) {
  // Any partition value, valid or not, now fails on the key.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "partition random\n"),
            unknown_engine_key("line 5", "partition"));
}

TEST(ScenarioParserScaling, UnknownEngineKeyEnumeratesTheKeyList) {
  // The error must enumerate every accepted key from the same single
  // source --list-workloads prints.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "warp 9\n"),
            unknown_engine_key("line 5", "warp"));
  EXPECT_EQ(engine_keys(),
            "shards|transport|physical_nodes|fold|seed|stop|run_for|"
            "check_invariants|trace|profile|pin");
}

TEST(ScenarioParserScaling, SetOverridesReachScalingKeys) {
  // --set reaches [engine] like a file line does, so a removed key fails
  // there too, naming the override that carried it.
  for (const std::string set :
       {"engine.window=fixed", "engine.barrier=spin", "engine.partition=topo"}) {
    const std::string key = set.substr(7, set.find('=') - 7);
    EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n", {set}),
              unknown_engine_key("--set " + set, key));
  }
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

// -- shipped scenarios -----------------------------------------------------

ScenarioSpec parse_shipped(const char* file) {
  const std::string path =
      std::string(P2PLAB_SOURCE_DIR) + "/scenarios/" + file;
  ParseResult result = parse_scenario_file(path, {});
  EXPECT_TRUE(result.spec) << path << ": " << result.error;
  return result.spec ? *result.spec : ScenarioSpec{};
}

TEST(ShippedScenarios, EveryFileParses) {
  // Each .scn is the only spec of its experiment: every one shipped must
  // parse, and declare at least one output to be worth running.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(P2PLAB_SOURCE_DIR) + "/scenarios")) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 8u);
  for (const std::string& file : files) {
    const ScenarioSpec spec = parse_shipped(file.c_str());
    EXPECT_FALSE(spec.name.empty()) << file;
    EXPECT_FALSE(spec.declared_outputs().empty()) << file;
  }

  // fig6: the LAN link adds no delay, so the RTT is the rule scan and the
  // host path.
  const ScenarioSpec fig6 = parse_shipped("fig6.scn");
  ASSERT_TRUE(fig6.topology.built.has_value());
  const topology::LinkClass& lan = fig6.topology.built->link_of_node(0);
  EXPECT_TRUE(lan.up.is_unlimited());
  EXPECT_TRUE(lan.down.is_unlimited());
  EXPECT_EQ(lan.latency, Duration::zero());

  // accuracy: the harness derives its expectations from these zones and
  // latency pairs.
  const ScenarioSpec accuracy = parse_shipped("accuracy.scn");
  ASSERT_TRUE(accuracy.topology.built.has_value());
  EXPECT_EQ(accuracy.topology.built->zones().size(), 3u);
  EXPECT_EQ(accuracy.topology.built->latencies().size(), 3u);
}

TEST(ShippedScenarios, FlashCrowdParses) {
  const ScenarioSpec spec = parse_shipped("flashcrowd.scn");
  EXPECT_EQ(spec.swarm.clients, 256u);
  EXPECT_EQ(spec.engine.fold, std::optional<std::size_t>(32));
  ASSERT_EQ(spec.faults.plan.size(), 1u);
  EXPECT_EQ(spec.faults.plan.specs()[0].kind,
            fault::FaultKind::kTrackerOutage);
}

// The catalog of each experiment is its .scn file: these tests pin the
// paper's parameters that file must carry, so an edit that silently changes
// an experiment fails here rather than in a figure.

TEST(ShippedScenarios, Fig6MatchesCatalog) {
  const ScenarioSpec spec = parse_shipped("fig6.scn");
  EXPECT_EQ(spec.name, "fig6");
  EXPECT_EQ(spec.workload, "ping_sweep");
  EXPECT_EQ(spec.ping.nodes, 2u);
  EXPECT_EQ(spec.ping.rules_max, 50000u);
  EXPECT_EQ(spec.ping.rules_step, 5000u);
  EXPECT_EQ(spec.ping.probes, 10u);
  ASSERT_TRUE(spec.topology.built.has_value());
  ASSERT_EQ(spec.topology.built->zones().size(), 1u);
  EXPECT_EQ(spec.topology.built->zones()[0].node_count, 2u);
  EXPECT_EQ(spec.outputs.csv, "fig6_ipfw_rules");
  EXPECT_EQ(spec.outputs.bench_json, "BENCH_fig6");
  EXPECT_TRUE(spec.outputs.metrics.empty());
}

TEST(ShippedScenarios, Fig8MatchesCatalog) {
  // Everything but the client count is the swarm's paper default.
  const ScenarioSpec spec = parse_shipped("fig8.scn");
  const bt::SwarmConfig paper;
  EXPECT_EQ(spec.name, "fig8");
  EXPECT_EQ(spec.workload, "swarm");
  EXPECT_EQ(spec.swarm.clients, 160u);
  EXPECT_EQ(spec.swarm.seeders, paper.seeders);
  EXPECT_EQ(spec.swarm.file_size.count_bytes(), paper.file_size.count_bytes());
  EXPECT_EQ(spec.swarm.start_interval, paper.start_interval);
  EXPECT_EQ(spec.swarm.max_duration, paper.max_duration);
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_EQ(spec.engine.shards, 1u);
  EXPECT_FALSE(spec.engine.fold.has_value());
  EXPECT_EQ(spec.engine.stop, StopMode::kAllComplete);
  EXPECT_EQ(spec.outputs.progress_envelope, "fig8_progress_envelope");
  EXPECT_EQ(spec.outputs.completions, "fig8_completion_times");
  EXPECT_EQ(spec.outputs.metrics, "fig8_metrics");
  EXPECT_EQ(spec.outputs.bench_json, "BENCH_fig8");
}

TEST(ShippedScenarios, Fig10MatchesCatalog) {
  const ScenarioSpec spec = parse_shipped("fig10.scn");
  EXPECT_EQ(spec.name, "fig10");
  EXPECT_EQ(spec.swarm.clients, 1440u);
  EXPECT_EQ(spec.swarm.start_interval, Duration::millis(250));
  EXPECT_EQ(spec.swarm.max_duration, Duration::sec(30000));
  EXPECT_EQ(spec.engine.fold, std::optional<std::size_t>(32));
  EXPECT_EQ(spec.outputs.sampled_progress, "fig10_sampled_progress");
  EXPECT_EQ(spec.outputs.sampled_every, 50u);
  EXPECT_EQ(spec.outputs.completion_curve, "fig11_completion_curve");
  EXPECT_EQ(spec.outputs.metrics, "fig10_metrics");
  EXPECT_EQ(spec.outputs.bench_json, "BENCH_fig10");
}

TEST(ShippedScenarios, ChurnMatchesCatalog) {
  const ScenarioSpec spec = parse_shipped("churn.scn");
  EXPECT_EQ(spec.name, "churn");
  EXPECT_EQ(spec.swarm.clients, 160u);
  const ChurnDirective& churn = spec.faults.churn;
  EXPECT_TRUE(churn.enabled);
  EXPECT_EQ(churn.fraction, 0.3);
  EXPECT_EQ(churn.window_start, Duration::sec(200));
  EXPECT_EQ(churn.window_end, Duration::sec(1200));
  EXPECT_EQ(churn.rejoin_fraction, 0.5);
  EXPECT_EQ(churn.rejoin_min, Duration::sec(30));
  EXPECT_EQ(churn.rejoin_max, Duration::sec(120));
  // The explicit extras, in time order; client c is vnode 1 + seeders + c.
  const std::size_t first = 1 + spec.swarm.seeders;
  ASSERT_EQ(spec.faults.plan.size(), 4u);
  const auto& plan = spec.faults.plan.specs();
  EXPECT_EQ(plan[0].kind, fault::FaultKind::kLinkDown);
  EXPECT_EQ(plan[0].node, first);
  EXPECT_EQ(plan[0].at, SimTime::zero() + Duration::sec(300));
  EXPECT_EQ(plan[0].duration, Duration::sec(20));
  EXPECT_EQ(plan[1].kind, fault::FaultKind::kTrackerOutage);
  EXPECT_EQ(plan[1].at, SimTime::zero() + Duration::sec(400));
  EXPECT_EQ(plan[1].duration, Duration::sec(120));
  EXPECT_EQ(plan[2].kind, fault::FaultKind::kBurstLoss);
  EXPECT_EQ(plan[2].node, first + 1);
  EXPECT_EQ(plan[2].at, SimTime::zero() + Duration::sec(500));
  EXPECT_EQ(plan[2].duration, Duration::sec(60));
  EXPECT_EQ(plan[3].kind, fault::FaultKind::kLatencySpike);
  EXPECT_EQ(plan[3].node, first + 2);
  EXPECT_EQ(plan[3].at, SimTime::zero() + Duration::sec(600));
  EXPECT_EQ(plan[3].extra_latency, Duration::ms(200));
  EXPECT_EQ(spec.engine.stop, StopMode::kSurvivorsComplete);
  EXPECT_TRUE(spec.engine.check_invariants);
  EXPECT_TRUE(spec.engine.trace);
  EXPECT_EQ(spec.outputs.summary, "churn_summary");
  EXPECT_EQ(spec.outputs.metrics, "churn_metrics");
  EXPECT_EQ(spec.outputs.trace_file, "trace.jsonl");
  EXPECT_EQ(spec.outputs.bench_json, "BENCH_churn");
}

TEST(ShippedScenarios, GossipMatchesCatalog) {
  const ScenarioSpec spec = parse_shipped("gossip.scn");
  EXPECT_EQ(spec.name, "gossip");
  EXPECT_EQ(spec.workload, "gossip");
  EXPECT_EQ(spec.gossip.nodes, 48u);
  const ChurnDirective& churn = spec.faults.churn;
  EXPECT_TRUE(churn.enabled);
  EXPECT_EQ(churn.fraction, 0.25);
  EXPECT_EQ(churn.window_start, Duration::sec(30));
  EXPECT_EQ(churn.window_end, Duration::sec(90));
  EXPECT_EQ(churn.rejoin_min, Duration::sec(20));
  EXPECT_EQ(churn.rejoin_max, Duration::sec(40));
  ASSERT_EQ(spec.faults.plan.size(), 2u);
  for (const fault::FaultSpec& f : spec.faults.plan.specs()) {
    EXPECT_EQ(f.kind, fault::FaultKind::kBurstLoss);
    EXPECT_EQ(f.duration, Duration::sec(20));
    EXPECT_EQ(f.burst.loss_bad, 0.8);
  }
  EXPECT_EQ(spec.faults.plan.specs()[0].node, 2u);
  EXPECT_EQ(spec.faults.plan.specs()[1].node, 3u);
  EXPECT_EQ(spec.engine.stop, StopMode::kTime);
  EXPECT_EQ(spec.engine.run_for, Duration::sec(180));
  EXPECT_TRUE(spec.engine.check_invariants);
  EXPECT_EQ(spec.outputs.detection_csv, "gossip_detection");
  EXPECT_EQ(spec.outputs.fp_summary, "gossip_fp_summary");
  EXPECT_EQ(spec.outputs.bench_json, "BENCH_gossip");
  EXPECT_EQ(spec.outputs.metrics, "gossip_metrics");
}

TEST(ShippedScenarios, AccuracyMatchesCatalog) {
  // The harness derives its expectations from these zones and latencies.
  const ScenarioSpec spec = parse_shipped("accuracy.scn");
  EXPECT_EQ(spec.name, "accuracy");
  EXPECT_EQ(spec.workload, "validate");
  ASSERT_TRUE(spec.topology.built.has_value());
  const topology::Topology& topo = *spec.topology.built;
  ASSERT_EQ(topo.zones().size(), 3u);
  const std::size_t nodes[] = {4, 2, 4};
  const Duration latency[] = {Duration::ms(20), Duration::ms(30),
                              Duration::ms(40)};
  for (std::size_t z = 0; z < 3; ++z) {
    EXPECT_EQ(topo.zones()[z].node_count, nodes[z]) << "zone " << z;
    EXPECT_EQ(topo.zones()[z].link.latency, latency[z]) << "zone " << z;
  }
  EXPECT_EQ(topo.zones()[2].link.up, Bandwidth::kbps(512));
  ASSERT_EQ(topo.latencies().size(), 3u);
  EXPECT_EQ(topo.latencies()[0].latency, Duration::ms(100));
  EXPECT_EQ(topo.latencies()[1].latency, Duration::ms(400));
  EXPECT_EQ(topo.latencies()[2].latency, Duration::ms(200));
  EXPECT_EQ(spec.validate.nodes, 10u);
  EXPECT_EQ(spec.validate.flows, 4u);
  EXPECT_EQ(spec.validate.transfer.count_bytes(),
            DataSize::mib(2).count_bytes());
  EXPECT_EQ(spec.validate.message.count_bytes(),
            DataSize::kib(16).count_bytes());
  EXPECT_EQ(spec.validate.loss_datagrams, 20000u);
  EXPECT_EQ(spec.engine.transport, sockets::TransportModel::kTcp);
  EXPECT_EQ(spec.outputs.accuracy_json, "ACCURACY");
  EXPECT_EQ(spec.outputs.bench_json, "BENCH_accuracy");
}

}  // namespace
}  // namespace p2plab::scenario
