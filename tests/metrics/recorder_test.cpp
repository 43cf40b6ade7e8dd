#include "metrics/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/time.hpp"

namespace p2plab::metrics {
namespace {

SimTime at_ms(std::int64_t ms) { return SimTime::zero() + Duration::ms(ms); }

std::string flush_to_string(const FlightRecorder& rec) {
  std::FILE* tmp = std::tmpfile();
  rec.flush(tmp);
  std::rewind(tmp);
  std::string out;
  char buf[256];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0) out.append(buf, n);
  std::fclose(tmp);
  return out;
}

TEST(FlightRecorder, RecordsAndFlushesJsonl) {
  FlightRecorder rec;
  rec.record(at_ms(1500), "bt", "torrent_complete",
             {{"ip", "10.0.0.1"}, {"secs", 1.5}});
  ASSERT_EQ(rec.rendered_events().size(), 1u);
  EXPECT_EQ(rec.rendered_events()[0].t, at_ms(1500));
  const std::string out = flush_to_string(rec);
  EXPECT_EQ(out, rec.rendered_events()[0].line + "\n");
  EXPECT_EQ(out,
            "{\"t\":1.500000000,\"subsystem\":\"bt\","
            "\"kind\":\"torrent_complete\",\"ip\":\"10.0.0.1\","
            "\"secs\":1.5}\n");
}

TEST(FlightRecorder, KeepsEveryEventInRecordOrder) {
  FlightRecorder rec;
  EXPECT_EQ(flush_to_string(rec), "");
  for (int i = 0; i < 10; ++i) {
    rec.record(at_ms(i), "t", "e", {{"i", i}});
  }
  ASSERT_EQ(rec.rendered_events().size(), 10u);
  // Nothing is dropped: every event is flushed, oldest first.
  const std::string out = flush_to_string(rec);
  std::stringstream lines(out);
  std::string line;
  int expect = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line, rec.rendered_events()[static_cast<std::size_t>(expect)]
                        .line);
    EXPECT_NE(line.find("\"i\":" + std::to_string(expect)),
              std::string::npos)
        << line;
    ++expect;
  }
  EXPECT_EQ(expect, 10);
}

TEST(FlightRecorder, EscapesJson) {
  EXPECT_EQ(FlightRecorder::escape_json("plain"), "plain");
  EXPECT_EQ(FlightRecorder::escape_json("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(FlightRecorder::escape_json("x\n\r\ty"), "x\\n\\r\\ty");
  EXPECT_EQ(FlightRecorder::escape_json(std::string("\x01", 1)), "\\u0001");
}

TEST(FlightRecorder, EscapedFieldsSurviveFlush) {
  FlightRecorder rec;
  rec.record(at_ms(0), "sub\"sys", "kind\n", {{"k\"ey", "v\\al"}});
  const std::string out = flush_to_string(rec);
  EXPECT_EQ(out,
            "{\"t\":0.000000000,\"subsystem\":\"sub\\\"sys\","
            "\"kind\":\"kind\\n\",\"k\\\"ey\":\"v\\\\al\"}\n");
}

TEST(FlightRecorder, TraceMacroOnlyRecordsWhenActive) {
  FlightRecorder rec;
  int evaluations = 0;
  auto payload = [&evaluations] {
    ++evaluations;
    return std::string("x");
  };

  P2PLAB_TRACE(at_ms(0), "t", "e", {{"k", payload()}});
  EXPECT_EQ(evaluations, 0);  // inactive: payload not evaluated
  EXPECT_TRUE(rec.rendered_events().empty());

  FlightRecorder::set_active(&rec);
  P2PLAB_TRACE(at_ms(0), "t", "e", {{"k", payload()}});
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(rec.rendered_events().size(), 1u);
  FlightRecorder::set_active(nullptr);
}

TEST(FlightRecorder, ActiveClearedOnDestruction) {
  {
    FlightRecorder rec;
    FlightRecorder::set_active(&rec);
    EXPECT_EQ(FlightRecorder::active(), &rec);
  }
  EXPECT_EQ(FlightRecorder::active(), nullptr);
}

TEST(FlightRecorder, FlushToResultsDir) {
  char dir_template[] = "/tmp/p2plab_rec_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir_template, 1);
  FlightRecorder rec;
  rec.record(at_ms(0), "t", "e");
  EXPECT_TRUE(rec.flush_to_results("trace_test.jsonl"));
  unsetenv("P2PLAB_RESULTS_DIR");

  std::string line;
  {
    std::ifstream file(std::string(dir_template) + "/trace_test.jsonl");
    std::getline(file, line);
  }
  std::filesystem::remove_all(dir_template);
  EXPECT_NE(line.find("\"subsystem\":\"t\""), std::string::npos);

  EXPECT_FALSE(rec.flush_to_results("x.jsonl"));  // env unset
}

}  // namespace
}  // namespace p2plab::metrics
