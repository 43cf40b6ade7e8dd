#include "metrics/health.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/time.hpp"
#include "metrics/registry.hpp"

namespace p2plab::metrics {
namespace {

std::string report_to_string(const HealthMonitor& monitor) {
  std::FILE* tmp = std::tmpfile();
  monitor.print_report(tmp);
  std::rewind(tmp);
  std::string out;
  char buf[256];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0) out.append(buf, n);
  std::fclose(tmp);
  return out;
}

HealthProbe at_ms(std::int64_t ms, std::uint64_t events) {
  return {.now = SimTime::zero() + Duration::ms(ms), .events = events};
}

TEST(HealthMonitor, SamplesPeriodicallyPlusFinal) {
  // The platform offers a sample at every barrier; the monitor takes one
  // per elapsed period (at the first barrier past it) plus the final one.
  Registry reg;
  HealthMonitor monitor({.period = Duration::sec(1),
                         .csv_name = "health_test",
                         .heartbeat_wall_seconds = 0.0});
  monitor.start(reg, at_ms(0, 0));
  for (std::int64_t ms = 250; ms <= 3500; ms += 250) {
    if (monitor.due(SimTime::zero() + Duration::ms(ms))) {
      monitor.sample(at_ms(ms, static_cast<std::uint64_t>(ms)));
    }
  }
  EXPECT_EQ(monitor.samples(), 3u);  // at t = 1, 2, 3
  monitor.stop(at_ms(3500, 3500));
  EXPECT_EQ(monitor.samples(), 4u);  // + final sample
  EXPECT_FALSE(monitor.running());
  EXPECT_FALSE(monitor.due(SimTime::zero() + Duration::sec(10)));
}

TEST(HealthMonitor, RestartAccumulatesAcrossRuns) {
  Registry reg;
  Counter tick = reg.counter("test.ticks");
  HealthMonitor monitor({.period = Duration::sec(1),
                         .csv_name = "health_restart_test",
                         .tracked = {"test.ticks"},
                         .heartbeat_wall_seconds = 0.0});

  monitor.set_label("run=1");
  monitor.start(reg, at_ms(0, 0));
  tick.inc();
  monitor.sample(at_ms(1000, 5));
  monitor.stop(at_ms(1500, 7));
  EXPECT_EQ(monitor.events_observed(), 7u);

  monitor.set_label("run=2");
  monitor.start(reg, at_ms(1500, 7));
  monitor.stop(at_ms(3500, 20));
  EXPECT_EQ(monitor.events_observed(), 20u);  // 7 + 13
  EXPECT_EQ(monitor.samples(), 3u);
}

TEST(HealthMonitor, PrintReportDumpsRegistry) {
  Registry reg;
  Counter c = reg.counter("test.answer");
  c.inc(42);
  HealthMonitor monitor({.period = Duration::sec(1),
                         .csv_name = "health_report_test",
                         .heartbeat_wall_seconds = 0.0});
  monitor.start(reg, at_ms(0, 0));
  monitor.stop(at_ms(1500, 3));

  // After stop() the monitor reports the last run's registry.
  const std::string report = report_to_string(monitor);
  EXPECT_NE(report.find("# --- metrics report ---"), std::string::npos);
  EXPECT_NE(report.find("# test.answer = 42"), std::string::npos);
  EXPECT_NE(report.find("# --- end metrics report ---"), std::string::npos);
}

TEST(HealthMonitor, TimelineLandsInResultsDir) {
  char dir_template[] = "/tmp/p2plab_health_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir_template, 1);
  {
    Registry reg;
    Counter c = reg.counter("test.val");
    c.inc(7);
    HealthMonitor monitor({.period = Duration::sec(1),
                           .csv_name = "health_csv_test",
                           .tracked = {"test.val"},
                           .heartbeat_wall_seconds = 0.0});
    monitor.set_label("fold=2");
    monitor.start(reg, at_ms(0, 0));
    monitor.sample(at_ms(1000, 4));
    monitor.stop(at_ms(2500, 9));
  }  // CsvWriter flushes on destruction
  unsetenv("P2PLAB_RESULTS_DIR");

  std::ifstream file(std::string(dir_template) + "/health_csv_test.csv");
  ASSERT_TRUE(file.good());
  std::string header;
  ASSERT_TRUE(std::getline(file, header));
  EXPECT_NE(header.find("label"), std::string::npos);
  EXPECT_NE(header.find("sim_s_per_wall_s"), std::string::npos);
  EXPECT_NE(header.find("test.val"), std::string::npos);
  std::string row;
  ASSERT_TRUE(std::getline(file, row));
  EXPECT_EQ(row.rfind("fold=2,1.000000,", 0), 0u);
  EXPECT_NE(row.find("7"), std::string::npos);  // tracked column value
}

}  // namespace
}  // namespace p2plab::metrics
