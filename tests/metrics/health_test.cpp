#include "metrics/health.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/time.hpp"
#include "metrics/registry.hpp"

namespace p2plab::metrics {
namespace {

std::string report_to_string(const Registry& reg) {
  std::FILE* tmp = std::tmpfile();
  print_registry_report(reg, tmp);
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
  HealthMonitor monitor("health_test", Duration::sec(1));
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

TEST(HealthMonitor, PrintReportDumpsRegistry) {
  // The registry dump that closes every run's report: one '#' line per
  // metric, histograms summarized.
  Registry reg;
  Counter c = reg.counter("test.answer");
  c.inc(42);
  Histogram h = reg.histogram("test.sizes", {1.0, 10.0});
  h.record(2.0);
  h.record(4.0);
  const std::string report = report_to_string(reg);
  EXPECT_NE(report.find("# test.answer = 42\n"), std::string::npos);
  EXPECT_NE(report.find("# test.sizes: count=2 mean=3 min=2 max=4\n"),
            std::string::npos)
      << report;
}

TEST(HealthMonitor, TimelineLandsInResultsDir) {
  // The probe columns, then the fixed layer counters; no label column.
  char dir_template[] = "/tmp/p2plab_health_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir_template, 1);
  {
    Registry reg;
    Counter packets = reg.counter("net.packets_sent");
    packets.inc(7);
    HealthMonitor monitor("health_csv_test", Duration::sec(1));
    monitor.start(reg, at_ms(0, 0));
    monitor.sample(at_ms(1000, 4));
    monitor.stop(at_ms(2500, 9));
  }  // CsvWriter flushes on destruction
  unsetenv("P2PLAB_RESULTS_DIR");

  std::ifstream file(std::string(dir_template) + "/health_csv_test.csv");
  ASSERT_TRUE(file.good());
  std::string header;
  ASSERT_TRUE(std::getline(file, header));
  EXPECT_EQ(header,
            "sim_s,wall_s,events,queue_depth,events_per_wall_s,"
            "sim_s_per_wall_s,ipfw.rules_scanned,net.packets_sent,"
            "net.nic.tx_bytes,net.nic.rx_bytes");
  for (const char* expected : {"1.000000,", "2.500000,"}) {
    std::string row;
    ASSERT_TRUE(std::getline(file, row));
    EXPECT_EQ(row.rfind(expected, 0), 0u) << row;
    // An unregistered counter reads 0; the packet counter reads 7.
    EXPECT_NE(row.find(",0.000000,7.000000,0.000000,0.000000"),
              std::string::npos)
        << row;
  }
  std::filesystem::remove_all(dir_template);
}

}  // namespace
}  // namespace p2plab::metrics
