#include "scenario/spec.hpp"

#include "scenario/workload.hpp"

namespace p2plab::scenario {

std::size_t ScenarioSpec::vnodes() const {
  return WorkloadRegistry::instance().require(workload).vnodes(*this);
}

std::vector<std::string> ScenarioSpec::declared_outputs() const {
  std::vector<std::string> files;
  auto csv_file = [&](const std::string& csv_name) {
    if (!csv_name.empty()) files.push_back(csv_name + ".csv");
  };
  csv_file(outputs.progress_envelope);
  csv_file(outputs.completions);
  csv_file(outputs.sampled_progress);
  csv_file(outputs.completion_curve);
  csv_file(outputs.summary);
  csv_file(outputs.csv);
  csv_file(outputs.detection_csv);
  csv_file(outputs.fp_summary);
  csv_file(outputs.metrics);
  if (!outputs.accuracy_json.empty()) {
    files.push_back(outputs.accuracy_json + ".json");
  }
  if (!outputs.bench_json.empty()) {
    files.push_back(outputs.bench_json + ".json");
  }
  if (!outputs.trace_file.empty()) files.push_back(outputs.trace_file);
  if (!outputs.profile_trace.empty()) {
    files.push_back(outputs.profile_trace);
  }
  return files;
}

}  // namespace p2plab::scenario
