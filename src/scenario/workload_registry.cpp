// The workload plugin registry.
#include "scenario/workload.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "scenario/spec.hpp"

namespace p2plab::scenario {

NodeRange churn_range(const ScenarioSpec& spec) {
  const NodeRange defaults =
      WorkloadRegistry::instance().require(spec.workload).churn_victims(spec);
  const ChurnDirective& churn = spec.faults.churn;
  return {churn.first_node.value_or(defaults.first),
          churn.last_node.value_or(defaults.last)};
}

WorkloadRegistry::WorkloadRegistry() {
  register_swarm_workload(*this);
  register_ping_sweep_workload(*this);
  register_validate_workload(*this);
  register_gossip_workload(*this);
}

const WorkloadRegistry& WorkloadRegistry::instance() {
  static const WorkloadRegistry registry;
  return registry;
}

void WorkloadRegistry::add(std::unique_ptr<const WorkloadPlugin> plugin) {
  P2PLAB_ASSERT_MSG(find(plugin->name()) == nullptr,
                    "duplicate workload plugin name");
  sorted_.push_back(plugin.get());
  owned_.push_back(std::move(plugin));
  std::sort(sorted_.begin(), sorted_.end(),
            [](const WorkloadPlugin* a, const WorkloadPlugin* b) {
              return std::string_view(a->name()) < b->name();
            });
}

const WorkloadPlugin* WorkloadRegistry::find(std::string_view name) const {
  for (const WorkloadPlugin* plugin : sorted_) {
    if (name == plugin->name()) return plugin;
  }
  return nullptr;
}

const WorkloadPlugin& WorkloadRegistry::require(std::string_view name) const {
  const WorkloadPlugin* plugin = find(name);
  P2PLAB_ASSERT_MSG(plugin != nullptr, "unknown workload type");
  return *plugin;
}

std::string WorkloadRegistry::joined_names(const char* sep) const {
  std::string out;
  for (const WorkloadPlugin* plugin : sorted_) {
    if (!out.empty()) out += sep;
    out += plugin->name();
  }
  return out;
}

std::string WorkloadRegistry::fault_capable_names() const {
  std::string out;
  for (const WorkloadPlugin* plugin : sorted_) {
    if (!plugin->supports_faults()) continue;
    if (!out.empty()) out += " or ";
    out += plugin->name();
  }
  return out;
}

std::string WorkloadRegistry::survivors_stop_names() const {
  std::string out;
  for (const WorkloadPlugin* plugin : sorted_) {
    if (!plugin->supports_survivors_stop()) continue;
    if (!out.empty()) out += " or ";
    out += plugin->name();
  }
  return out;
}

}  // namespace p2plab::scenario
