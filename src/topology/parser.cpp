#include "topology/parser.hpp"

#include <map>

namespace p2plab::topology {

namespace {

/// burst=p_good_bad:p_bad_good[:loss_bad] (Gilbert-Elliott).
bool parse_burst(std::string_view spec, LinkClass* link) {
  const auto first = spec.find(':');
  if (first == std::string_view::npos) return false;
  const auto second = spec.find(':', first + 1);
  const auto pgb = text::parse_probability(spec.substr(0, first));
  const auto pbg =
      text::parse_probability(spec.substr(first + 1, second - first - 1));
  const auto lb = second == std::string_view::npos
                      ? std::optional<double>(1.0)
                      : text::parse_probability(spec.substr(second + 1));
  if (!pgb || !pbg || !lb || *pbg <= 0) return false;
  link->burst_p_good_bad = *pgb;
  link->burst_p_bad_good = *pbg;
  link->burst_loss_bad = *lb;
  return true;
}

}  // namespace

ParseResult parse_topology(std::span<const text::TokenLine> lines) {
  Topology topo;
  std::map<std::string, ZoneId> by_name;
  int line_number = 0;
  std::string error;

  auto fail = [&](const std::string& message) {
    ParseResult result;
    result.error = text::line_source(line_number) + ": " + message;
    return result;
  };
  auto fail_with_error = [&] {
    ParseResult result;
    result.error = std::move(error);
    return result;
  };

  text::KvSection attributes("zone");
  for (const text::TokenLine& line : lines) {
    line_number = line.number;
    const auto& tokens = line.tokens;
    const std::string& directive = tokens[0];

    if (directive == "container" || directive == "zone") {
      const bool container = directive == "container";
      if (tokens.size() < 3 || (container && tokens.size() != 3)) {
        return fail(container ? "container <name> <cidr>"
                              : "zone <name> <cidr> nodes= down= up= "
                                "latency= [loss=] [burst=]");
      }
      const auto cidr = CidrBlock::parse(tokens[2]);
      if (!cidr) return fail("bad CIDR '" + tokens[2] + "'");
      if (by_name.count(tokens[1]) != 0) {
        return fail("duplicate zone name '" + tokens[1] + "'");
      }
      if (container) {
        by_name[tokens[1]] = topo.add_container(tokens[1], *cidr);
        continue;
      }
      attributes.reset("zone");
      if (!attributes.add_attributes(tokens.subspan(3),
                                     text::line_source(line_number),
                                     &error)) {
        return fail_with_error();
      }
      text::ParamReader reader(attributes, error, text::BareUnit::kMillis);
      if (!reader.has("nodes") || !reader.has("down") || !reader.has("up") ||
          !reader.has("latency")) {
        return fail("zone needs nodes=, down=, up= and latency=");
      }
      std::size_t nodes = 0;
      LinkClass link;
      bool ok = reader.take_count("nodes", &nodes) &&
                reader.require("nodes", nodes > 0, "nodes must be positive") &&
                reader.take_bandwidth("down", &link.down) &&
                reader.take_bandwidth("up", &link.up) &&
                reader.take_duration("latency", &link.latency) &&
                reader.take_probability("loss", &link.loss_rate);
      if (ok) {
        if (const text::KvEntry* burst = reader.take("burst")) {
          ok = parse_burst(burst->value, &link) ||
               reader.fail(*burst, "bad burst '" + burst->value +
                                       "' (p_good_bad:p_bad_good[:loss_bad])");
        }
      }
      if (!ok || !reader.finish()) return fail_with_error();
      if (nodes >= cidr->size()) return fail("subnet too small for nodes");
      for (const Zone& existing : topo.zones()) {
        if (existing.node_count > 0 && existing.subnet.overlaps(*cidr)) {
          return fail("zone '" + tokens[1] + "' overlaps '" + existing.name +
                      "'");
        }
      }
      by_name[tokens[1]] = topo.add_zone(tokens[1], *cidr, nodes, link);
      continue;
    }

    if (directive == "latency") {
      if (tokens.size() != 4) return fail("latency <zoneA> <zoneB> <dur>");
      const auto a = by_name.find(tokens[1]);
      const auto b = by_name.find(tokens[2]);
      if (a == by_name.end()) return fail("unknown zone '" + tokens[1] + "'");
      if (b == by_name.end()) return fail("unknown zone '" + tokens[2] + "'");
      const auto d = text::parse_duration(tokens[3], text::BareUnit::kMillis);
      if (!d) return fail("bad latency '" + tokens[3] + "'");
      if (topo.zones()[a->second].subnet.overlaps(
              topo.zones()[b->second].subnet)) {
        return fail("latency pair zones overlap");
      }
      topo.add_latency(a->second, b->second, *d);
      continue;
    }

    return fail("unknown directive '" + directive + "'");
  }

  if (topo.total_nodes() == 0) {
    line_number = 0;
    return fail("no nodes declared");
  }
  ParseResult result;
  result.topology = std::move(topo);
  return result;
}

ParseResult parse_topology(std::string_view source) {
  const text::Lexed lexed = text::lex(source);
  if (!lexed.error.empty()) return ParseResult{std::nullopt, lexed.error};
  return parse_topology(lexed.lines);
}

}  // namespace p2plab::topology
