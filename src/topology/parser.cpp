#include "topology/parser.hpp"

#include <charconv>
#include <map>
#include <sstream>
#include <vector>

namespace p2plab::topology {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

std::optional<double> parse_number(std::string_view text) {
  if (text.empty()) return std::nullopt;
  // std::from_chars<double> handles the full numeric prefix.
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// "key=value" -> value for the expected key.
std::optional<std::string_view> value_of(std::string_view token,
                                         std::string_view key) {
  if (token.size() <= key.size() + 1) return std::nullopt;
  if (token.substr(0, key.size()) != key || token[key.size()] != '=') {
    return std::nullopt;
  }
  return token.substr(key.size() + 1);
}

}  // namespace

std::optional<Bandwidth> parse_bandwidth(std::string_view text) {
  if (text == "unlimited") return Bandwidth::unlimited();
  if (text.empty()) return std::nullopt;
  double multiplier = 1.0;
  const char suffix = text.back();
  std::string_view digits = text;
  if (suffix == 'k' || suffix == 'K') {
    multiplier = 1e3;
    digits.remove_suffix(1);
  } else if (suffix == 'M') {
    multiplier = 1e6;
    digits.remove_suffix(1);
  } else if (suffix == 'G') {
    multiplier = 1e9;
    digits.remove_suffix(1);
  }
  const auto value = parse_number(digits);
  if (!value || *value <= 0) return std::nullopt;
  return Bandwidth::bps(static_cast<std::uint64_t>(*value * multiplier));
}

std::optional<Duration> parse_duration(std::string_view text) {
  if (text.empty()) return std::nullopt;
  double to_ms = 1.0;  // bare numbers are milliseconds
  std::string_view digits = text;
  if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    digits.remove_suffix(2);
  } else if (text.size() > 2 && text.substr(text.size() - 2) == "us") {
    to_ms = 1e-3;
    digits.remove_suffix(2);
  } else if (text.back() == 's') {
    to_ms = 1e3;
    digits.remove_suffix(1);
  }
  const auto value = parse_number(digits);
  if (!value || *value < 0) return std::nullopt;
  return Duration::millis(*value * to_ms);
}

ParseResult parse_topology(std::string_view text) {
  Topology topo;
  std::map<std::string, ZoneId> by_name;
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_number = 0;

  auto fail = [&](const std::string& message) {
    ParseResult result;
    result.error =
        "line " + std::to_string(line_number) + ": " + message;
    return result;
  };

  while (std::getline(stream, line)) {
    ++line_number;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    if (directive == "container") {
      if (tokens.size() != 3) return fail("container <name> <cidr>");
      const auto cidr = CidrBlock::parse(tokens[2]);
      if (!cidr) return fail("bad CIDR '" + tokens[2] + "'");
      if (by_name.count(tokens[1]) != 0) {
        return fail("duplicate zone name '" + tokens[1] + "'");
      }
      by_name[tokens[1]] = topo.add_container(tokens[1], *cidr);
      continue;
    }

    if (directive == "zone") {
      if (tokens.size() < 7) {
        return fail("zone <name> <cidr> nodes= down= up= latency= [loss=]");
      }
      const auto cidr = CidrBlock::parse(tokens[2]);
      if (!cidr) return fail("bad CIDR '" + tokens[2] + "'");
      if (by_name.count(tokens[1]) != 0) {
        return fail("duplicate zone name '" + tokens[1] + "'");
      }
      std::optional<std::size_t> nodes;
      LinkClass link;
      bool have_down = false;
      bool have_up = false;
      bool have_latency = false;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        if (const auto v = value_of(tokens[i], "nodes")) {
          const auto n = parse_number(*v);
          if (!n || *n < 1) return fail("bad nodes count");
          nodes = static_cast<std::size_t>(*n);
        } else if (const auto v2 = value_of(tokens[i], "down")) {
          const auto bw = parse_bandwidth(*v2);
          if (!bw) return fail("bad down bandwidth");
          link.down = *bw;
          have_down = true;
        } else if (const auto v3 = value_of(tokens[i], "up")) {
          const auto bw = parse_bandwidth(*v3);
          if (!bw) return fail("bad up bandwidth");
          link.up = *bw;
          have_up = true;
        } else if (const auto v4 = value_of(tokens[i], "latency")) {
          const auto d = parse_duration(*v4);
          if (!d) return fail("bad latency");
          link.latency = *d;
          have_latency = true;
        } else if (const auto v5 = value_of(tokens[i], "loss")) {
          const auto p = parse_number(*v5);
          if (!p || *p < 0 || *p > 1) return fail("bad loss rate");
          link.loss_rate = *p;
        } else if (const auto v6 = value_of(tokens[i], "burst")) {
          // burst=p_good_bad:p_bad_good[:loss_bad] (Gilbert-Elliott).
          const std::string spec(*v6);
          const auto first = spec.find(':');
          if (first == std::string::npos) {
            return fail("burst=p_good_bad:p_bad_good[:loss_bad]");
          }
          const auto second = spec.find(':', first + 1);
          const auto pgb = parse_number(spec.substr(0, first));
          const auto pbg = parse_number(
              second == std::string::npos
                  ? spec.substr(first + 1)
                  : spec.substr(first + 1, second - first - 1));
          std::optional<double> lb = 1.0;
          if (second != std::string::npos) {
            lb = parse_number(spec.substr(second + 1));
          }
          if (!pgb || !pbg || !lb || *pgb < 0 || *pgb > 1 || *pbg <= 0 ||
              *pbg > 1 || *lb < 0 || *lb > 1) {
            return fail("bad burst parameters");
          }
          link.burst_p_good_bad = *pgb;
          link.burst_p_bad_good = *pbg;
          link.burst_loss_bad = *lb;
        } else {
          return fail("unknown attribute '" + tokens[i] + "'");
        }
      }
      if (!nodes || !have_down || !have_up || !have_latency) {
        return fail("zone needs nodes=, down=, up= and latency=");
      }
      if (*nodes >= cidr->size()) return fail("subnet too small for nodes");
      for (const Zone& existing : topo.zones()) {
        if (existing.node_count > 0 && existing.subnet.overlaps(*cidr)) {
          return fail("zone '" + tokens[1] + "' overlaps '" + existing.name +
                      "'");
        }
      }
      by_name[tokens[1]] = topo.add_zone(tokens[1], *cidr, *nodes, link);
      continue;
    }

    if (directive == "latency") {
      if (tokens.size() != 4) return fail("latency <zoneA> <zoneB> <dur>");
      const auto a = by_name.find(tokens[1]);
      const auto b = by_name.find(tokens[2]);
      if (a == by_name.end()) return fail("unknown zone '" + tokens[1] + "'");
      if (b == by_name.end()) return fail("unknown zone '" + tokens[2] + "'");
      const auto d = parse_duration(tokens[3]);
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

}  // namespace p2plab::topology
