#include "common/text.hpp"

#include <charconv>
#include <cmath>

namespace p2plab::text {

Lexed lex(std::string_view text) {
  Lexed out;
  struct Extent {
    int number;
    std::size_t first;
  };
  std::vector<Extent> extents;
  std::string token;
  bool quoted = false;  // the current token holds a quote (may be empty)
  int number = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    ++number;
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::size_t first = out.tokens.size();
    auto flush = [&] {
      if (!token.empty() || quoted) out.tokens.push_back(std::move(token));
      token.clear();
      quoted = false;
    };
    bool in_quotes = false;
    for (std::size_t i = pos; i < end; ++i) {
      const char c = text[i];
      if (in_quotes) {
        if (c == '"') {
          in_quotes = false;
        } else {
          token.push_back(c);
        }
      } else if (c == '"') {
        in_quotes = true;
        quoted = true;
      } else if (c == '#') {
        break;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        flush();
      } else {
        token.push_back(c);
      }
    }
    if (in_quotes) {
      out.tokens.clear();
      out.error = line_source(number) + ": unterminated quote";
      return out;
    }
    flush();
    if (out.tokens.size() > first) extents.push_back({number, first});
    pos = end + 1;
  }
  // The token vector is final now, so the lines can view it.
  out.lines.reserve(extents.size());
  for (std::size_t k = 0; k < extents.size(); ++k) {
    const std::size_t first = extents[k].first;
    const std::size_t last =
        k + 1 < extents.size() ? extents[k + 1].first : out.tokens.size();
    out.lines.push_back(
        {extents[k].number,
         std::span<const std::string>(out.tokens).subspan(first,
                                                          last - first)});
  }
  return out;
}

std::string line_source(int number) {
  return "line " + std::to_string(number);
}

namespace {

// Upper bounds of the 64-bit fields values are cast to (2^64 and 2^63,
// both exact in a double).
constexpr double kU64Limit = 18446744073709551616.0;
constexpr double kNsLimit = 9223372036854775808.0;

/// Split a trailing k/K, M or G suffix off `text`.
double strip_multiplier(std::string_view& text, double kilo) {
  if (text.empty()) return 1.0;
  switch (text.back()) {
    case 'k':
    case 'K':
      text.remove_suffix(1);
      return kilo;
    case 'M':
      text.remove_suffix(1);
      return kilo * kilo;
    case 'G':
      text.remove_suffix(1);
      return kilo * kilo * kilo;
    default:
      return 1.0;
  }
}

}  // namespace

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} ||
      ptr != text.data() + text.size() || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_real(std::string_view text) {
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} ||
      ptr != text.data() + text.size() || !std::isfinite(value) ||
      value < 0) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_probability(std::string_view text) {
  const auto value = parse_real(text);
  if (!value || *value > 1) return std::nullopt;
  return value;
}

std::optional<DataSize> parse_size(std::string_view text) {
  const double multiplier = strip_multiplier(text, 1024.0);
  const auto value = parse_real(text);
  if (!value) return std::nullopt;
  const double bytes = *value * multiplier;
  if (bytes < 1 || bytes >= kU64Limit) return std::nullopt;
  return DataSize::bytes(static_cast<std::uint64_t>(bytes));
}

std::optional<Bandwidth> parse_bandwidth(std::string_view text) {
  if (text == "unlimited") return Bandwidth::unlimited();
  const double multiplier = strip_multiplier(text, 1e3);
  const auto value = parse_real(text);
  if (!value) return std::nullopt;
  // Below 1 bit/s the cast would give 0, which means unlimited.
  const double bps = *value * multiplier;
  if (bps < 1 || bps >= kU64Limit) return std::nullopt;
  return Bandwidth::bps(static_cast<std::uint64_t>(bps));
}

std::optional<Duration> parse_duration(std::string_view text,
                                       BareUnit bare) {
  double ns_per_unit = bare == BareUnit::kMillis ? 1e6 : 1e9;
  if (text.size() > 2 && text.ends_with("ms")) {
    ns_per_unit = 1e6;
    text.remove_suffix(2);
  } else if (text.size() > 2 && text.ends_with("us")) {
    ns_per_unit = 1e3;
    text.remove_suffix(2);
  } else if (text.size() > 1 && text.ends_with('s')) {
    ns_per_unit = 1e9;
    text.remove_suffix(1);
  }
  const auto value = parse_real(text);
  if (!value) return std::nullopt;
  // Rounded to the nearest nanosecond, like Duration::seconds.
  const double ns = *value * ns_per_unit + 0.5;
  if (ns >= kNsLimit) return std::nullopt;
  return Duration::ns(static_cast<std::int64_t>(ns));
}

std::optional<bool> parse_bool(std::string_view text) {
  if (text == "on" || text == "true" || text == "1") return true;
  if (text == "off" || text == "false" || text == "0") return false;
  return std::nullopt;
}

// -- KvSection -----------------------------------------------------------

bool KvSection::add(std::string_view key, std::string_view value,
                    const std::string& source, std::string* error) {
  if (find(key) != nullptr) {
    *error = source + ": duplicate key '" + std::string(key) + "' in " +
             name_;
    return false;
  }
  entries_.push_back(
      KvEntry{std::string(key), std::string(value), source});
  return true;
}

bool KvSection::add_attributes(std::span<const std::string> tokens,
                               const std::string& source,
                               std::string* error) {
  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = source + ": expected key=value, got '" + token + "'";
      return false;
    }
    const std::string_view view(token);
    if (!add(view.substr(0, eq), view.substr(eq + 1), source, error)) {
      return false;
    }
  }
  return true;
}

void KvSection::set(std::string_view key, std::string_view value,
                    const std::string& source) {
  if (KvEntry* existing = find(key)) {
    existing->value = value;
    existing->source = source;
  } else {
    entries_.push_back(
        KvEntry{std::string(key), std::string(value), source});
  }
}

KvEntry* KvSection::find(std::string_view key) {
  for (KvEntry& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

KvEntry* KvSection::take(std::string_view key) {
  KvEntry* entry = find(key);
  if (entry != nullptr) entry->consumed = true;
  return entry;
}

const KvEntry* KvSection::first_unconsumed() const {
  for (const KvEntry& entry : entries_) {
    if (!entry.consumed) return &entry;
  }
  return nullptr;
}

// -- ParamReader ---------------------------------------------------------

bool ParamReader::fail(const KvEntry& entry, const std::string& message) {
  return fail_at(entry.source, message);
}

bool ParamReader::fail_at(const std::string& source,
                          const std::string& message) {
  error_ = source + ": " + message;
  return false;
}

bool ParamReader::require(const char* key, bool holds,
                          const std::string& message) {
  const KvEntry* entry = section_.find(key);
  return holds || entry == nullptr || fail(*entry, message);
}

bool ParamReader::finish(const std::string& hint) {
  const KvEntry* stray = section_.first_unconsumed();
  return stray == nullptr ||
         fail(*stray, "unknown key '" + stray->key + "' in " +
                          section_.name() + hint);
}

bool ParamReader::take_u64(const char* key, std::uint64_t* out,
                           std::uint64_t max) {
  if (KvEntry* entry = section_.take(key)) {
    const auto value = parse_count(entry->value);
    if (!value) {
      return fail(*entry,
                  "bad count '" + entry->value + "' for " + std::string(key));
    }
    if (*value > max) {
      return fail(*entry,
                  std::string(key) + " must be at most " + std::to_string(max));
    }
    *out = *value;
  }
  return true;
}

bool ParamReader::take_probability(const char* key, double* out) {
  if (KvEntry* entry = section_.take(key)) {
    const auto value = parse_probability(entry->value);
    if (!value) {
      return fail(*entry, "bad value '" + entry->value + "' for " +
                              std::string(key) + " (expected 0..1)");
    }
    *out = *value;
  }
  return true;
}

bool ParamReader::take_size(const char* key, DataSize* out) {
  if (KvEntry* entry = section_.take(key)) {
    const auto value = parse_size(entry->value);
    if (!value) {
      return fail(*entry, "bad size '" + entry->value + "' for " +
                              std::string(key) + " (use k/M/G suffixes)");
    }
    *out = *value;
  }
  return true;
}

bool ParamReader::take_bandwidth(const char* key, Bandwidth* out) {
  if (KvEntry* entry = section_.take(key)) {
    const auto value = parse_bandwidth(entry->value);
    if (!value) {
      return fail(*entry, "bad bandwidth '" + entry->value + "' for " +
                              std::string(key));
    }
    *out = *value;
  }
  return true;
}

bool ParamReader::take_duration(const char* key, Duration* out) {
  if (KvEntry* entry = section_.take(key)) {
    const auto value = parse_duration(entry->value, bare_);
    if (!value) {
      return fail(*entry, "bad duration '" + entry->value + "' for " +
                              std::string(key));
    }
    *out = *value;
  }
  return true;
}

bool ParamReader::take_bool(const char* key, bool* out) {
  if (KvEntry* entry = section_.take(key)) {
    const auto value = parse_bool(entry->value);
    if (!value) {
      return fail(*entry, "bad value '" + entry->value + "' for " +
                              std::string(key) + " (expected on|off)");
    }
    *out = *value;
  }
  return true;
}

bool ParamReader::take_string(const char* key, std::string* out) {
  if (KvEntry* entry = section_.take(key)) *out = entry->value;
  return true;
}

}  // namespace p2plab::text
