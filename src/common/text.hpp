// The one text grammar of every experiment file.
//
// `.scn` scenarios, topology descriptions and fault plans share one
// lexer, one typed key/value reader and one set of value parsers, so a
// value means the same thing (and is refused for the same reasons) in
// all three formats:
//
//   * lex(): lines split on whitespace; `#` starts a comment anywhere
//     outside double quotes; a double-quoted run keeps spaces and `#`.
//     Each non-blank line keeps its 1-based line number, which every
//     error message quotes ("line N: ...").
//   * KvSection + ParamReader: `key value` section lines, `key=value`
//     attribute tokens and `--set` overrides all become KvEntries with a
//     source string; a repeated key and a key nobody reads are errors.
//   * parse_*: counts are plain integers (no sign, no fraction);
//     reals, probabilities, sizes, bandwidths and durations refuse NaN,
//     infinity, negatives, and values whose bytes, bits per second or
//     nanoseconds do not fit their 64-bit field.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace p2plab::text {

// -- lexer -------------------------------------------------------------

/// One non-blank line: its number in the file and its tokens (never
/// empty; quotes removed, comments dropped).
struct TokenLine {
  int number = 0;
  std::span<const std::string> tokens;
};

/// The lexed file. `lines` view into `tokens`, so a Lexed moves but does
/// not copy.
struct Lexed {
  Lexed() = default;
  Lexed(Lexed&&) = default;
  Lexed& operator=(Lexed&&) = default;
  Lexed(const Lexed&) = delete;
  Lexed& operator=(const Lexed&) = delete;

  std::vector<std::string> tokens;
  std::vector<TokenLine> lines;
  std::string error;  // "line N: unterminated quote"; `lines` empty then
};

Lexed lex(std::string_view text);

/// "line N", the source every file error is blamed on.
std::string line_source(int number);

// -- value parsers (nullopt on anything malformed or out of range) -------

/// A non-negative integer written as digits only, at most `max`.
std::optional<std::uint64_t> parse_count(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
/// A finite, non-negative decimal number.
std::optional<double> parse_real(std::string_view text);
/// A real in [0, 1].
std::optional<double> parse_probability(std::string_view text);
/// A positive byte count with binary k/K, M or G suffixes (KiB/MiB/GiB).
std::optional<DataSize> parse_size(std::string_view text);
/// A positive rate in bits/s with decimal k/K, M or G suffixes, or
/// `unlimited`.
std::optional<Bandwidth> parse_bandwidth(std::string_view text);
/// What a bare duration number means: the topology format writes link
/// latencies in milliseconds, scenario and fault files write seconds.
enum class BareUnit { kMillis, kSeconds };
/// A non-negative duration with s, ms or us suffixes.
std::optional<Duration> parse_duration(std::string_view text, BareUnit bare);
/// on|off, true|false, 1|0.
std::optional<bool> parse_bool(std::string_view text);

// -- key/value reader ----------------------------------------------------

/// One `key value` section line, `key=value` attribute token or `--set`
/// override, with the source string its errors blame.
struct KvEntry {
  std::string key;
  std::string value;
  std::string source;  // "line 12" or "--set workload.clients=8"
  bool consumed = false;
};

/// The entries of one section (`[workload]`) or one directive line
/// (`zone`, `crash`, `churn`); `name` is how errors refer to it.
class KvSection {
 public:
  explicit KvSection(const char* name) : name_(name) {}

  const char* name() const { return name_; }

  /// Append an entry. A key already present is an error
  /// ("<source>: duplicate key 'k' in <name>").
  bool add(std::string_view key, std::string_view value,
           const std::string& source, std::string* error);
  /// Append `key=value` tokens (attribute syntax); a token without '='
  /// or with an empty key is an error.
  bool add_attributes(std::span<const std::string> tokens,
                      const std::string& source, std::string* error);
  /// `--set`: replace the value and source of `key`, or append it.
  void set(std::string_view key, std::string_view value,
           const std::string& source);
  /// Empty the section for reuse under a new name.
  void reset(const char* name) {
    name_ = name;
    entries_.clear();
  }

  KvEntry* find(std::string_view key);
  /// find() that marks the entry consumed.
  KvEntry* take(std::string_view key);
  const KvEntry* first_unconsumed() const;

 private:
  const char* name_;
  std::vector<KvEntry> entries_;
};

/// Typed readers over one KvSection. Each take_* consumes `key` when
/// present and stores its parsed value in `*out`; an absent key leaves
/// `*out` alone. A false return means error() is set
/// ("<source>: <message>") and parsing must stop.
class ParamReader {
 public:
  ParamReader(KvSection& section, std::string& error,
              BareUnit bare = BareUnit::kSeconds)
      : section_(section), error_(error), bare_(bare) {}

  template <typename T>
  bool take_count(const char* key, T* out,
                  std::uint64_t max = std::numeric_limits<T>::max()) {
    std::uint64_t value = 0;
    if (!take_u64(key, &value, max)) return false;
    if (section_.find(key) != nullptr) *out = static_cast<T>(value);
    return true;
  }
  bool take_probability(const char* key, double* out);
  bool take_size(const char* key, DataSize* out);
  bool take_bandwidth(const char* key, Bandwidth* out);
  bool take_duration(const char* key, Duration* out);
  bool take_bool(const char* key, bool* out);
  bool take_string(const char* key, std::string* out);

  /// Mark `key` consumed and return its entry (nullptr when absent), for
  /// keys with their own value grammar.
  KvEntry* take(const char* key) { return section_.take(key); }
  /// True when `key` was given.
  bool has(const char* key) { return section_.find(key) != nullptr; }

  /// When `key` was given and `holds` is false, fail on it with
  /// `message`; true otherwise.
  bool require(const char* key, bool holds, const std::string& message);
  /// Fail on the first entry nobody consumed:
  /// "<source>: unknown key 'k' in <name><hint>".
  bool finish(const std::string& hint = "");

  /// Record "<source>: <message>" and return false.
  bool fail(const KvEntry& entry, const std::string& message);
  bool fail_at(const std::string& source, const std::string& message);

  const std::string& error() const { return error_; }
  KvSection& section() { return section_; }

 private:
  bool take_u64(const char* key, std::uint64_t* out, std::uint64_t max);

  KvSection& section_;
  std::string& error_;
  BareUnit bare_;
};

}  // namespace p2plab::text
