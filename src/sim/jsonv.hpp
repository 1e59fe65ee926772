#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccnoc::sim {

// Minimal dependency-free JSON value, just enough to read back the JSON
// this project emits (bench MetricLog output, paper-sweep output,
// profile.json) for baseline comparison. Numbers are held as double, which
// is exact for the integral counters we compare (they fit in 53 bits).
struct Jsonv {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Jsonv> array;
  std::vector<std::pair<std::string, Jsonv>> object;  // insertion order

  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Jsonv* get(const std::string& key) const;
};

// Parses `text`; on failure returns false and sets `err` to a short
// message with an offset.
bool jsonv_parse(const std::string& text, Jsonv& out, std::string& err);

// Convenience: slurp a file and parse it.
bool jsonv_parse_file(const std::string& path, Jsonv& out, std::string& err);

// --- writing ---------------------------------------------------------------
// One appender, one escaper, one number format and one file writer for every
// report emitter (Chrome trace, run report, profile, latency, heartbeat, the
// bench records) and the model checkers. ccnoc_lint's one-json-writer check
// keeps them single.

// Appends JSON text to one std::string. Callers that know the output size
// reserve() it once, so a large export grows no buffer and makes no copy.
// Integers go through std::to_chars, doubles through "%.<digits>g" (every
// report uses 6 digits; the bench records keep 9), strings through the one
// escaper; raw() appends literal JSON syntax as given.
class JsonOut {
 public:
  void reserve(std::size_t bytes) { s_.reserve(bytes); }
  [[nodiscard]] const std::string& text() const { return s_; }
  [[nodiscard]] std::string take() { return std::move(s_); }

  JsonOut& raw(std::string_view v) {
    s_.append(v);
    return *this;
  }
  JsonOut& raw(char c) {
    s_.push_back(c);
    return *this;
  }
  // Any integer type except bool and the character types, which a stream
  // would print as characters.
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             !std::is_same_v<T, char> && !std::is_same_v<T, signed char> &&
             !std::is_same_v<T, unsigned char>)
  JsonOut& num(T v) {
    char buf[24];
    s_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  JsonOut& num(double v, int digits = 6);
  JsonOut& boolean(bool v) { return raw(v ? "true" : "false"); }
  // String body without quotes, escaped (see json_escape).
  JsonOut& escaped(std::string_view v);
  // Quoted, escaped string.
  JsonOut& str(std::string_view v) { return raw('"').escaped(v).raw('"'); }

 private:
  std::string s_;
};

// Body of a JSON string literal for `s` (no surrounding quotes): quote,
// backslash, \n and \t get their short escapes, every other byte below 0x20
// becomes \u00XX, and bytes from 0x80 up pass through unchanged (UTF-8
// stays UTF-8).
std::string json_escape(std::string_view s);

// Writes `content` to `path` ("-" is stdout). On failure prints "cannot open
// <path> for writing" (or "cannot write <path>") on stderr and returns false.
bool write_file(const std::string& path, std::string_view content);

}  // namespace ccnoc::sim
