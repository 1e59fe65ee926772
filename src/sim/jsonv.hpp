#pragma once

#include <string>
#include <string_view>
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
// One escaper and one number format for the report emitters (trace, profile,
// latency) and the model checkers.

// Body of a JSON string literal for `s` (no surrounding quotes): quote,
// backslash, \n and \t get their short escapes, every other byte below 0x20
// becomes \u00XX, and bytes from 0x80 up pass through unchanged (UTF-8
// stays UTF-8).
std::string json_escape(std::string_view s);

// `v` printed with "%.6g", the one format every report uses for doubles.
std::string fmt_double(double v);

}  // namespace ccnoc::sim
