// Known-bad fixture for ccnoc_lint `one-json-writer`: a report emitter with
// its own escaper, its own file writer and an std::ostringstream buffer.
// Each copy drifts from the shared one in src/sim/jsonv.cpp (a different
// escape for \r, a silent open failure, a grow-and-copy buffer). Never
// compiled.
#include <cstdio>
#include <sstream>
#include <string>

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"') out += "\\\"";
    else if (c == '\r') out += "\\r";
    else out += c;
  }
  return out;
}

bool write_string(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

std::string report_json(const std::string& kind, unsigned count) {
  std::ostringstream os;
  os << "{\"" << json_escape(kind) << "\":" << count << "}\n";
  return os.str();
}

bool write_report(const std::string& path) {
  return write_string(path, report_json("k", 1));
}
