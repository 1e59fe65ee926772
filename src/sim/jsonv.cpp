#include "sim/jsonv.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ccnoc::sim {

const Jsonv* Jsonv::get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

struct Parser {
  const std::string& s;
  std::size_t pos = 0;
  std::string err;

  bool fail(const std::string& what) {
    std::ostringstream os;
    os << what << " at offset " << pos;
    err = os.str();
    return false;
  }

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                              s[pos] == '\n' || s[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos < s.size()) {
      char c = s[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= s.size()) break;
        char e = s[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > s.size()) return fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s[pos++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= unsigned(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // Only BMP code points; enough for our own emitters.
            if (cp < 0x80) {
              out += char(cp);
            } else if (cp < 0x800) {
              out += char(0xc0 | (cp >> 6));
              out += char(0x80 | (cp & 0x3f));
            } else {
              out += char(0xe0 | (cp >> 12));
              out += char(0x80 | ((cp >> 6) & 0x3f));
              out += char(0x80 | (cp & 0x3f));
            }
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Jsonv& out) {
    skip_ws();
    if (pos >= s.size()) return fail("unexpected end of input");
    char c = s[pos];
    if (c == '{') {
      ++pos;
      out.type = Jsonv::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        std::string key;
        if (!parse_string(key)) return false;
        if (!consume(':')) return fail("expected ':'");
        Jsonv v;
        if (!parse_value(v)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out.type = Jsonv::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Jsonv v;
        if (!parse_value(v)) return false;
        out.array.push_back(std::move(v));
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.type = Jsonv::Type::kString;
      return parse_string(out.string);
    }
    if (s.compare(pos, 4, "true") == 0) {
      out.type = Jsonv::Type::kBool;
      out.boolean = true;
      pos += 4;
      return true;
    }
    if (s.compare(pos, 5, "false") == 0) {
      out.type = Jsonv::Type::kBool;
      out.boolean = false;
      pos += 5;
      return true;
    }
    if (s.compare(pos, 4, "null") == 0) {
      out.type = Jsonv::Type::kNull;
      pos += 4;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = s.c_str() + pos;
      char* end = nullptr;
      double v = std::strtod(start, &end);
      if (end == start) return fail("bad number");
      out.type = Jsonv::Type::kNumber;
      out.number = v;
      pos += std::size_t(end - start);
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

bool jsonv_parse(const std::string& text, Jsonv& out, std::string& err) {
  Parser p{text, 0, std::string()};
  out = Jsonv{};
  if (!p.parse_value(out)) {
    err = p.err;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    err = "trailing garbage at offset " + std::to_string(p.pos);
    return false;
  }
  return true;
}

bool jsonv_parse_file(const std::string& path, Jsonv& out, std::string& err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return jsonv_parse(ss.str(), out, err);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace ccnoc::sim
