#include "sim/jsonv.hpp"

#include <algorithm>
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

JsonOut& JsonOut::num(double v, int digits) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  s_.append(buf, std::size_t(n));
  return *this;
}

JsonOut& JsonOut::fill(std::string_view text, const std::uint16_t* cut,
                       const std::uint64_t* values, std::size_t n) {
  constexpr std::size_t kDigits = 20;  // std::uint64_t's longest decimal
  const std::size_t old = s_.size();
  s_.resize(old + text.size() + kDigits * n);
  char* p = s_.data() + old;
  std::size_t at = 0;
  for (std::size_t k = 0; k < n; ++k) {
    p = std::copy(text.data() + at, text.data() + cut[k], p);
    p = std::to_chars(p, p + kDigits, values[k]).ptr;
    at = cut[k];
  }
  p = std::copy(text.data() + at, text.data() + text.size(), p);
  s_.resize(std::size_t(p - s_.data()));
  return *this;
}

JsonOut& JsonOut::escaped(std::string_view v) {
  // Copies runs of plain bytes whole and stops only at bytes that escape.
  std::size_t run = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto c = static_cast<unsigned char>(v[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    s_.append(v.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': s_ += "\\\""; break;
      case '\\': s_ += "\\\\"; break;
      case '\n': s_ += "\\n"; break;
      case '\t': s_ += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        s_.append(u, sizeof u);
      }
    }
  }
  s_.append(v.data() + run, v.size() - run);
  return *this;
}

std::string json_escape(std::string_view s) {
  JsonOut o;
  o.escaped(s);
  return o.take();
}

bool write_file(const std::string& path, std::string_view content) {
  const bool to_stdout = path == "-";
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = (to_stdout ? std::fflush(f) : std::fclose(f)) == 0 && ok;
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

}  // namespace ccnoc::sim
