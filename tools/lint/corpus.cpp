#include "lint/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "sim/jsonv.hpp"

namespace fs = std::filesystem;

namespace ccnoc::lint {
namespace {

bool is(const Token& t, const char* s) { return t.text == s; }

/// Forward single-pass scope parser: walks the token stream once, pushing
/// into namespace and record bodies, skipping function bodies wholesale
/// (their token ranges are what the checks scan), and skipping initializers
/// and template headers. Heuristic but precise for this codebase's style —
/// no macros generating declarations, no K&R, no nested function tricks.
class Indexer {
 public:
  explicit Indexer(SourceFile& f) : f_(f), toks_(f.toks) {}

  void run() { decl_seq(0, toks_.size() - 1, /*record=*/std::string()); }

 private:
  SourceFile& f_;
  const std::vector<Token>& toks_;

  /// Index of the closer matching the opener at `i` (counting only that
  /// bracket kind — exact because strings/comments are already lexed out).
  [[nodiscard]] std::size_t matching(std::size_t i) const {
    const std::string_view open = toks_[i].text;
    const char* close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (std::size_t j = i; j < toks_.size(); ++j) {
      if (toks_[j].kind != Tok::kPunct) continue;
      if (toks_[j].text == open) ++depth;
      else if (toks_[j].text == close && --depth == 0) return j;
    }
    return toks_.size() - 1;
  }

  /// Advances past a balanced-everything run to the first `;` at depth 0.
  [[nodiscard]] std::size_t skip_to_semi(std::size_t i, std::size_t end) const {
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kPunct) {
        if (t.text == ";") return i + 1;
        if (t.text == "(" || t.text == "{" || t.text == "[") {
          i = matching(i) + 1;
          continue;
        }
        if (t.text == "}") return i;  // lost: statement boundary
      }
      ++i;
    }
    return end;
  }

  /// Parses declarations in [i, end); `record` is the enclosing record name
  /// ("" at namespace scope).
  void decl_seq(std::size_t i, std::size_t end, const std::string& record) {
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kPunct && (t.text == ";" || t.text == "}")) {
        ++i;
        continue;
      }
      if (t.kind != Tok::kIdent) {
        // Attributes, stray punctuation: advance (balanced groups skipped).
        if (t.kind == Tok::kPunct && (t.text == "(" || t.text == "{" || t.text == "[")) {
          i = matching(i) + 1;
        } else {
          ++i;
        }
        continue;
      }
      if ((t.text == "public" || t.text == "private" || t.text == "protected") &&
          i + 1 < end && is(toks_[i + 1], ":")) {
        i += 2;  // access specifier
        continue;
      }
      if (t.text == "namespace") {
        std::size_t j = i + 1;
        while (j < end && (toks_[j].kind == Tok::kIdent || is(toks_[j], "::"))) ++j;
        if (j < end && is(toks_[j], "=")) {  // namespace alias
          i = skip_to_semi(j, end);
          continue;
        }
        if (j < end && is(toks_[j], "{")) {
          const std::size_t close = matching(j);
          decl_seq(j + 1, close, std::string());
          i = close + 1;
          continue;
        }
        ++i;
        continue;
      }
      if (t.text == "template") {
        i = skip_template_header(i + 1, end);
        continue;
      }
      if (t.text == "using" || t.text == "typedef" || t.text == "static_assert" ||
          t.text == "friend") {
        i = skip_to_semi(i, end);
        continue;
      }
      if (t.text == "class" || t.text == "struct" || t.text == "union") {
        i = parse_record(i, end);
        continue;
      }
      if (t.text == "enum") {
        std::size_t j = i + 1;
        while (j < end && !is(toks_[j], "{") && !is(toks_[j], ";")) ++j;
        if (j < end && is(toks_[j], "{")) j = matching(j);
        i = skip_to_semi(j, end);
        continue;
      }
      if (t.text == "extern" && i + 2 < end && toks_[i + 1].kind == Tok::kString &&
          is(toks_[i + 2], "{")) {
        const std::size_t close = matching(i + 2);
        decl_seq(i + 3, close, record);
        i = close + 1;
        continue;
      }
      i = parse_declaration(i, end, record);
    }
  }

  [[nodiscard]] std::size_t skip_template_header(std::size_t i, std::size_t end) const {
    if (i >= end || !is(toks_[i], "<")) return i;
    int depth = 0;
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kPunct) {
        if (t.text == "<") ++depth;
        else if (t.text == ">" && --depth == 0) return i + 1;
        else if (t.text == ">>") { depth -= 2; if (depth <= 0) return i + 1; }
        else if (t.text == "(") { i = matching(i); }
        else if (t.text == "{" || t.text == ";") return i;  // malformed: bail
      }
      ++i;
    }
    return end;
  }

  /// `i` points at class/struct/union. Returns the index to resume from.
  std::size_t parse_record(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    bool align64 = false;
    std::string name;
    int name_line = toks_[i].line;
    while (j < end) {
      const Token& t = toks_[j];
      if (is(t, "[") && j + 1 < end && is(toks_[j + 1], "[")) {  // attribute
        j = matching(j) + 1;
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "alignas" && j + 1 < end &&
          is(toks_[j + 1], "(")) {
        const std::size_t close = matching(j + 1);
        for (std::size_t k = j + 2; k < close; ++k)
          if (toks_[k].text == "64") align64 = true;
        j = close + 1;
        continue;
      }
      if (t.kind == Tok::kIdent && t.text != "final") {
        name = std::string(t.text);
        name_line = t.line;
        ++j;
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "final") {
        ++j;
        continue;
      }
      break;
    }
    if (j < end && is(toks_[j], ":")) {  // base clause
      while (j < end && !is(toks_[j], "{") && !is(toks_[j], ";")) {
        if (is(toks_[j], "(")) j = matching(j);
        ++j;
      }
    }
    if (j < end && is(toks_[j], "{")) {
      const std::size_t close = matching(j);
      f_.records.push_back({name, name_line, align64, j, close});
      decl_seq(j + 1, close, name);
      return close + 1;
    }
    if (j < end && is(toks_[j], ";")) return j + 1;  // forward declaration
    // `struct X y = ...;` style: treat the rest as an ordinary declaration.
    return skip_to_semi(j, end);
  }

  /// Generic declaration: detects function definitions (the last `ident (`
  /// before the body is the name), records them, and skips everything else
  /// to its terminating `;`.
  std::size_t parse_declaration(std::size_t i, std::size_t end, const std::string& record) {
    std::size_t j = i;
    std::size_t name_idx = std::size_t(-1);
    bool saw_params = false;
    bool in_init_list = false;
    while (j < end) {
      const Token& t = toks_[j];
      if (t.kind == Tok::kPunct) {
        if (t.text == ";") return j + 1;
        if (t.text == "=") {
          // Variable initializer, `= default`, `= delete`, `= 0`: all end
          // the candidate at the statement's `;`.
          return skip_to_semi(j, end);
        }
        if (t.text == "(") {
          if (!in_init_list && j > i && toks_[j - 1].kind == Tok::kIdent &&
              toks_[j - 1].text != "alignas" && toks_[j - 1].text != "decltype" &&
              toks_[j - 1].text != "noexcept") {
            name_idx = j - 1;  // last `ident (` before the body wins
            saw_params = true;
          }
          j = matching(j) + 1;
          continue;
        }
        if (t.text == "[") {
          j = matching(j) + 1;
          continue;
        }
        if (t.text == ":" && saw_params) {
          in_init_list = true;
          ++j;
          continue;
        }
        if (t.text == "{") {
          if (in_init_list && j > i &&
              (toks_[j - 1].kind == Tok::kIdent || is(toks_[j - 1], ">"))) {
            // Braced member initializer `b_{2}` inside the init list.
            j = matching(j) + 1;
            continue;
          }
          if (saw_params && name_idx != std::size_t(-1)) {
            const std::size_t close = matching(j);
            record_function(i, name_idx, j, close, record);
            return close + 1;
          }
          // Braced variable init without `=` (`int x{3};`) or similar.
          j = matching(j) + 1;
          continue;
        }
      }
      ++j;
    }
    return end;
  }

  void record_function(std::size_t head, std::size_t name_idx, std::size_t body,
                       std::size_t close, const std::string& record) {
    Function fn;
    fn.name = std::string(toks_[name_idx].text);
    fn.class_name = record;
    if (name_idx >= 2 && is(toks_[name_idx - 1], "::") &&
        toks_[name_idx - 2].kind == Tok::kIdent) {
      fn.class_name = std::string(toks_[name_idx - 2].text);
    }
    if (name_idx >= 1 && is(toks_[name_idx - 1], "~")) fn.name = "~" + fn.name;
    fn.is_ctor = !fn.class_name.empty() && fn.name == fn.class_name;
    fn.is_inline = !record.empty();
    fn.line = toks_[name_idx].line;
    fn.head_begin = head;
    fn.body_begin = body;
    fn.body_end = close;
    f_.functions.push_back(std::move(fn));
  }
};

void parse_allow_marks(SourceFile& f) {
  for (const Comment& c : f.comments) {
    std::size_t p = c.text.find("ccnoc-lint:");
    if (p == std::string::npos) continue;
    p = c.text.find("allow(", p);
    if (p == std::string::npos) continue;
    const std::size_t close = c.text.find(')', p);
    if (close == std::string::npos) continue;
    std::string list = c.text.substr(p + 6, close - p - 6);
    std::stringstream ss(list);
    std::string id;
    while (std::getline(ss, id, ',')) {
      const std::size_t a = id.find_first_not_of(" \t");
      const std::size_t b = id.find_last_not_of(" \t");
      if (a == std::string::npos) continue;
      f.allow_marks.emplace_back(c.line, id.substr(a, b - a + 1));
    }
  }
}

std::string normalize_rel(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path abs = fs::weakly_canonical(p, ec);
  const fs::path rel = fs::relative(ec ? p : abs, root, ec);
  if (ec || rel.empty() || rel.generic_string().rfind("..", 0) == 0)
    return p.generic_string();
  return rel.generic_string();
}

bool wanted_extension(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".cpp" || e == ".h" || e == ".cc";
}

}  // namespace

const Function* SourceFile::enclosing_function(std::size_t ti) const {
  const Function* best = nullptr;
  for (const Function& fn : functions) {
    if (fn.head_begin <= ti && ti <= fn.body_end) best = &fn;
    if (fn.head_begin > ti) break;
  }
  return best;
}

const Record* SourceFile::enclosing_record(std::size_t ti) const {
  const Record* best = nullptr;
  for (const Record& r : records) {
    if (r.body_begin <= ti && ti <= r.body_end) {
      if (best == nullptr || r.body_begin > best->body_begin) best = &r;
    }
  }
  return best;
}

bool SourceFile::allows(const std::string& check, int line) const {
  for (const auto& [l, id] : allow_marks) {
    if ((l == line || l == line - 1) && id == check) return true;
  }
  return false;
}

bool load_source(const std::string& fs_path, const std::string& path,
                 SourceFile& out, std::string& err) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) {
    err = "cannot read " + fs_path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  out.path = path;
  out.text = ss.str();
  out.toks = lex(out.text, out.comments);
  Indexer(out).run();
  parse_allow_marks(out);
  return true;
}

bool collect_sources(const std::vector<std::string>& paths,
                     const std::string& build_dir, const std::string& root,
                     std::vector<SourceFile>& out, std::string& err) {
  const fs::path root_p = fs::weakly_canonical(root);
  std::set<std::string> files;  // fs paths, deterministic order

  auto add_file = [&](const fs::path& p) {
    if (wanted_extension(p)) files.insert(p.generic_string());
  };
  auto add_dir = [&](const fs::path& dir) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), e; it != e && !ec;
         it.increment(ec)) {
      if (it->is_regular_file(ec)) add_file(it->path());
    }
  };

  for (const std::string& p : paths) {
    std::error_code ec;
    const fs::path fp(p);
    if (fs::is_directory(fp, ec)) add_dir(fp);
    else if (fs::exists(fp, ec)) add_file(fp);
    else {
      err = "no such file or directory: " + p;
      return false;
    }
  }

  if (!build_dir.empty()) {
    const fs::path ccj = fs::path(build_dir) / "compile_commands.json";
    sim::Jsonv doc;
    std::string jerr;
    if (!sim::jsonv_parse_file(ccj.generic_string(), doc, jerr)) {
      err = "cannot parse " + ccj.generic_string() + ": " + jerr;
      return false;
    }
    const std::string build_rel = normalize_rel(fs::path(build_dir), root_p);
    std::set<std::string> dirs;
    for (const sim::Jsonv& entry : doc.array) {
      const sim::Jsonv* file = entry.get("file");
      const sim::Jsonv* dir = entry.get("directory");
      if (file == nullptr || !file->is_string()) continue;
      fs::path p(file->string);
      if (p.is_relative() && dir != nullptr && dir->is_string())
        p = fs::path(dir->string) / p;
      const std::string rel = normalize_rel(p, root_p);
      // Skip generated/vendored sources (the build tree, fetched deps).
      if (rel.rfind(build_rel, 0) == 0 || rel.find("_deps") != std::string::npos)
        continue;
      std::error_code ec;
      if (!fs::exists(p, ec)) continue;
      add_file(p);
      dirs.insert(p.parent_path().generic_string());
    }
    // Headers never appear in compile_commands; lint the siblings of every
    // compiled source so .hpp-only logic is covered too.
    for (const std::string& d : dirs) {
      std::error_code ec;
      for (fs::directory_iterator it(d, ec), e; it != e && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec)) add_file(it->path());
      }
    }
  }

  for (const std::string& f : files) {
    SourceFile sf;
    if (!load_source(f, normalize_rel(fs::path(f), root_p), sf, err)) return false;
    out.push_back(std::move(sf));
  }
  return true;
}

}  // namespace ccnoc::lint
