#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "lint/checks.hpp"
#include "lint/corpus.hpp"

/// \file main.cpp
/// ccnoc_lint — project-specific static analysis for the ccnoc codebase.
///
/// A dependency-free structural analyzer (own lexer + scope index, no
/// libclang) so the suite runs — and gates CI — on any box that can build
/// the simulator itself. See checks.hpp for what each check proves and
/// EXPERIMENTS.md ("Static analysis") for why these six invariants are the
/// ones worth a tool.
///
/// Exit codes: 0 clean, 1 findings, 2 usage/IO error. With --expect the
/// meaning inverts: 0 when the named check fires (fixture tests assert the
/// tool still catches the known-bad pattern), 1 when it stays silent.

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ccnoc_lint [options] [paths...]\n"
               "  -p <builddir>    lint the sources named by "
               "<builddir>/compile_commands.json\n"
               "                   (plus sibling headers); composable with "
               "explicit paths\n"
               "  --root <dir>     repo root for scoping and reporting "
               "(default: .)\n"
               "  --check <id>     run only this check (repeatable)\n"
               "  --expect <id>    fixture mode: succeed only if <id> fires; "
               "disables path scoping\n"
               "  --all-scopes     apply every check to every file (fixture "
               "negatives)\n"
               "  --list-checks    print the check ids and exit\n"
               "  -q               suppress the summary line\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string build_dir;
  std::string root = ".";
  std::set<std::string> only;
  std::string expect;
  bool all_scopes = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ccnoc_lint: %s needs an argument\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "-p") {
      build_dir = next();
    } else if (a == "--root") {
      root = next();
    } else if (a == "--check") {
      only.insert(next());
    } else if (a == "--expect") {
      expect = next();
      only = {expect};
      all_scopes = true;
    } else if (a == "--all-scopes") {
      all_scopes = true;
    } else if (a == "--list-checks") {
      for (const std::string& id : ccnoc::lint::check_ids())
        std::printf("%s\n", id.c_str());
      return 0;
    } else if (a == "-q") {
      quiet = true;
    } else if (a == "-h" || a == "--help") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "ccnoc_lint: unknown option %s\n", a.c_str());
      usage();
      return 2;
    } else {
      paths.push_back(a);
    }
  }

  for (const std::string& id : only) {
    const auto& ids = ccnoc::lint::check_ids();
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      std::fprintf(stderr, "ccnoc_lint: unknown check '%s' (--list-checks)\n",
                   id.c_str());
      return 2;
    }
  }
  if (paths.empty() && build_dir.empty()) {
    usage();
    return 2;
  }

  std::vector<ccnoc::lint::SourceFile> files;
  std::string err;
  if (!ccnoc::lint::collect_sources(paths, build_dir, root, files, err)) {
    std::fprintf(stderr, "ccnoc_lint: %s\n", err.c_str());
    return 2;
  }

  std::vector<ccnoc::lint::Finding> findings;
  for (const ccnoc::lint::SourceFile& f : files)
    ccnoc::lint::run_checks(f, only, all_scopes, findings);
  std::sort(findings.begin(), findings.end(), [](const auto& a, const auto& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });

  for (const ccnoc::lint::Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.check.c_str(),
                f.msg.c_str());
  }
  if (!quiet) {
    std::printf("ccnoc_lint: %zu files, %zu findings\n", files.size(),
                findings.size());
  }

  if (!expect.empty()) {
    const bool fired = std::any_of(findings.begin(), findings.end(),
                                   [&](const auto& f) { return f.check == expect; });
    if (!fired) {
      std::fprintf(stderr,
                   "ccnoc_lint: expected check '%s' to fire on the fixture "
                   "and it did not — the check has regressed\n",
                   expect.c_str());
      return 1;
    }
    return 0;
  }
  return findings.empty() ? 0 : 1;
}
