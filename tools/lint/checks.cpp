#include "lint/checks.hpp"

#include <algorithm>
#include <array>

namespace ccnoc::lint {
namespace {

bool is(const Token& t, const char* s) { return t.text == s; }
bool starts_with(const std::string& s, const char* pfx) {
  return s.rfind(pfx, 0) == 0;
}
bool ends_with(std::string_view s, const char* sfx) {
  const std::string_view v(sfx);
  return s.size() >= v.size() && s.substr(s.size() - v.size()) == v;
}

std::size_t matching(const std::vector<Token>& toks, std::size_t i) {
  const std::string_view open = toks[i].text;
  const char* close = open == "(" ? ")" : open == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].kind != Tok::kPunct) continue;
    if (toks[j].text == open) ++depth;
    else if (toks[j].text == close && --depth == 0) return j;
  }
  return toks.size() - 1;
}

struct Ctx {
  const SourceFile& f;
  std::vector<Finding>* out;
  bool all_scopes;

  void report(const char* check, int line, std::string msg) const {
    if (f.allows(check, line)) return;
    out->push_back({check, f.path, line, std::move(msg)});
  }
};

// ---------------------------------------------------------------- hotpath

const char* kHotpath = "hotpath-cost";

/// Headers whose records are observer fast-path surfaces.
bool observer_header(const std::string& p) {
  return p == "src/sim/tracer.hpp" || p == "src/sim/profile.hpp" ||
         p == "src/sim/latency.hpp";
}

/// Identifiers a fast-path guard may mention: the off-mode predicate and
/// null checks — anything else is work done before the mode test.
bool cheap_guard_ident(std::string_view s) {
  return s == "on" || s == "full" || s == "nullptr" || s == "probe_" ||
         s == "enabled" || s == "enabled_";
}
bool cheap_guard_punct(std::string_view s) {
  return s == "(" || s == ")" || s == "!" || s == "&&" || s == "||" ||
         s == "==" || s == "!=" || s == "." || s == "->";
}

void check_wrapper_shape(const Ctx& c, const Function& fn) {
  const auto& toks = c.f.toks;
  std::size_t i = fn.body_begin + 1;
  if (!is(toks[i], "if")) {
    c.report(kHotpath, fn.line,
             "fast-path wrapper '" + fn.name +
                 "' must be a single `if (<off-mode guard>) [[unlikely]] " +
                 "*_slow(...);` dispatch — work before the guard runs even " +
                 "when the observer is off");
    return;
  }
  if (!is(toks[i + 1], "(")) return;
  const std::size_t gclose = matching(toks, i + 1);
  for (std::size_t j = i + 2; j < gclose; ++j) {
    const Token& t = toks[j];
    const bool ok = (t.kind == Tok::kIdent && cheap_guard_ident(t.text)) ||
                    (t.kind == Tok::kPunct && cheap_guard_punct(t.text));
    if (!ok) {
      c.report(kHotpath, t.line,
               "off-mode guard of '" + fn.name + "' does work on the fast " +
                   "path: '" + std::string(t.text) + "'");
      return;
    }
  }
  std::size_t j = gclose + 1;
  if (!(is(toks[j], "[") && is(toks[j + 1], "[") && is(toks[j + 2], "unlikely") &&
        is(toks[j + 3], "]") && is(toks[j + 4], "]"))) {
    c.report(kHotpath, toks[gclose].line,
             "off-mode guard of '" + fn.name +
                 "' is missing [[unlikely]] — the branch predictor must be " +
                 "told the observer is normally off");
    return;
  }
  j += 5;
  if (!(toks[j].kind == Tok::kIdent && ends_with(toks[j].text, "_slow") &&
        is(toks[j + 1], "("))) {
    c.report(kHotpath, toks[j].line,
             "guarded statement in '" + fn.name +
                 "' must be a single *_slow(...) dispatch");
    return;
  }
  const std::size_t aclose = matching(toks, j + 1);
  if (!(is(toks[aclose + 1], ";") && aclose + 2 == fn.body_end)) {
    c.report(kHotpath, toks[aclose].line,
             "extra statements on the fast path of '" + fn.name +
                 "' — everything beyond the guarded *_slow call runs with " +
                 "the observer off");
  }
}

void check_hotpath(const Ctx& c) {
  const bool obs = c.all_scopes || observer_header(c.f.path);
  const auto& toks = c.f.toks;
  if (obs) {
    for (const Record& r : c.f.records) {
      for (std::size_t i = r.body_begin + 1; i < r.body_end; ++i) {
        if (toks[i].kind == Tok::kIdent && toks[i].text == "virtual") {
          c.report(kHotpath, toks[i].line,
                   "virtual member in observer '" + r.name +
                       "' — observers are concrete so off-mode calls inline " +
                       "to a predictable branch");
        }
      }
    }
    for (const Function& fn : c.f.functions) {
      if (!fn.is_inline || ends_with(fn.name, "_slow")) continue;
      bool calls_slow = false;
      for (std::size_t i = fn.body_begin; i < fn.body_end && !calls_slow; ++i)
        if (toks[i].kind == Tok::kIdent && ends_with(toks[i].text, "_slow"))
          calls_slow = true;
      if (calls_slow) {
        check_wrapper_shape(c, fn);
        continue;
      }
      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        if (toks[i].kind != Tok::kIdent) continue;
        if (toks[i].text == "new") {
          c.report(kHotpath, toks[i].line,
                   "allocation in observer fast-path function '" + fn.name + "'");
        } else if (toks[i].text == "string" && i >= 2 && is(toks[i - 1], "::") &&
                   toks[i - 2].text == "std") {
          c.report(kHotpath, toks[i].line,
                   "std::string on observer fast path in '" + fn.name +
                       "' — string work belongs in the cold *_slow half");
        }
      }
    }
    // *_slow declarations at class scope must be marked cold so the
    // compiler keeps them out of the hot instruction stream.
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || !ends_with(toks[i].text, "_slow") ||
          !is(toks[i + 1], "("))
        continue;
      if (c.f.enclosing_record(i) == nullptr) continue;   // not at class scope
      if (c.f.enclosing_function(i) != nullptr) continue;  // a call site
      bool cold = false;
      for (std::size_t k = (i >= 10 ? i - 10 : 0); k < i; ++k)
        if (toks[k].kind == Tok::kIdent && toks[k].text == "cold") cold = true;
      if (!cold) {
        c.report(kHotpath, toks[i].line,
                 "slow-path '" + std::string(toks[i].text) +
                     "' is not __attribute__((cold)) — it will pollute the " +
                     "fast path's icache placement");
      }
    }
  }
  // Virtual probe dispatch (any src file): `probe_->` must sit behind a
  // null guard or inside a probe_* helper only reached when attached.
  for (const Function& fn : c.f.functions) {
    if (starts_with(fn.name, "probe_")) continue;
    std::size_t first_call = 0;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (toks[i].kind == Tok::kIdent && toks[i].text == "probe_" &&
          is(toks[i + 1], "->")) {
        first_call = i;
        break;
      }
    }
    if (first_call == 0) continue;
    bool guarded = false;
    for (std::size_t i = fn.body_begin; i < first_call; ++i) {
      if (toks[i].kind == Tok::kIdent && toks[i].text == "probe_" &&
          is(toks[i + 1], "!=") && is(toks[i + 2], "nullptr")) {
        guarded = true;
        break;
      }
    }
    if (!guarded) {
      c.report(kHotpath, toks[first_call].line,
               "unguarded virtual probe dispatch in '" + fn.name +
                   "' — test `probe_ != nullptr` [[unlikely]] first, or move " +
                   "the call into a probe_* helper behind a guarded caller");
    }
  }
}

// ------------------------------------------------------------------ shard

const char* kShard = "shard-discipline";

/// Functions allowed to sweep every shard: the serial begin/merge/finalize
/// phases, where no domain worker is running.
bool merge_phase_function(const std::string& name) {
  static const char* kPrefixes[] = {"finalize", "merge",   "snapshot",
                                    "reset",    "clear",   "enable",
                                    "total",    "collect", "drain"};
  return std::any_of(std::begin(kPrefixes), std::end(kPrefixes),
                     [&](const char* p) { return starts_with(name, p); });
}

void check_shard(const Ctx& c) {
  const auto& toks = c.f.toks;
  for (const Record& r : c.f.records) {
    if (ends_with(r.name, "Shard") && !r.alignas64) {
      c.report(kShard, r.line,
               "shard struct '" + r.name +
                   "' must be alignas(64) so concurrent domain writers never " +
                   "share a cache line");
    }
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text != "shards_") continue;
    if (is(toks[i + 1], "[")) {
      const std::size_t close = matching(toks, i + 1);
      bool domain_indexed = false;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (is(toks[j], "%")) domain_indexed = true;
        if (toks[j].kind == Tok::kIdent &&
            (toks[j].text == "node" || toks[j].text == "src" ||
             toks[j].text == "dst" || toks[j].text == "cpu" ||
             toks[j].text == "link" || toks[j].text == "bank" ||
             toks[j].text == "domain" || toks[j].text == "domain_of"))
          domain_indexed = true;
      }
      if (!domain_indexed) {
        c.report(kShard, toks[i].line,
                 "shard index must be derived from the owning domain "
                 "(`node % shards_.size()` or a domain id) — anything else "
                 "breaks the single-writer guarantee");
      }
      continue;
    }
    // Full sweep: `for (...& sh : shards_)` — only legal in serial phases.
    if (i >= 1 && is(toks[i - 1], ":") && is(toks[i + 1], ")")) {
      const Function* fn = c.f.enclosing_function(i);
      if (fn == nullptr || !merge_phase_function(fn->name)) {
        c.report(kShard, toks[i].line,
                 "full sweep over shards_ in '" +
                     (fn != nullptr ? fn->name : std::string("<file scope>")) +
                     "' — cross-shard iteration is only safe in the serial "
                     "begin/merge/finalize phases");
      }
    }
  }
}

// ------------------------------------------------------------ proto-table

const char* kProto = "proto-table-discipline";

bool proto_scope(const std::string& p) {
  return starts_with(p, "src/cache/") || starts_with(p, "src/mem/");
}

bool dir_mutator_host(const std::string& p) {
  return p == "src/mem/bank.cpp" || p == "src/mem/bank.hpp" ||
         p == "src/mem/l2_bank.cpp" || p == "src/mem/l2_bank.hpp" ||
         p == "src/mem/directory.cpp" || p == "src/mem/directory.hpp";
}

bool dir_mutator_name(std::string_view s) {
  return s == "add_sharer" || s == "remove_sharer" || s == "set_exclusive" ||
         s == "clear_dirty" || s == "clear_all_except";
}

void check_proto(const Ctx& c) {
  const auto& toks = c.f.toks;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    // `<expr>.state = ...` / `<expr>->state = ...`
    if (t.kind == Tok::kPunct && (t.text == "." || t.text == "->") &&
        toks[i + 1].text == "state" && is(toks[i + 2], "=")) {
      bool through_table = false;
      bool rhs_invalid = false;
      for (std::size_t j = i + 3; j < toks.size() && !is(toks[j], ";"); ++j) {
        if (toks[j].text == "apply_cache") through_table = true;
        if (toks[j].text == "kInvalid") rhs_invalid = true;
      }
      const Function* fn = c.f.enclosing_function(i);
      const bool reset_path =
          rhs_invalid && fn != nullptr &&
          (starts_with(fn->name, "clear") || starts_with(fn->name, "reset") ||
           starts_with(fn->name, "invalidate_all"));
      if (!through_table && !reset_path) {
        c.report(kProto, toks[i + 1].line,
                 "cache-line state mutated directly — route the transition "
                 "through proto::apply_cache so the tables and the model "
                 "checker see it");
      }
      continue;
    }
    // `<lvalue>] = LineState::...` / `) = proto::LineState::...`
    if (t.kind == Tok::kPunct && t.text == "=" && i >= 1) {
      std::size_t j = i + 1;
      if (toks[j].text == "proto" && is(toks[j + 1], "::")) j += 2;
      if (toks[j].text == "LineState" && is(toks[j + 1], "::")) {
        const Token& lhs = toks[i - 1];
        if (lhs.kind == Tok::kPunct && (lhs.text == "]" || lhs.text == ")")) {
          c.report(kProto, t.line,
                   "line state assigned outside the table dispatch path — "
                   "use proto::apply_cache (or annotate untimed bookkeeping "
                   "with a rationale)");
        }
      }
    }
    // Directory mutators outside the banks' validated apply paths.
    if (t.kind == Tok::kPunct && (t.text == "." || t.text == "->") &&
        toks[i + 1].kind == Tok::kIdent && dir_mutator_name(toks[i + 1].text) &&
        is(toks[i + 2], "(")) {
      if (!dir_mutator_host(c.f.path)) {
        c.report(kProto, toks[i + 1].line,
                 "directory entry mutated via '" + std::string(toks[i + 1].text) +
                     "' outside the bank's apply path — mutation clusters "
                     "must be validated by proto::apply_dir where they "
                     "happen");
      }
    }
  }
}

// -------------------------------------------------------------- order-key

const char* kOrderKey = "order-key-discipline";

/// The only files that may originate keyed cross-domain events: the GMN
/// fabric crossing, the conservative parallel engine's replay, and the
/// Simulator/EventQueue plumbing that forwards the caller's key.
bool keyed_scheduling_host(const std::string& p) {
  return p == "src/noc/gmn.cpp" || p == "src/sim/parallel.cpp" ||
         p == "src/sim/simulator.hpp" || p == "src/sim/event_queue.hpp" ||
         p == "src/sim/event_queue.cpp";
}

void check_order_key(const Ctx& c) {
  const auto& toks = c.f.toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || toks[i].text != "schedule_keyed") continue;
    const Token& prev = toks[i - 1];
    const bool call = prev.kind == Tok::kPunct && (prev.text == "." || prev.text == "->");
    if (!call || !is(toks[i + 1], "(")) continue;  // declaration/definition
    const std::size_t close = matching(toks, i + 1);
    // Slice out the second top-level argument (the order key).
    int depth = 0, arg = 0;
    std::size_t key_begin = 0, key_end = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      const Token& t = toks[j];
      if (t.kind == Tok::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
        else if (t.text == "," && depth == 0) {
          ++arg;
          if (arg == 1) key_begin = j + 1;
          if (arg == 2) { key_end = j; break; }
          continue;
        }
      }
    }
    if (key_end == 0) key_end = close;
    if (key_begin == 0) continue;  // fewer than two arguments: not ours
    bool canonical = false, forwards = false, local_bit = false;
    std::size_t last_ident = 0;
    for (std::size_t j = key_begin; j < key_end; ++j) {
      if (toks[j].kind != Tok::kIdent) continue;
      if (toks[j].text == "cross_order_key") canonical = true;
      if (toks[j].text == "kLocalOrder") local_bit = true;
      last_ident = j;
    }
    if (last_ident != 0 && toks[last_ident].text == "key") forwards = true;
    const int line = toks[i].line;
    if (local_bit) {
      c.report(kOrderKey, line,
               "order key sets bit 63 (kLocalOrder) — schedule_keyed keys "
               "must keep it clear so cross-domain events sort before local "
               "ones at the same cycle");
    } else if (!canonical && !forwards) {
      c.report(kOrderKey, line,
               "schedule_keyed must pass an explicit canonical key — "
               "sim::cross_order_key(src, seq) or a forwarded `key` — so "
               "parallel replay is deterministic");
    }
    if (!c.all_scopes && !keyed_scheduling_host(c.f.path)) {
      c.report(kOrderKey, line,
               "keyed cross-domain scheduling outside the fabric/parallel "
               "core — derive the key canonically there, or annotate this "
               "site with its ordering argument");
    }
  }
}

// ------------------------------------------------------------ typed-stats

const char* kTypedStats = "typed-stats-discipline";

bool stats_registry_file(const std::string& p) {
  return p == "src/sim/stats.hpp" || p == "src/sim/stats.cpp";
}

bool resolver_function(const std::string& name) {
  return name == "stat" || name == "stat_sample" || name == "stat_histogram" ||
         name == "ctr" || starts_with(name, "resolve");
}

void check_typed_stats(const Ctx& c) {
  const auto& toks = c.f.toks;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent ||
        (t.text != "counter" && t.text != "sample" && t.text != "histogram"))
      continue;
    const Token& prev = toks[i - 1];
    if (!(prev.kind == Tok::kPunct && (prev.text == "." || prev.text == "->")))
      continue;
    if (!is(toks[i + 1], "(")) continue;
    const Function* fn = c.f.enclosing_function(i);
    if (fn != nullptr && (fn->is_ctor || resolver_function(fn->name))) continue;
    c.report(kTypedStats, t.line,
             "string-keyed stat lookup outside construction — resolve a "
             "typed Counter*/Sample*/Histogram* handle once in the "
             "constructor and bump it on the hot path");
  }
}

// -------------------------------------------------------- one-json-writer

const char* kJsonWriter = "one-json-writer";

/// The helpers that exist once, in src/sim/jsonv.cpp: the JSON string
/// escaper, the double formatter and the file writer.
bool json_helper_name(std::string_view s) {
  return s == "json_escape" || s == "fmt_double" || s == "write_file" ||
         s == "write_string";
}

/// Report emitters that must build their text through sim::JsonOut.
bool json_emitter_file(const std::string& p) {
  return p == "src/sim/tracer.cpp" || p == "src/sim/latency_report.cpp" ||
         p == "src/sim/heartbeat.cpp";
}

void check_json_writer(const Ctx& c) {
  if (c.all_scopes || c.f.path != "src/sim/jsonv.cpp") {
    for (const Function& fn : c.f.functions) {
      if (!json_helper_name(fn.name)) continue;
      c.report(kJsonWriter, fn.line,
               "second copy of '" + fn.name + "' — escape, format and write " +
                   "through sim::JsonOut / sim::write_file (src/sim/jsonv.*) " +
                   "so every report has the same bytes and the same errors");
    }
  }
  if (!c.all_scopes && !json_emitter_file(c.f.path)) return;
  for (const Token& t : c.f.toks) {
    if (t.kind == Tok::kIdent && t.text == "ostringstream") {
      c.report(kJsonWriter, t.line,
               "std::ostringstream in a report emitter — append to one "
               "reserved sim::JsonOut instead");
    }
  }
}

}  // namespace

const std::vector<std::string>& check_ids() {
  static const std::vector<std::string> kIds = {
      kHotpath, kShard, kProto, kOrderKey, kTypedStats, kJsonWriter};
  return kIds;
}

void run_checks(const SourceFile& f, const std::set<std::string>& only,
                bool all_scopes, std::vector<Finding>& out) {
  const Ctx c{f, &out, all_scopes};
  auto want = [&](const char* id, bool in_scope) {
    if (!only.empty() && only.count(id) == 0) return false;
    return all_scopes || in_scope;
  };
  if (want(kHotpath, starts_with(f.path, "src/"))) check_hotpath(c);
  if (want(kShard, starts_with(f.path, "src/"))) check_shard(c);
  if (want(kProto, proto_scope(f.path))) check_proto(c);
  if (want(kOrderKey,
           starts_with(f.path, "src/") || starts_with(f.path, "tools/")))
    check_order_key(c);
  if (want(kTypedStats, starts_with(f.path, "src/") && !stats_registry_file(f.path)))
    check_typed_stats(c);
  if (want(kJsonWriter, !starts_with(f.path, "tests/lint/fixtures/")))
    check_json_writer(c);
}

}  // namespace ccnoc::lint
