#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "sim/jsonv.hpp"
#include "sim/profile.hpp"

namespace ccnoc::sim {

namespace {

void hex_block(JsonOut& o, Addr block) {
  char buf[16];
  const char* end = std::to_chars(buf, buf + sizeof buf, block, 16).ptr;
  o.raw("\"0x").raw(std::string_view(buf, std::size_t(end - buf))).raw('"');
}

void emit_line(JsonOut& o, const ProfileSnapshot::Line& l) {
  o.raw("{\"block\":");
  hex_block(o, l.block);
  o.raw(",\"pattern\":").str(to_string(l.pattern));
  o.raw(",\"readers\":").num(l.num_readers());
  o.raw(",\"writers\":").num(l.num_writers());
  o.raw(",\"reads\":").num(l.reads).raw(",\"writes\":").num(l.writes);
  o.raw(",\"atomics\":").num(l.atomics).raw(",\"ifetches\":").num(l.ifetches);
  o.raw(",\"misses\":").num(l.misses);
  o.raw(",\"invalidations\":").num(l.invalidations);
  o.raw(",\"updates\":").num(l.updates).raw(",\"ping_pongs\":").num(l.ping_pongs);
  o.raw(",\"fanout_rounds\":").num(l.fanout_rounds);
  o.raw(",\"fanout_total\":").num(l.fanout_total);
  o.raw(",\"fanout_max\":").num(l.fanout_max);
  o.raw(",\"dir_max_sharers\":").num(l.dir_max_sharers);
  o.raw(",\"wbuf_stalls\":").num(l.wbuf_stalls);
  o.raw(",\"stall_cycles\":").num(l.stall_cycles);
  o.raw(",\"traffic_bytes\":").num(l.traffic_bytes);
  o.raw(",\"packets\":").num(l.packets).raw(",\"bank_waits\":").num(l.bank_waits);
  o.raw(",\"bank_wait_cycles\":").num(l.bank_wait_cycles);
  o.raw(",\"epochs_active\":").num(l.epochs_active);
  o.raw(",\"epochs_shared\":").num(l.epochs_shared);
  o.raw(",\"epochs_rw_shared\":").num(l.epochs_rw_shared).raw('}');
}

// ---- HTML helpers ------------------------------------------------------

void html_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '<': os << "&lt;"; break;
      case '>': os << "&gt;"; break;
      case '&': os << "&amp;"; break;
      case '"': os << "&quot;"; break;
      default: os << c;
    }
  }
}

// White → amber → red ramp on a log scale, so one megahot line doesn't
// wash out the rest of the address space.
void heat_color(std::ostringstream& os, std::uint64_t v, std::uint64_t max) {
  double h = 0.0;
  if (max > 0 && v > 0)
    h = std::log1p(double(v)) / std::log1p(double(max));
  int r = 255;
  int g = 245 - int(h * 160.0);
  int b = 235 - int(h * 235.0);
  char buf[48];
  std::snprintf(buf, sizeof buf, "rgb(%d,%d,%d)", r, g, b);
  os << buf;
}

const char* pattern_css(SharingPattern p) {
  switch (p) {
    case SharingPattern::kFalseShared: return "fs";
    case SharingPattern::kReadWriteShared: return "rw";
    case SharingPattern::kMigratory: return "mg";
    case SharingPattern::kProducerConsumer: return "pc";
    default: return "ok";
  }
}

void emit_heatmap(std::ostringstream& os, const ProfileSnapshot& s,
                  const std::vector<Addr>& blocks) {
  std::uint64_t max_traffic = 0;
  std::map<Addr, const ProfileSnapshot::Line*> by_block;
  for (const auto& l : s.lines) {
    by_block[l.block] = &l;
    max_traffic = std::max(max_traffic, l.traffic_bytes);
  }
  os << "<div class=heatrow><span class=heatlabel>";
  html_escape(os, s.label);
  os << "</span><div class=heat>";
  constexpr std::size_t kMaxCells = 2048;
  std::size_t shown = 0;
  for (Addr blk : blocks) {
    if (shown++ >= kMaxCells) break;
    auto it = by_block.find(blk);
    const ProfileSnapshot::Line* l =
        it == by_block.end() ? nullptr : it->second;
    os << "<i style=\"background:";
    heat_color(os, l ? l->traffic_bytes : 0, max_traffic);
    os << "\" title=\"";
    char buf[64];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(blk));
    os << buf;
    if (l) {
      os << " " << to_string(l->pattern) << " traffic=" << l->traffic_bytes
         << "B inv=" << l->invalidations << " stall=" << l->stall_cycles;
    }
    os << "\"></i>";
  }
  os << "</div></div>\n";
  if (blocks.size() > kMaxCells) {
    os << "<p class=note>heatmap truncated to first " << kMaxCells << " of "
       << blocks.size() << " lines</p>\n";
  }
}

void emit_pattern_table(std::ostringstream& os, const ProfileSnapshot& a,
                        const ProfileSnapshot* b) {
  os << "<table><tr><th>pattern</th><th>lines</th><th>accesses</th>"
        "<th>traffic B</th><th>stall cyc</th><th>invals</th>"
        "<th>ping-pongs</th>";
  if (b)
    os << "<th>lines</th><th>accesses</th><th>traffic B</th>"
          "<th>stall cyc</th><th>invals</th><th>ping-pongs</th>";
  os << "</tr>\n";
  if (b) {
    os << "<tr><td></td><td colspan=6 class=grp>";
    html_escape(os, a.label);
    os << "</td><td colspan=6 class=grp>";
    html_escape(os, b->label);
    os << "</td></tr>\n";
  }
  for (unsigned p = 0; p < kNumSharingPatterns; ++p) {
    const auto& pa = a.patterns[p];
    const ProfileSnapshot::PatternTotal* pb = b ? &b->patterns[p] : nullptr;
    if (pa.lines == 0 && (!pb || pb->lines == 0)) continue;
    os << "<tr class=" << pattern_css(SharingPattern(p)) << "><td>"
       << to_string(SharingPattern(p)) << "</td><td>" << pa.lines
       << "</td><td>" << pa.accesses << "</td><td>" << pa.traffic_bytes
       << "</td><td>" << pa.stall_cycles << "</td><td>" << pa.invalidations
       << "</td><td>" << pa.ping_pongs << "</td>";
    if (pb) {
      os << "<td>" << pb->lines << "</td><td>" << pb->accesses << "</td><td>"
         << pb->traffic_bytes << "</td><td>" << pb->stall_cycles
         << "</td><td>" << pb->invalidations << "</td><td>" << pb->ping_pongs
         << "</td>";
    }
    os << "</tr>\n";
  }
  os << "</table>\n";
}

void emit_top_table(std::ostringstream& os, const ProfileSnapshot& s,
                    std::size_t top_n) {
  os << "<h3>Hottest lines — ";
  html_escape(os, s.label);
  os << "</h3>\n<table><tr><th>block</th><th>pattern</th><th>R/W cpus</th>"
        "<th>reads</th><th>writes</th><th>misses</th><th>invals</th>"
        "<th>ping-pongs</th><th>fan-out max</th><th>traffic B</th>"
        "<th>stall cyc</th><th>bank waits</th></tr>\n";
  for (const auto* l : s.hottest(top_n)) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(l->block));
    os << "<tr class=" << pattern_css(l->pattern) << "><td>" << buf
       << "</td><td>" << to_string(l->pattern) << "</td><td>"
       << l->num_readers() << "/" << l->num_writers() << "</td><td>"
       << l->reads << "</td><td>" << l->writes << "</td><td>" << l->misses
       << "</td><td>" << l->invalidations << "</td><td>" << l->ping_pongs
       << "</td><td>" << l->fanout_max << "</td><td>" << l->traffic_bytes
       << "</td><td>" << l->stall_cycles << "</td><td>" << l->bank_waits
       << "</td></tr>\n";
  }
  os << "</table>\n";
}

void emit_bank_table(std::ostringstream& os, const ProfileSnapshot& s) {
  if (s.banks.empty()) return;
  os << "<h3>Bank queues — ";
  html_escape(os, s.label);
  os << "</h3>\n<table><tr><th>bank</th><th>tier</th><th>conflicts</th>"
        "<th>wait cyc</th><th>&int;Q dt</th><th>max depth</th></tr>\n";
  for (const auto& b : s.banks) {
    os << "<tr><td>";
    html_escape(os, b.name);
    os << "</td><td>" << (b.level == 0 ? "mem" : "L2");
    os << "</td><td>" << b.conflicts << "</td><td>" << b.wait_cycles
       << "</td><td>" << b.occupancy_integral << "</td><td>" << b.max_depth
       << "</td></tr>\n";
  }
  os << "</table>\n";
}

}  // namespace

std::string profile_json(const ProfileSnapshot& s, std::size_t top_n) {
  JsonOut o;
  o.raw("{\n\"schema_version\":1,\n\"kind\":\"ccnoc-profile\",\n\"label\":");
  o.str(s.label).raw(",\n\"block_bytes\":").num(s.block_bytes);
  o.raw(",\n\"epoch_cycles\":").num(s.epoch_cycles).raw(",\n\"totals\":{");
  o.raw("\"lines\":").num(s.lines.size());
  o.raw(",\"traffic_bytes\":").num(s.total_traffic_bytes);
  o.raw(",\"packets\":").num(s.total_packets);
  o.raw(",\"stall_cycles\":").num(s.total_stall_cycles);
  o.raw(",\"stalls_by_class\":{");
  for (unsigned c = 0; c < 4; ++c) {
    if (c) o.raw(',');
    o.str(to_string(AccessClass(c))).raw(':').num(s.stalls_by_class[c]);
  }
  o.raw("}},\n\"patterns\":[");
  bool first = true;
  for (unsigned p = 0; p < kNumSharingPatterns; ++p) {
    const auto& pt = s.patterns[p];
    if (pt.lines == 0) continue;
    if (!first) o.raw(',');
    first = false;
    o.raw("\n{\"pattern\":").str(to_string(SharingPattern(p)));
    o.raw(",\"lines\":").num(pt.lines).raw(",\"accesses\":").num(pt.accesses);
    o.raw(",\"traffic_bytes\":").num(pt.traffic_bytes);
    o.raw(",\"stall_cycles\":").num(pt.stall_cycles);
    o.raw(",\"invalidations\":").num(pt.invalidations);
    o.raw(",\"ping_pongs\":").num(pt.ping_pongs).raw('}');
  }
  o.raw("],\n\"lines\":[");
  first = true;
  for (const auto* l : s.hottest(top_n)) {
    if (!first) o.raw(',');
    first = false;
    o.raw('\n');
    emit_line(o, *l);
  }
  o.raw("],\n\"banks\":[");
  first = true;
  for (const auto& b : s.banks) {
    if (!first) o.raw(',');
    first = false;
    o.raw("\n{\"name\":").str(b.name).raw(",\"level\":").num(b.level);
    o.raw(",\"conflicts\":").num(b.conflicts);
    o.raw(",\"wait_cycles\":").num(b.wait_cycles);
    o.raw(",\"occupancy_integral\":").num(b.occupancy_integral);
    o.raw(",\"max_depth\":").num(b.max_depth).raw(",\"max_depth_per_epoch\":[");
    for (std::size_t i = 0; i < b.max_depth_per_epoch.size(); ++i) {
      if (i) o.raw(',');
      o.num(b.max_depth_per_epoch[i]);
    }
    o.raw("]}");
  }
  o.raw("],\n\"links\":[");
  first = true;
  for (const auto& lk : s.links) {
    if (!first) o.raw(',');
    first = false;
    o.raw("\n{\"name\":").str(lk.name).raw(",\"flits\":").num(lk.flits).raw('}');
  }
  o.raw("]\n}\n");
  return o.take();
}

bool write_profile_json(const std::string& path, const ProfileSnapshot& s,
                        std::size_t top_n) {
  return write_file(path, profile_json(s, top_n));
}

std::string profile_html(const std::string& title, const ProfileSnapshot& a,
                         const ProfileSnapshot* b, std::size_t top_n) {
  std::ostringstream os;
  os << "<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>";
  html_escape(os, title);
  os << "</title>\n<style>\n"
        "body{font:14px/1.4 sans-serif;margin:24px;color:#222}\n"
        "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
        "h3{font-size:14px;margin-bottom:6px}\n"
        "table{border-collapse:collapse;margin:8px 0}\n"
        "td,th{border:1px solid #ccc;padding:2px 8px;text-align:right;"
        "font-variant-numeric:tabular-nums}\n"
        "th{background:#f2f2f2}td:first-child,th:first-child{text-align:left}\n"
        ".grp{text-align:center;background:#fafafa;font-style:italic}\n"
        ".fs td{background:#fff0f0}.rw td{background:#fff8ee}\n"
        ".mg td{background:#f4f0ff}.pc td{background:#eef6ff}\n"
        ".heat{display:inline-block;vertical-align:middle;max-width:90%}\n"
        ".heat i{display:inline-block;width:9px;height:14px;margin:0;"
        "border-right:1px solid #fff}\n"
        ".heatrow{margin:4px 0;white-space:nowrap}\n"
        ".heatlabel{display:inline-block;width:120px;font-weight:bold}\n"
        ".note{color:#777;font-size:12px}\n"
        "</style></head><body>\n<h1>";
  html_escape(os, title);
  os << "</h1>\n<p class=note>ccnoc sharing &amp; contention profile — "
        "block "
     << a.block_bytes << " B, epoch " << a.epoch_cycles
     << " cycles. Cell color = per-line NoC traffic (log scale); row "
        "highlight marks false (red) / true (amber) read-write sharing.</p>\n";

  // One address axis shared by both snapshots so the heatmaps line up.
  std::map<Addr, bool> axis;
  for (const auto& l : a.lines) axis[l.block] = true;
  if (b)
    for (const auto& l : b->lines) axis[l.block] = true;
  std::vector<Addr> blocks;
  blocks.reserve(axis.size());
  for (const auto& [blk, _] : axis) blocks.push_back(blk);

  os << "<h2>Address-space heatmap</h2>\n";
  emit_heatmap(os, a, blocks);
  if (b) emit_heatmap(os, *b, blocks);

  os << "<h2>Sharing-pattern breakdown</h2>\n";
  emit_pattern_table(os, a, b);

  os << "<h2>Hot lines</h2>\n";
  emit_top_table(os, a, top_n);
  if (b) emit_top_table(os, *b, top_n);

  if (b) {
    os << "<h2>Per-line diff (top by traffic delta)</h2>\n"
          "<table><tr><th>block</th><th>pattern ";
    html_escape(os, a.label);
    os << "</th><th>pattern ";
    html_escape(os, b->label);
    os << "</th><th>traffic A</th><th>traffic B</th><th>&Delta;</th>"
          "<th>invals A</th><th>invals B</th><th>stall A</th>"
          "<th>stall B</th></tr>\n";
    struct Row {
      Addr block;
      const ProfileSnapshot::Line* la;
      const ProfileSnapshot::Line* lb;
      std::uint64_t delta;
    };
    std::vector<Row> rows;
    for (Addr blk : blocks) {
      const auto* la = a.find(blk);
      const auto* lb = b->find(blk);
      std::uint64_t ta = la ? la->traffic_bytes : 0;
      std::uint64_t tb = lb ? lb->traffic_bytes : 0;
      rows.push_back(Row{blk, la, lb, ta > tb ? ta - tb : tb - ta});
    }
    std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
      if (x.delta != y.delta) return x.delta > y.delta;
      return x.block < y.block;
    });
    if (rows.size() > top_n) rows.resize(top_n);
    for (const Row& r : rows) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "0x%llx",
                    static_cast<unsigned long long>(r.block));
      std::uint64_t ta = r.la ? r.la->traffic_bytes : 0;
      std::uint64_t tb = r.lb ? r.lb->traffic_bytes : 0;
      os << "<tr><td>" << buf << "</td><td>"
         << (r.la ? to_string(r.la->pattern) : "-") << "</td><td>"
         << (r.lb ? to_string(r.lb->pattern) : "-") << "</td><td>" << ta
         << "</td><td>" << tb << "</td><td>"
         << (ta >= tb ? "+" : "-") << r.delta << "</td><td>"
         << (r.la ? r.la->invalidations : 0) << "</td><td>"
         << (r.lb ? r.lb->invalidations : 0) << "</td><td>"
         << (r.la ? r.la->stall_cycles : 0) << "</td><td>"
         << (r.lb ? r.lb->stall_cycles : 0) << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  os << "<h2>Bank contention</h2>\n";
  emit_bank_table(os, a);
  if (b) emit_bank_table(os, *b);

  os << "</body></html>\n";
  return os.str();
}

bool write_profile_html(const std::string& path, const std::string& title,
                        const ProfileSnapshot& a, const ProfileSnapshot* b,
                        std::size_t top_n) {
  return write_file(path, profile_html(title, a, b, top_n));
}

}  // namespace ccnoc::sim
