#include "verify/model.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "noc/message.hpp"
#include "sim/jsonv.hpp"

/// \file model.cpp
/// The abstract machine: one coherent block, N cache-line FSMs, a full-map
/// directory entry, the bank's transaction engine and per-(src,dst) FIFO
/// channels. Timing is erased — any in-flight message may be delivered
/// next — but message-level structure is kept exactly as bank.cpp and the
/// controllers implement it, including the races that structure creates
/// (write-backs crossing fetches, upgrade losers, stale presence bits,
/// §4.2 direct-acknowledgement rounds).
///
/// Data values are abstracted to write version numbers: every store is
/// assigned the next version at its serialization point, copies and memory
/// remember the version they hold, and versions are renormalized to a
/// canonical dense range after every step so the reachable set stays
/// finite while the "reads see the last write" ordering is preserved.

namespace ccnoc::verify {

using noc::Grant;
using noc::MsgType;
using proto::CacheEvent;
using proto::DirEvent;
using proto::DirState;
using proto::LineState;
using sim::json_escape;

namespace {

constexpr unsigned kMaxCaches = 4;
constexpr unsigned kMaxNodes = kMaxCaches + 1;  // + the bank
constexpr unsigned kChanDepth = 5;              // per-(src,dst) FIFO bound
constexpr unsigned kQCap = 8;                   // bank waiting-queue bound
constexpr std::uint8_t kNoOwner = 0xFE;
/// A write-through copy patched by the local store hit, waiting for its own
/// buffered write to serialize: its version is "my next write's", unknown
/// until the WriteAck returns.
constexpr std::uint8_t kOwnPending = 0xFF;

/// Cache-side pending-access states (the controllers' Pending enums).
enum class Pend : std::uint8_t {
  kNone,
  kLoadDrain,  // WT: load miss waiting for the write buffer to empty
  kLoadFill,   // read request in flight
  kStoreFill,  // MESI write-allocate (ReadExclusive) in flight
  kUpgrade,    // MESI upgrade in flight
  kSwapDrain,  // WT: atomic waiting for the write buffer to empty
  kSwap,       // WT: atomic in flight at the bank
};

const char* to_string(Pend p) {
  switch (p) {
    case Pend::kNone: return "-";
    case Pend::kLoadDrain: return "LoadDrain";
    case Pend::kLoadFill: return "LoadFill";
    case Pend::kStoreFill: return "StoreFill";
    case Pend::kUpgrade: return "Upgrade";
    case Pend::kSwapDrain: return "SwapDrain";
    case Pend::kSwap: return "Swap";
  }
  return "?";
}

/// One in-flight message (the model's noc::Message).
struct MMsg {
  MsgType type = MsgType::kReadShared;
  std::uint8_t ver = 0;        ///< data version carried (data-bearing types)
  std::uint8_t track = 0;      ///< kReadShared/kReadResponse: tracked read?
  std::uint8_t direct = 0;     ///< kInvalidate: ack straight to requester
  std::uint8_t had_copy = 0;   ///< kUpdateAck
  std::uint8_t has_data = 0;   ///< kFetchResponse/kUpgradeAck/kWriteBack
  std::uint8_t ack_count = 0;  ///< kWriteAck/kUpgradeAck: direct acks to collect
  std::uint8_t requester = 0;  ///< kInvalidate: direct-ack target
  Grant grant = Grant::kShared;
};

struct Chan {
  std::uint8_t n = 0;
  MMsg m[kChanDepth];
};

struct CacheSt {
  LineState line = LineState::kInvalid;
  std::uint8_t cv = 0;  ///< version held by the copy (kOwnPending: see above)
  Pend pend = Pend::kNone;
  // Write-through engine.
  std::uint8_t wbuf = 0;   ///< buffered stores
  std::uint8_t wsent = 0;  ///< head entry's WriteWord is in flight
  // MESI write-back buffer (one entry suffices for one block).
  std::uint8_t wb_entry = 0;
  std::uint8_t wb_ver = 0;
  // Direct-ack collection (requester side of a §4.2 round).
  std::uint8_t have_resp = 0;  ///< WriteAck/UpgradeAck with ack_count arrived
  std::uint8_t dneed = 0;
  std::uint8_t dgot = 0;
  std::uint8_t saved_ver = 0;       ///< WT: version of the completed write
  std::uint8_t saved_has_data = 0;  ///< MESI: UpgradeAck re-supplied the block
  std::uint8_t inv_seen = 0;        ///< fault injection: invalidations applied
};

struct QEnt {
  MsgType type = MsgType::kReadShared;
  std::uint8_t src = 0;
  std::uint8_t track = 0;
};

struct BankSt {
  std::uint8_t active = 0;
  MsgType req = MsgType::kReadShared;
  std::uint8_t src = 0;
  std::uint8_t rtrack = 0;
  std::uint8_t pending_acks = 0;
  std::uint8_t direct_mode = 0;
  std::uint8_t direct_acks = 0;
  std::uint8_t waiting_data = 0;
  std::uint8_t data_from = 0;
  std::uint8_t txn_ver = 0;  ///< version assigned to an active WriteWord/atomic
  /// Dangling FetchResponses to discard, per cache: when a WriteBack crosses
  /// a Fetch/FetchInv and is accepted as the fetch data, the cache's answer
  /// to the fetch itself is still on the wire. The sim drops it by txn-id
  /// mismatch; the model (which abstracts txn ids away) counts it instead —
  /// equivalent under per-flow FIFO, which delivers every dangling response
  /// before any genuine response to a newer fetch from the same cache.
  std::uint8_t stale_fetch[kMaxCaches] = {};
  std::uint8_t qlen = 0;
  QEnt q[kQCap];
};

struct DirSt {
  std::uint8_t presence = 0;
  std::uint8_t dirty = 0;
  std::uint8_t owner = kNoOwner;
};

struct State {
  CacheSt c[kMaxCaches];
  BankSt bank;
  DirSt dir;
  std::uint8_t mem_ver = 0;
  std::uint8_t latest = 0;      ///< version of the last serialized write
  std::uint8_t untracked = 0;   ///< untracked (icache-style) reads in flight
  std::uint8_t fault_fired = 0;
  Chan ch[kMaxNodes][kMaxNodes];
};

std::string node_name(unsigned n, unsigned num_caches) {
  if (n < num_caches) return "cache" + std::to_string(n);
  return "bank";
}

/// Zero the fields a message's type does not use, so states differing only
/// in dead payload bits hash equal.
void canon_msg(MMsg& m) {
  MMsg out;
  out.type = m.type;
  switch (m.type) {
    case MsgType::kReadShared:
      out.track = m.track;
      break;
    case MsgType::kWriteBack:
      out.ver = m.ver;
      out.has_data = 1;
      break;
    case MsgType::kReadResponse:
      out.grant = m.grant;
      out.track = m.track;
      // grant=M responses feed a store whose value supersedes the fill.
      out.ver = m.grant == Grant::kModified ? std::uint8_t(0) : m.ver;
      out.has_data = 1;
      break;
    case MsgType::kUpgradeAck:
      out.ack_count = m.ack_count;
      out.has_data = m.has_data;
      break;
    case MsgType::kWriteAck:
      out.ver = m.ver;
      out.ack_count = m.ack_count;
      break;
    case MsgType::kInvalidate:
      out.direct = m.direct;
      out.requester = m.direct ? m.requester : std::uint8_t(0);
      break;
    case MsgType::kUpdateWord:
      out.ver = m.ver;
      break;
    case MsgType::kUpdateAck:
      out.had_copy = m.had_copy;
      break;
    case MsgType::kFetchResponse:
      out.has_data = m.has_data;
      out.ver = m.has_data ? m.ver : std::uint8_t(0);
      break;
    default:  // kReadExclusive, kUpgrade, kWriteWord, atomics, acks, TxnDone
      break;
  }
  m = out;
}

/// Canonicalize: zero dead fields, then remap every live version through an
/// order-preserving dense renumbering (kOwnPending is a sentinel, kept).
void canonicalize(State& s, const ModelConfig& cfg) {
  const unsigned nc = cfg.num_caches;
  const unsigned nodes = nc + 1;

  for (unsigned i = nc; i < kMaxCaches; ++i) s.c[i] = CacheSt{};
  for (unsigned i = 0; i < nc; ++i) {
    CacheSt& c = s.c[i];
    if (c.line == LineState::kInvalid) c.cv = 0;
    if (c.wb_entry == 0) c.wb_ver = 0;
    if (c.have_resp == 0) {
      c.saved_ver = 0;
      c.saved_has_data = 0;
      c.dneed = 0;
    }
  }
  BankSt& b = s.bank;
  if (b.active == 0) {
    MsgType t0 = MsgType::kReadShared;
    b.req = t0;
    b.src = b.rtrack = b.pending_acks = 0;
    b.direct_mode = b.direct_acks = 0;
    b.waiting_data = b.data_from = b.txn_ver = 0;
  } else {
    if (b.waiting_data == 0) b.data_from = 0;
    if (b.req != MsgType::kWriteWord && b.req != MsgType::kAtomicSwap) {
      b.txn_ver = 0;
    }
  }
  for (unsigned i = b.qlen; i < kQCap; ++i) b.q[i] = QEnt{};
  if (s.dir.dirty == 0) s.dir.owner = kNoOwner;

  for (unsigned a = 0; a < kMaxNodes; ++a) {
    for (unsigned d = 0; d < kMaxNodes; ++d) {
      Chan& ch = s.ch[a][d];
      if (a >= nodes || d >= nodes) ch = Chan{};
      for (unsigned k = 0; k < kChanDepth; ++k) {
        if (k < ch.n) {
          canon_msg(ch.m[k]);
        } else {
          ch.m[k] = MMsg{};
        }
      }
    }
  }

  // Version renormalization. Collect every live version field, remap the
  // distinct values (minus the sentinel) to 0..k-1 preserving order.
  std::uint8_t* fields[64];
  unsigned nf = 0;
  auto live = [&](std::uint8_t& v) { fields[nf++] = &v; };
  live(s.mem_ver);
  live(s.latest);
  if (b.active != 0 &&
      (b.req == MsgType::kWriteWord || b.req == MsgType::kAtomicSwap)) {
    live(b.txn_ver);
  }
  for (unsigned i = 0; i < nc; ++i) {
    CacheSt& c = s.c[i];
    if (c.line != LineState::kInvalid && c.cv != kOwnPending) live(c.cv);
    if (c.wb_entry != 0) live(c.wb_ver);
    if (c.have_resp != 0) live(c.saved_ver);
  }
  for (unsigned a = 0; a < nodes; ++a) {
    for (unsigned d = 0; d < nodes; ++d) {
      Chan& ch = s.ch[a][d];
      for (unsigned k = 0; k < ch.n; ++k) {
        MMsg& m = ch.m[k];
        switch (m.type) {
          case MsgType::kWriteBack:
          case MsgType::kWriteAck:
          case MsgType::kUpdateWord:
            live(m.ver);
            break;
          case MsgType::kReadResponse:
            if (m.grant != Grant::kModified) live(m.ver);
            break;
          case MsgType::kFetchResponse:
            if (m.has_data != 0) live(m.ver);
            break;
          default:
            break;
        }
      }
    }
  }

  std::uint8_t vals[64];
  unsigned nv = 0;
  for (unsigned i = 0; i < nf; ++i) vals[nv++] = *fields[i];
  std::sort(vals, vals + nv);
  nv = unsigned(std::unique(vals, vals + nv) - vals);
  for (unsigned i = 0; i < nf; ++i) {
    *fields[i] = std::uint8_t(std::lower_bound(vals, vals + nv, *fields[i]) - vals);
  }
}

void put(std::string& out, std::uint8_t v) { out.push_back(char(v)); }

std::string encode(const State& s, const ModelConfig& cfg) {
  const unsigned nc = cfg.num_caches;
  const unsigned nodes = nc + 1;
  std::string out;
  out.reserve(64);
  for (unsigned i = 0; i < nc; ++i) {
    const CacheSt& c = s.c[i];
    put(out, std::uint8_t(c.line));
    put(out, c.cv);
    put(out, std::uint8_t(c.pend));
    put(out, c.wbuf);
    put(out, c.wsent);
    put(out, c.wb_entry);
    put(out, c.wb_ver);
    put(out, c.have_resp);
    put(out, c.dneed);
    put(out, c.dgot);
    put(out, c.saved_ver);
    put(out, c.saved_has_data);
    put(out, c.inv_seen);
  }
  const BankSt& b = s.bank;
  put(out, b.active);
  put(out, std::uint8_t(b.req));
  put(out, b.src);
  put(out, b.rtrack);
  put(out, b.pending_acks);
  put(out, b.direct_mode);
  put(out, b.direct_acks);
  put(out, b.waiting_data);
  put(out, b.data_from);
  put(out, b.txn_ver);
  for (unsigned i = 0; i < nc; ++i) put(out, b.stale_fetch[i]);
  put(out, b.qlen);
  for (unsigned i = 0; i < b.qlen; ++i) {
    put(out, std::uint8_t(b.q[i].type));
    put(out, b.q[i].src);
    put(out, b.q[i].track);
  }
  put(out, s.dir.presence);
  put(out, s.dir.dirty);
  put(out, s.dir.owner);
  put(out, s.mem_ver);
  put(out, s.latest);
  put(out, s.untracked);
  put(out, s.fault_fired);
  for (unsigned a = 0; a < nodes; ++a) {
    for (unsigned d = 0; d < nodes; ++d) {
      const Chan& ch = s.ch[a][d];
      if (ch.n == 0) continue;
      put(out, std::uint8_t(a));
      put(out, std::uint8_t(d));
      put(out, ch.n);
      for (unsigned k = 0; k < ch.n; ++k) {
        const MMsg& m = ch.m[k];
        put(out, std::uint8_t(m.type));
        put(out, m.ver);
        put(out, m.track);
        put(out, m.direct);
        put(out, m.had_copy);
        put(out, m.has_data);
        put(out, m.ack_count);
        put(out, m.requester);
        put(out, std::uint8_t(m.grant));
      }
    }
  }
  return out;
}

State decode(const std::string& k, const ModelConfig& cfg) {
  const unsigned nc = cfg.num_caches;
  State s;
  std::size_t p = 0;
  auto get = [&]() { return std::uint8_t(k[p++]); };
  for (unsigned i = 0; i < nc; ++i) {
    CacheSt& c = s.c[i];
    c.line = LineState(get());
    c.cv = get();
    c.pend = Pend(get());
    c.wbuf = get();
    c.wsent = get();
    c.wb_entry = get();
    c.wb_ver = get();
    c.have_resp = get();
    c.dneed = get();
    c.dgot = get();
    c.saved_ver = get();
    c.saved_has_data = get();
    c.inv_seen = get();
  }
  BankSt& b = s.bank;
  b.active = get();
  b.req = MsgType(get());
  b.src = get();
  b.rtrack = get();
  b.pending_acks = get();
  b.direct_mode = get();
  b.direct_acks = get();
  b.waiting_data = get();
  b.data_from = get();
  b.txn_ver = get();
  for (unsigned i = 0; i < nc; ++i) b.stale_fetch[i] = get();
  b.qlen = get();
  for (unsigned i = 0; i < b.qlen; ++i) {
    b.q[i].type = MsgType(get());
    b.q[i].src = get();
    b.q[i].track = get();
  }
  s.dir.presence = get();
  s.dir.dirty = get();
  s.dir.owner = get();
  s.mem_ver = get();
  s.latest = get();
  s.untracked = get();
  s.fault_fired = get();
  while (p < k.size()) {
    unsigned a = get();
    unsigned d = get();
    Chan& ch = s.ch[a][d];
    ch.n = get();
    for (unsigned q = 0; q < ch.n; ++q) {
      MMsg& m = ch.m[q];
      m.type = MsgType(get());
      m.ver = get();
      m.track = get();
      m.direct = get();
      m.had_copy = get();
      m.has_data = get();
      m.ack_count = get();
      m.requester = get();
      m.grant = Grant(get());
    }
  }
  return s;
}

std::string ver_name(std::uint8_t v) {
  if (v == kOwnPending) return "own-pending";
  return "v" + std::to_string(v);
}

/// Pretty-print a state for counterexample reports.
std::string dump_state(const State& s, const ModelConfig& cfg) {
  const unsigned nc = cfg.num_caches;
  std::ostringstream os;
  os << "  mem=" << ver_name(s.mem_ver) << " latest=" << ver_name(s.latest);
  os << " dir={presence=";
  for (unsigned i = 0; i < nc; ++i) os << ((s.dir.presence >> i) & 1u);
  os << (s.dir.dirty != 0 ? " dirty" : " clean");
  if (s.dir.owner != kNoOwner) os << " owner=cache" << unsigned(s.dir.owner);
  os << "}\n";
  for (unsigned i = 0; i < nc; ++i) {
    const CacheSt& c = s.c[i];
    os << "  cache" << i << ": " << proto::to_string(c.line);
    if (c.line != LineState::kInvalid) os << "(" << ver_name(c.cv) << ")";
    if (c.pend != Pend::kNone) os << " pend=" << to_string(c.pend);
    if (c.wbuf != 0) {
      os << " wbuf=" << unsigned(c.wbuf) << (c.wsent != 0 ? "*" : "");
    }
    if (c.wb_entry != 0) os << " wb(" << ver_name(c.wb_ver) << ")";
    if (c.have_resp != 0 || c.dgot != 0) {
      os << " direct-acks=" << unsigned(c.dgot) << "/" << unsigned(c.dneed)
         << (c.have_resp != 0 ? "+resp" : "");
    }
    os << "\n";
  }
  const BankSt& b = s.bank;
  if (b.active != 0) {
    os << "  bank: " << noc::to_string(b.req) << " from cache"
       << unsigned(b.src);
    if (b.pending_acks != 0) os << " acks=" << unsigned(b.pending_acks);
    if (b.waiting_data != 0) os << " fetching<-cache" << unsigned(b.data_from);
    if (b.direct_mode != 0) os << " direct-held";
    if (b.qlen != 0) os << " queued=" << unsigned(b.qlen);
    os << "\n";
  }
  for (unsigned a = 0; a <= nc; ++a) {
    for (unsigned d = 0; d <= nc; ++d) {
      const Chan& ch = s.ch[a][d];
      if (ch.n == 0) continue;
      os << "  " << node_name(a, nc) << "->" << node_name(d, nc) << ":";
      for (unsigned k = 0; k < ch.n; ++k) {
        os << " " << noc::to_string(ch.m[k].type);
      }
      os << "\n";
    }
  }
  return os.str();
}

/// Quiescent: no message, request, pending access or buffered write in
/// flight anywhere. Deadlock-freedom asks that every reachable state can
/// still reach one of these.
bool is_quiescent(const State& s, const ModelConfig& cfg) {
  const unsigned nc = cfg.num_caches;
  if (s.bank.active != 0 || s.bank.qlen != 0 || s.untracked != 0) return false;
  for (unsigned i = 0; i < nc; ++i) {
    const CacheSt& c = s.c[i];
    if (c.pend != Pend::kNone || c.wbuf != 0 || c.wsent != 0 ||
        c.wb_entry != 0 || c.have_resp != 0 || c.dgot != 0 ||
        s.bank.stale_fetch[i] != 0) {
      return false;
    }
  }
  for (unsigned a = 0; a <= nc; ++a) {
    for (unsigned d = 0; d <= nc; ++d) {
      if (s.ch[a][d].n != 0) return false;
    }
  }
  return true;
}

/// Applies one action to a copy of a state, mirroring bank.cpp /
/// wti_controller.cpp / mesi_controller.cpp decision-for-decision. Every
/// FSM move goes through the shared declarative tables; an undeclared move
/// is recorded as a divergence failure instead of a successor.
struct Stepper {
  const ModelConfig& cfg;
  const proto::ProtocolTable& tbl;
  proto::CoverageSet& cov;
  State st;
  bool failed = false;
  std::string frule;
  std::string fdetail;

  unsigned nc;
  std::uint8_t bank_id;
  bool mesi;
  bool wtu;

  Stepper(const ModelConfig& c, const proto::ProtocolTable& t,
          proto::CoverageSet& cv, const State& s)
      : cfg(c), tbl(t), cov(cv), st(s), nc(c.num_caches),
        bank_id(std::uint8_t(c.num_caches)),
        mesi(c.protocol == mem::Protocol::kWbMesi),
        wtu(c.protocol == mem::Protocol::kWtu) {}

  void fail(const char* rule, std::string detail) {
    if (!failed) {
      failed = true;
      frule = rule;
      fdetail = std::move(detail);
    }
  }

  void send(unsigned src, unsigned dst, const MMsg& m) {
    Chan& ch = st.ch[src][dst];
    if (ch.n >= kChanDepth) {
      fail("model-bound", "channel " + node_name(src, nc) + "->" +
                              node_name(dst, nc) + " exceeded depth " +
                              std::to_string(kChanDepth));
      return;
    }
    ch.m[ch.n++] = m;
  }

  /// Route a cache-line event through the protocol table.
  void cfsm(unsigned c, CacheEvent ev) {
    int id = tbl.find_cache(st.c[c].line, ev);
    if (id < 0) {
      fail("undeclared-transition",
           std::string(mem::to_string(cfg.protocol)) + " cache: " +
               proto::to_string(st.c[c].line) + " --" + proto::to_string(ev) +
               "--> has no declared row (cache" + std::to_string(c) + ")");
      return;
    }
    cov.record(id);
    st.c[c].line = tbl.cache_to(id);
  }

  // ---- directory (full-map entry, Directory's exact semantics) ----

  [[nodiscard]] DirState dstate() const {
    return proto::dir_state(st.dir.presence != 0, st.dir.dirty != 0);
  }

  void devent(DirState before, DirEvent ev) {
    int id = tbl.find_dir(before, ev, dstate());
    if (id < 0) {
      fail("undeclared-transition",
           std::string(mem::to_string(cfg.protocol)) + " directory: " +
               proto::to_string(before) + " --" + proto::to_string(ev) +
               "--> " + proto::to_string(dstate()) + " has no declared row");
      return;
    }
    cov.record(id);
  }

  void dir_remove(unsigned c) {
    st.dir.presence &= std::uint8_t(~(1u << c));
    if (st.dir.dirty != 0 && st.dir.owner == c) {
      st.dir.dirty = 0;
      st.dir.owner = kNoOwner;
    }
  }
  void dir_add(unsigned c) { st.dir.presence |= std::uint8_t(1u << c); }
  void dir_set_exclusive(unsigned c) {
    st.dir.presence = std::uint8_t(1u << c);
    st.dir.dirty = 1;
    st.dir.owner = std::uint8_t(c);
  }
  void dir_clear_dirty() {
    st.dir.dirty = 0;
    st.dir.owner = kNoOwner;
  }
  /// Directory::clear_all_except(keep): drop every bit but keep's.
  void dir_clear_all_except(unsigned keep) {
    std::uint8_t mask = std::uint8_t(st.dir.presence & (1u << keep));
    st.dir.presence = mask;
    if (mask == 0 || st.dir.owner != keep) {
      st.dir.dirty = 0;
      st.dir.owner = kNoOwner;
    }
  }
  void dir_clear_all() {
    st.dir = DirSt{};
  }
  [[nodiscard]] bool dir_is_sharer(unsigned c) const {
    return (st.dir.presence >> c) & 1u;
  }
  /// Presence bits excluding \p except (kMaxCaches = none).
  [[nodiscard]] std::uint8_t dir_targets(unsigned except) const {
    std::uint8_t m = st.dir.presence;
    if (except < kMaxCaches) m &= std::uint8_t(~(1u << except));
    return m;
  }

  std::uint8_t new_version() {
    if (st.latest >= 200) {
      fail("model-bound", "version counter overflow (renormalization bug)");
      return st.latest;
    }
    return ++st.latest;
  }

  // ---- CPU-side actions (the nondeterministic environment) ----

  void do_load_miss(unsigned c) {
    CacheSt& cc = st.c[c];
    if (!mesi && cc.wbuf != 0) {
      cc.pend = Pend::kLoadDrain;  // drain-on-load-miss (SC ordering)
      return;
    }
    cc.pend = Pend::kLoadFill;
    MMsg m;
    m.type = MsgType::kReadShared;
    m.track = 1;
    send(c, bank_id, m);
  }

  void do_store(unsigned c) {
    CacheSt& cc = st.c[c];
    if (!mesi) {
      // Write-through: non-blocking store through the write buffer.
      if (cc.line != LineState::kInvalid) {
        cfsm(c, CacheEvent::kStoreHit);
        cc.cv = kOwnPending;  // patched locally; version known at WriteAck
      }
      ++cc.wbuf;
      if (cc.wsent == 0) {
        cc.wsent = 1;
        MMsg m;
        m.type = MsgType::kWriteWord;
        send(c, bank_id, m);
      }
      return;
    }
    if (cc.line == LineState::kExclusive || cc.line == LineState::kModified) {
      cfsm(c, CacheEvent::kStoreHit);  // silent E->M / M store hit
      cc.cv = new_version();
      return;
    }
    if (cc.line == LineState::kShared) {
      cc.pend = Pend::kUpgrade;
      MMsg m;
      m.type = MsgType::kUpgrade;
      send(c, bank_id, m);
      return;
    }
    cc.pend = Pend::kStoreFill;  // write-allocate
    MMsg m;
    m.type = MsgType::kReadExclusive;
    send(c, bank_id, m);
  }

  void do_atomic(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.line != LineState::kInvalid) cfsm(c, CacheEvent::kAtomicIssue);
    if (cc.wbuf != 0) {
      cc.pend = Pend::kSwapDrain;
      return;
    }
    cc.pend = Pend::kSwap;
    MMsg m;
    m.type = MsgType::kAtomicSwap;
    send(c, bank_id, m);
  }

  void do_evict(unsigned c) {
    cfsm(c, CacheEvent::kEvict);  // silent clean eviction
  }

  void do_evict_dirty(unsigned c) {
    CacheSt& cc = st.c[c];
    cfsm(c, CacheEvent::kEvictDirty);
    cc.wb_entry = 1;
    cc.wb_ver = cc.cv;
    MMsg m;
    m.type = MsgType::kWriteBack;
    m.ver = cc.cv;
    m.has_data = 1;
    send(c, bank_id, m);
  }

  void do_untracked_read() {
    ++st.untracked;
    MMsg m;
    m.type = MsgType::kReadShared;
    m.track = 0;
    send(0, bank_id, m);
  }

  // ---- bank side (bank.cpp) ----

  void bank_request(MsgType type, unsigned src, bool track) {
    if (st.bank.active != 0) {
      if (st.bank.qlen >= kQCap) {
        fail("model-bound", "bank waiting queue exceeded " + std::to_string(kQCap));
        return;
      }
      QEnt& q = st.bank.q[st.bank.qlen++];
      q.type = type;
      q.src = std::uint8_t(src);
      q.track = track ? 1 : 0;
      return;
    }
    start_service(type, src, track);
  }

  void start_service(MsgType type, unsigned src, bool track) {
    BankSt& b = st.bank;
    b.active = 1;
    b.req = type;
    b.src = std::uint8_t(src);
    b.rtrack = track ? 1 : 0;
    switch (type) {
      case MsgType::kReadShared: process_read_shared(); break;
      case MsgType::kReadExclusive: process_read_exclusive(); break;
      case MsgType::kUpgrade: process_upgrade(); break;
      case MsgType::kWriteWord:
      case MsgType::kAtomicSwap: process_write_word(); break;
      default:
        fail("model-internal", "bad queued request");
    }
  }

  void respond(MsgType type, MMsg m) {
    m.type = type;
    m.ack_count = st.bank.direct_acks;
    send(bank_id, st.bank.src, m);
  }

  void complete_txn() {
    BankSt& b = st.bank;
    b.active = 0;
    b.pending_acks = 0;
    b.direct_mode = 0;
    b.direct_acks = 0;
    b.waiting_data = 0;
    b.txn_ver = 0;
    if (b.qlen == 0 || failed) return;
    QEnt next = b.q[0];
    for (unsigned i = 1; i < b.qlen; ++i) b.q[i - 1] = b.q[i];
    --b.qlen;
    start_service(next.type, next.src, next.track != 0);
  }

  void process_read_shared() {
    BankSt& b = st.bank;
    if (b.rtrack != 0 && st.dir.dirty != 0 && st.dir.owner == b.src) {
      // Recorded owner misses: it silently evicted a clean Exclusive copy
      // (a Modified one's write-back precedes this read in FIFO order).
      // Untracked reads say nothing about the owner's dcache copy and must
      // fetch from it instead (mirrors the track guard in bank.cpp).
      DirState before = dstate();
      dir_remove(b.src);
      devent(before, DirEvent::kSharerDrop);
    }
    if (st.dir.dirty != 0) {
      request_fetch(MsgType::kFetch);
      return;
    }
    MMsg resp;
    resp.ver = st.mem_ver;
    resp.track = b.rtrack;
    resp.has_data = 1;
    DirState before = dstate();
    if (b.rtrack == 0) {
      resp.grant = Grant::kShared;  // untracked instruction fetch
    } else if (mesi && st.dir.presence == 0) {
      resp.grant = Grant::kExclusive;
      dir_set_exclusive(b.src);
    } else {
      resp.grant = Grant::kShared;
      dir_add(b.src);
    }
    devent(before, b.rtrack != 0 ? DirEvent::kReadShared : DirEvent::kReadUntracked);
    respond(MsgType::kReadResponse, resp);
    complete_txn();
  }

  void process_read_exclusive() {
    BankSt& b = st.bank;
    if (st.dir.dirty != 0 && st.dir.owner != b.src) {
      request_fetch(MsgType::kFetchInv);
      return;
    }
    if (dir_targets(b.src) != 0) {
      send_invalidations(b.src);
      return;
    }
    on_acks_complete();
  }

  void process_upgrade() {
    BankSt& b = st.bank;
    if (!dir_is_sharer(b.src) && st.dir.dirty != 0 && st.dir.owner != b.src) {
      // The requester lost its copy to a racing owner: full write-allocate.
      request_fetch(MsgType::kFetchInv);
      return;
    }
    if (dir_targets(b.src) != 0) {
      send_invalidations(b.src);
      return;
    }
    on_acks_complete();
  }

  void process_write_word() {
    BankSt& b = st.bank;
    b.txn_ver = new_version();  // this write's serialization slot
    // An atomic invalidates/updates the requester's own copy too (it was
    // dropped locally at issue).
    unsigned except = b.req == MsgType::kWriteWord ? b.src : kMaxCaches;
    if (dir_targets(except) != 0) {
      if (wtu) {
        send_updates(except);
      } else {
        send_invalidations(except);
      }
      return;
    }
    on_acks_complete();
  }

  void send_updates(unsigned except) {
    BankSt& b = st.bank;
    std::uint8_t targets = dir_targets(except);
    b.pending_acks = std::uint8_t(__builtin_popcount(targets));
    for (unsigned c = 0; c < nc; ++c) {
      if (((targets >> c) & 1u) == 0) continue;
      MMsg u;
      u.type = MsgType::kUpdateWord;
      u.ver = b.txn_ver;
      send(bank_id, c, u);
    }
  }

  void send_invalidations(unsigned except) {
    BankSt& b = st.bank;
    std::uint8_t targets = dir_targets(except);
    const bool direct = cfg.direct_ack && (b.req == MsgType::kWriteWord ||
                                           b.req == MsgType::kUpgrade);
    if (direct) {
      b.direct_mode = 1;
      b.direct_acks = std::uint8_t(__builtin_popcount(targets));
    } else {
      b.pending_acks = std::uint8_t(__builtin_popcount(targets));
    }
    for (unsigned c = 0; c < nc; ++c) {
      if (((targets >> c) & 1u) == 0) continue;
      MMsg inv;
      inv.type = MsgType::kInvalidate;
      inv.direct = direct ? 1 : 0;
      inv.requester = b.src;
      send(bank_id, c, inv);
      if (direct) {
        // The ack will bypass the bank: unregister the sharer at send time.
        DirState before = dstate();
        dir_remove(c);
        devent(before, DirEvent::kSharerDrop);
      }
    }
    if (direct) on_acks_complete();  // respond now; block held until TxnDone
  }

  void request_fetch(MsgType fetch_type) {
    BankSt& b = st.bank;
    b.waiting_data = 1;
    b.data_from = st.dir.owner;
    MMsg f;
    f.type = fetch_type;
    send(bank_id, st.dir.owner, f);
  }

  void bank_invalidate_ack(unsigned src) {
    BankSt& b = st.bank;
    if (b.active == 0 || b.pending_acks == 0) {
      fail("model-internal", "stray InvalidateAck at the bank");
      return;
    }
    DirState before = dstate();
    dir_remove(src);
    devent(before, DirEvent::kSharerDrop);
    if (--b.pending_acks == 0) on_acks_complete();
  }

  void bank_update_ack(unsigned src, const MMsg& m) {
    BankSt& b = st.bank;
    if (b.active == 0 || b.pending_acks == 0) {
      fail("model-internal", "stray UpdateAck at the bank");
      return;
    }
    if (m.had_copy == 0) {
      // Stale presence bit: the sharer silently evicted.
      DirState before = dstate();
      dir_remove(src);
      devent(before, DirEvent::kSharerDrop);
    }
    if (--b.pending_acks == 0) on_acks_complete();
  }

  void bank_fetch_response(unsigned src, const MMsg& m) {
    BankSt& b = st.bank;
    if (b.stale_fetch[src] != 0) {
      // Answer to a fetch whose transaction a crossed WriteBack already
      // satisfied (the sim drops this by txn-id mismatch). FIFO delivers it
      // ahead of any genuine response to a newer fetch from this cache.
      --b.stale_fetch[src];
      return;
    }
    if (b.active == 0 || b.waiting_data == 0 || b.data_from != src) {
      return;  // the owner's WriteBack raced ahead; duplicate data dropped
    }
    on_data_arrived(m);
  }

  void bank_write_back(unsigned src, const MMsg& m) {
    BankSt& b = st.bank;
    MMsg ack;
    ack.type = MsgType::kWriteBackAck;
    if (b.active != 0 && b.waiting_data != 0 && b.data_from == src) {
      // The write-back crossed our fetch: accept it as the fetch data. The
      // cache will still answer the fetch itself — expect and discard it.
      ++b.stale_fetch[src];
      send(bank_id, src, ack);
      DirState before = dstate();
      dir_remove(src);
      devent(before, DirEvent::kWriteBack);
      on_data_arrived(m);
      return;
    }
    st.mem_ver = m.ver;
    DirState before = dstate();
    dir_remove(src);
    devent(before, DirEvent::kWriteBack);
    send(bank_id, src, ack);
  }

  void bank_txn_done(unsigned src) {
    if (st.bank.active == 0 || st.bank.direct_mode == 0 || st.bank.src != src) {
      fail("model-internal", "stray TxnDone at the bank");
      return;
    }
    complete_txn();
  }

  void on_data_arrived(const MMsg& data) {
    BankSt& b = st.bank;
    if (data.has_data != 0) st.mem_ver = data.ver;
    // has_data == 0: silently evicted clean Exclusive; memory already current.
    b.waiting_data = 0;
    DirState before = dstate();
    DirEvent ev = DirEvent::kReadShared;
    switch (b.req) {
      case MsgType::kReadShared: {
        dir_clear_dirty();
        if (b.rtrack != 0) dir_add(b.src);
        if (b.rtrack == 0) ev = DirEvent::kReadUntracked;
        MMsg resp;
        resp.grant = Grant::kShared;
        resp.ver = st.mem_ver;
        resp.track = b.rtrack;
        resp.has_data = 1;
        respond(MsgType::kReadResponse, resp);
        break;
      }
      case MsgType::kReadExclusive:
      case MsgType::kUpgrade: {
        dir_clear_all();
        dir_set_exclusive(b.src);
        ev = b.req == MsgType::kReadExclusive ? DirEvent::kReadExclusive
                                              : DirEvent::kUpgrade;
        MMsg resp;
        resp.grant = Grant::kModified;
        resp.track = 1;
        resp.has_data = 1;
        respond(b.req == MsgType::kReadExclusive ? MsgType::kReadResponse
                                                 : MsgType::kUpgradeAck,
                resp);
        break;
      }
      default:
        fail("model-internal", "data arrived for a non-fetching transaction");
        return;
    }
    devent(before, ev);
    complete_txn();
  }

  void on_acks_complete() {
    BankSt& b = st.bank;
    DirState before = dstate();
    DirEvent ev = DirEvent::kReadExclusive;
    switch (b.req) {
      case MsgType::kWriteWord: {
        st.mem_ver = b.txn_ver;
        if (!wtu) dir_clear_all_except(b.src);
        ev = wtu ? DirEvent::kWriteUpdate : DirEvent::kWriteThrough;
        MMsg ack;
        ack.ver = b.txn_ver;
        respond(MsgType::kWriteAck, ack);
        break;
      }
      case MsgType::kAtomicSwap: {
        st.mem_ver = b.txn_ver;
        if (wtu) {
          dir_remove(b.src);
        } else {
          dir_clear_all();
        }
        ev = DirEvent::kAtomic;
        respond(MsgType::kSwapResponse, MMsg{});
        break;
      }
      case MsgType::kReadExclusive: {
        dir_clear_all();
        dir_set_exclusive(b.src);
        MMsg resp;
        resp.grant = Grant::kModified;
        resp.track = 1;
        resp.has_data = 1;
        respond(MsgType::kReadResponse, resp);
        break;
      }
      case MsgType::kUpgrade: {
        const bool lost_copy = !dir_is_sharer(b.src);
        dir_clear_all();
        dir_set_exclusive(b.src);
        ev = DirEvent::kUpgrade;
        MMsg resp;
        resp.grant = Grant::kModified;
        resp.has_data = lost_copy ? 1 : 0;  // re-supply the lost block
        respond(MsgType::kUpgradeAck, resp);
        break;
      }
      default:
        fail("model-internal", "acks completed for a bad transaction");
        return;
    }
    devent(before, ev);
    if (b.direct_mode != 0) return;  // held until the requester's TxnDone
    complete_txn();
  }

  // ---- cache side (wti_controller.cpp / mesi_controller.cpp) ----

  void cache_read_response(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    if (m.track == 0) {
      // Untracked (icache-style) read: consumed without installing.
      if (st.untracked == 0) {
        fail("model-internal", "untracked response with no read in flight");
        return;
      }
      --st.untracked;
      return;
    }
    if (!mesi) {
      if (cc.pend != Pend::kLoadFill) {
        fail("model-internal", "unexpected ReadResponse");
        return;
      }
      cfsm(c, CacheEvent::kFillShared);
      cc.cv = m.ver;
      cc.pend = Pend::kNone;
      return;
    }
    if (cc.pend != Pend::kLoadFill && cc.pend != Pend::kStoreFill) {
      fail("model-internal", "unexpected ReadResponse");
      return;
    }
    switch (m.grant) {
      case Grant::kShared: cfsm(c, CacheEvent::kFillShared); break;
      case Grant::kExclusive: cfsm(c, CacheEvent::kFillExclusive); break;
      case Grant::kModified: cfsm(c, CacheEvent::kFillModified); break;
    }
    cc.cv = m.ver;
    finish_pending(c);
  }

  /// MesiController::finish_pending — the store half (loads finished above).
  void finish_pending(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.pend == Pend::kStoreFill || cc.pend == Pend::kUpgrade) {
      if (cc.line == LineState::kInvalid) {
        cfsm(c, CacheEvent::kFillModified);  // upgrade lost its copy; re-filled
      } else if (cc.line == LineState::kShared) {
        cfsm(c, CacheEvent::kStoreUpgrade);
      } else {
        cfsm(c, CacheEvent::kStoreHit);  // E/M granted by the response
      }
      cc.cv = new_version();
    }
    cc.pend = Pend::kNone;
  }

  void cache_upgrade_ack(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    if (cc.pend != Pend::kUpgrade) {
      fail("model-internal", "unexpected UpgradeAck");
      return;
    }
    if (m.ack_count > 0) {
      cc.have_resp = 1;
      cc.dneed = m.ack_count;
      cc.saved_has_data = m.has_data;
      maybe_finish_direct_upgrade(c);
      return;
    }
    if (m.has_data == 0 && cc.line != LineState::kShared) {
      fail("undeclared-transition",
           "UpgradeAck without data reached a non-Shared line");
      return;
    }
    finish_pending(c);
  }

  void maybe_finish_direct_upgrade(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.have_resp == 0 || cc.dgot < cc.dneed) return;
    MMsg done;
    done.type = MsgType::kTxnDone;
    send(c, bank_id, done);
    if (cc.saved_has_data == 0 && cc.line != LineState::kShared) {
      fail("undeclared-transition",
           "direct UpgradeAck without data reached a non-Shared line");
      return;
    }
    cc.have_resp = 0;
    cc.dneed = 0;
    cc.dgot = 0;
    cc.saved_has_data = 0;
    finish_pending(c);
  }

  void cache_write_ack(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    if (cc.wsent == 0 || cc.wbuf == 0) {
      fail("model-internal", "stray WriteAck");
      return;
    }
    if (m.ack_count > 0) {
      cc.have_resp = 1;
      cc.dneed = m.ack_count;
      cc.saved_ver = m.ver;
      maybe_finish_direct_write(c);
      return;
    }
    pop_write_buffer(c, m.ver);
  }

  void maybe_finish_direct_write(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.have_resp == 0 || cc.dgot < cc.dneed) return;
    MMsg done;
    done.type = MsgType::kTxnDone;
    send(c, bank_id, done);
    std::uint8_t ver = cc.saved_ver;
    cc.have_resp = 0;
    cc.dneed = 0;
    cc.dgot = 0;
    cc.saved_ver = 0;
    pop_write_buffer(c, ver);
  }

  /// WriteAck bookkeeping shared by the plain and §4.2 direct paths: pop
  /// the acknowledged entry, resolve an own-pending copy version once the
  /// buffer empties, then restart the drain or a drained-blocked access.
  void pop_write_buffer(unsigned c, std::uint8_t ver) {
    CacheSt& cc = st.c[c];
    --cc.wbuf;
    cc.wsent = 0;
    if (cc.wbuf == 0 && cc.line != LineState::kInvalid &&
        cc.cv == kOwnPending) {
      cc.cv = ver;  // the copy now holds exactly this write's value
    }
    if (cc.wbuf > 0) {
      cc.wsent = 1;
      MMsg m;
      m.type = MsgType::kWriteWord;
      send(c, bank_id, m);
    } else if (cc.pend == Pend::kLoadDrain) {
      cc.pend = Pend::kLoadFill;
      MMsg m;
      m.type = MsgType::kReadShared;
      m.track = 1;
      send(c, bank_id, m);
    } else if (cc.pend == Pend::kSwapDrain) {
      cc.pend = Pend::kSwap;
      MMsg m;
      m.type = MsgType::kAtomicSwap;
      send(c, bank_id, m);
    }
  }

  void cache_swap_response(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.pend != Pend::kSwap) {
      fail("model-internal", "unexpected SwapResponse");
      return;
    }
    cc.pend = Pend::kNone;
  }

  void cache_invalidate(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    if (cc.line != LineState::kInvalid) {
      if (mesi && cc.line != LineState::kShared) {
        fail("undeclared-transition", "Invalidate reached a non-Shared line");
        return;
      }
      const bool skip = cfg.fault_skip_invalidate && c == cfg.fault_cache &&
                        cc.inv_seen == cfg.fault_after;
      if (cfg.fault_skip_invalidate && c == cfg.fault_cache) ++cc.inv_seen;
      if (skip) {
        st.fault_fired = 1;  // the copy survives; the ack still goes out
      } else {
        cfsm(c, CacheEvent::kInvalidate);
      }
    }
    // Always acknowledge (the directory may hold a stale presence bit);
    // §4.2 rounds acknowledge straight to the requester.
    MMsg ack;
    ack.type = MsgType::kInvalidateAck;
    send(c, m.direct != 0 ? m.requester : bank_id, ack);
  }

  void cache_update(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    MMsg ack;
    ack.type = MsgType::kUpdateAck;
    if (cc.line != LineState::kInvalid) {
      // Patch in place — unless our own still-buffered store covers the
      // word, in which case the bank will serialize ours after this write
      // and patching would go backwards.
      if (cc.wbuf == 0) cc.cv = m.ver;
      cfsm(c, CacheEvent::kUpdate);
      ack.had_copy = 1;
    } else {
      ack.had_copy = 0;  // stale presence bit
    }
    send(c, bank_id, ack);
  }

  void cache_fetch(unsigned c, bool invalidate) {
    CacheSt& cc = st.c[c];
    MMsg resp;
    resp.type = MsgType::kFetchResponse;
    if (cc.line != LineState::kInvalid) {
      if (cc.line != LineState::kModified && cc.line != LineState::kExclusive) {
        fail("undeclared-transition", "Fetch reached a non-owned line");
        return;
      }
      resp.has_data = 1;
      resp.ver = cc.cv;
      cfsm(c, invalidate ? CacheEvent::kFetchInv : CacheEvent::kFetch);
    } else if (cc.wb_entry != 0) {
      // Serve from the write-back buffer; the bank reconciles duplicates.
      resp.has_data = 1;
      resp.ver = cc.wb_ver;
    } else {
      resp.has_data = 0;  // silently evicted clean E; memory is current
    }
    send(c, bank_id, resp);
  }

  void cache_writeback_ack(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.wb_entry == 0) {
      fail("model-internal", "WriteBackAck without a write-back in flight");
      return;
    }
    cc.wb_entry = 0;
    cc.wb_ver = 0;
  }

  void cache_direct_inval_ack(unsigned c) {
    CacheSt& cc = st.c[c];
    const bool wt_round = !mesi && cc.wsent != 0;
    const bool mesi_round = mesi && cc.pend == Pend::kUpgrade;
    if (!wt_round && !mesi_round) {
      fail("model-internal", "direct InvalidateAck with no round open");
      return;
    }
    ++cc.dgot;
    if (mesi_round) {
      maybe_finish_direct_upgrade(c);
    } else {
      maybe_finish_direct_write(c);
    }
  }

  // ---- dispatch ----

  void deliver(unsigned src, unsigned dst) {
    Chan& ch = st.ch[src][dst];
    MMsg m = ch.m[0];
    for (unsigned i = 1; i < ch.n; ++i) ch.m[i - 1] = ch.m[i];
    ch.m[--ch.n] = MMsg{};
    if (dst == bank_id) {
      switch (m.type) {
        case MsgType::kReadShared:
        case MsgType::kReadExclusive:
        case MsgType::kUpgrade:
        case MsgType::kWriteWord:
        case MsgType::kAtomicSwap:
          bank_request(m.type, src, m.track != 0);
          break;
        case MsgType::kWriteBack: bank_write_back(src, m); break;
        case MsgType::kInvalidateAck: bank_invalidate_ack(src); break;
        case MsgType::kUpdateAck: bank_update_ack(src, m); break;
        case MsgType::kFetchResponse: bank_fetch_response(src, m); break;
        case MsgType::kTxnDone: bank_txn_done(src); break;
        default:
          fail("model-internal", std::string("bank received ") +
                                     noc::to_string(m.type));
      }
      return;
    }
    switch (m.type) {
      case MsgType::kReadResponse: cache_read_response(dst, m); break;
      case MsgType::kUpgradeAck: cache_upgrade_ack(dst, m); break;
      case MsgType::kWriteAck: cache_write_ack(dst, m); break;
      case MsgType::kSwapResponse: cache_swap_response(dst); break;
      case MsgType::kInvalidate: cache_invalidate(dst, m); break;
      case MsgType::kUpdateWord: cache_update(dst, m); break;
      case MsgType::kFetch: cache_fetch(dst, false); break;
      case MsgType::kFetchInv: cache_fetch(dst, true); break;
      case MsgType::kWriteBackAck: cache_writeback_ack(dst); break;
      case MsgType::kInvalidateAck: cache_direct_inval_ack(dst); break;
      default:
        fail("model-internal", std::string("cache received ") +
                                   noc::to_string(m.type));
    }
  }

  void apply(const Action& a) {
    switch (a.kind) {
      case Action::Kind::kLoadMiss: do_load_miss(a.cache); break;
      case Action::Kind::kStore: do_store(a.cache); break;
      case Action::Kind::kAtomic: do_atomic(a.cache); break;
      case Action::Kind::kEvict: do_evict(a.cache); break;
      case Action::Kind::kEvictDirty: do_evict_dirty(a.cache); break;
      case Action::Kind::kUntrackedRead: do_untracked_read(); break;
      case Action::Kind::kDeliver: deliver(a.src, a.dst); break;
    }
  }
};

/// Enumerate the actions enabled in \p s (the CPU nondeterminism plus every
/// deliverable channel head).
void enabled_actions(const State& s, const ModelConfig& cfg,
                     std::vector<Action>& out) {
  out.clear();
  const unsigned nc = cfg.num_caches;
  const bool mesi = cfg.protocol == mem::Protocol::kWbMesi;
  for (unsigned c = 0; c < nc; ++c) {
    const CacheSt& cc = s.c[c];
    if (cc.pend == Pend::kNone) {
      if (cc.line == LineState::kInvalid) {
        out.push_back({Action::Kind::kLoadMiss, std::uint8_t(c), 0, 0, 0, 0});
      }
      const bool wbuf_room = mesi || cc.wbuf < cfg.wbuf_depth;
      if (wbuf_room) {
        out.push_back({Action::Kind::kStore, std::uint8_t(c), 0, 0, 0, 0});
      }
      if (!mesi) {
        out.push_back({Action::Kind::kAtomic, std::uint8_t(c), 0, 0, 0, 0});
      }
      if (cc.line == LineState::kShared || cc.line == LineState::kExclusive) {
        out.push_back({Action::Kind::kEvict, std::uint8_t(c), 0, 0, 0, 0});
      }
      if (cc.line == LineState::kModified && cc.wb_entry == 0) {
        out.push_back({Action::Kind::kEvictDirty, std::uint8_t(c), 0, 0, 0, 0});
      }
    }
  }
  if (cfg.untracked_reads && s.untracked == 0) {
    out.push_back({Action::Kind::kUntrackedRead, 0, 0, 0, 0, 0});
  }
  for (unsigned a = 0; a <= nc; ++a) {
    for (unsigned d = 0; d <= nc; ++d) {
      const Chan& ch = s.ch[a][d];
      if (ch.n == 0) continue;
      out.push_back({Action::Kind::kDeliver, 0, std::uint8_t(ch.m[0].type),
                     std::uint8_t(a), std::uint8_t(d), ch.m[0].ver});
    }
  }
}

/// True if a message of type \p t is in flight from the bank to cache \p c.
bool in_flight_to(const State& s, unsigned bank, unsigned c, MsgType t) {
  const Chan& ch = s.ch[bank][c];
  for (unsigned k = 0; k < ch.n; ++k) {
    if (ch.m[k].type == t) return true;
  }
  return false;
}

/// Point-in-time safety invariants. Returns {rule, detail} or {nullptr, ""}.
std::pair<const char*, std::string> check_invariants(const State& s,
                                                     const ModelConfig& cfg) {
  const unsigned nc = cfg.num_caches;
  const unsigned bank = nc;
  const bool mesi = cfg.protocol == mem::Protocol::kWbMesi;

  if (mesi) {
    // Structural SWMR: an owned copy never coexists with any other copy.
    for (unsigned c = 0; c < nc; ++c) {
      if (s.c[c].line != LineState::kExclusive &&
          s.c[c].line != LineState::kModified) {
        continue;
      }
      for (unsigned o = 0; o < nc; ++o) {
        if (o != c && s.c[o].line != LineState::kInvalid) {
          return {"swmr", "cache" + std::to_string(c) + " holds " +
                              proto::to_string(s.c[c].line) + " while cache" +
                              std::to_string(o) + " holds a valid copy"};
        }
      }
      // Directory agreement: an owned line is recorded dirty with the right
      // owner and no foreign presence bit.
      if (s.dir.dirty == 0 || s.dir.owner != c ||
          s.dir.presence != (1u << c)) {
        return {"dir-agreement",
                "cache" + std::to_string(c) + " holds " +
                    proto::to_string(s.c[c].line) +
                    " but the directory does not record it as sole owner"};
      }
      // Data value: the owner's copy carries the last serialized write.
      if (s.c[c].cv != s.latest) {
        return {"data-value", "owner cache" + std::to_string(c) +
                                  " holds " + ver_name(s.c[c].cv) +
                                  " but the latest write is " +
                                  ver_name(s.latest)};
      }
    }
  }

  for (unsigned c = 0; c < nc; ++c) {
    const CacheSt& cc = s.c[c];
    if (cc.line != LineState::kShared) continue;
    // A write-through copy awaiting its own buffered store must still have
    // that store buffered.
    if (cc.cv == kOwnPending) {
      if (cc.wbuf == 0) {
        return {"data-value", "cache" + std::to_string(c) +
                                  " is own-pending with an empty write buffer"};
      }
      continue;
    }
    // SWMR / staleness: a stale copy is only legal while the transaction
    // that wrote is still open (bank busy) or its repair command
    // (Invalidate / UpdateWord) is still on the wire to this cache.
    if (cc.cv < s.latest && s.bank.active == 0 &&
        !in_flight_to(s, bank, c, MsgType::kInvalidate) &&
        !in_flight_to(s, bank, c, MsgType::kUpdateWord)) {
      return {"swmr", "cache" + std::to_string(c) + " holds stale " +
                          ver_name(cc.cv) + " (latest is " +
                          ver_name(s.latest) +
                          ") with no repair in flight — a lost invalidation"};
    }
    // Directory agreement: a valid copy keeps its presence bit unless an
    // invalidation is on the wire (or the open transaction will deliver one).
    if (((s.dir.presence >> c) & 1u) == 0 && s.bank.active == 0 &&
        !in_flight_to(s, bank, c, MsgType::kInvalidate) &&
        !in_flight_to(s, bank, c, MsgType::kFetchInv)) {
      return {"dir-agreement",
              "cache" + std::to_string(c) +
                  " holds a valid copy but its presence bit is clear and no "
                  "invalidation is in flight"};
    }
  }

  // Convergence: at quiescence the system agrees on the last write.
  if (is_quiescent(s, cfg)) {
    if (s.dir.dirty != 0) {
      unsigned o = s.dir.owner;
      if (o >= nc || (s.c[o].line != LineState::kExclusive &&
                      s.c[o].line != LineState::kModified)) {
        // Legal only as a silently-evicted clean Exclusive: memory current.
        if (s.mem_ver != s.latest) {
          return {"data-value",
                  "quiescent with a dirty directory entry, no owner copy and "
                  "stale memory (" + ver_name(s.mem_ver) + " vs " +
                      ver_name(s.latest) + ")"};
        }
      }
    } else if (s.mem_ver != s.latest) {
      return {"data-value", "quiescent but memory holds " +
                                ver_name(s.mem_ver) + " and the last write is " +
                                ver_name(s.latest)};
    }
  }
  return {nullptr, std::string()};
}

const char* protocol_flag(mem::Protocol p) {
  switch (p) {
    case mem::Protocol::kWti: return "wti";
    case mem::Protocol::kWbMesi: return "mesi";
    case mem::Protocol::kWtu: return "wtu";
  }
  return "?";
}

std::string make_fuzz_hint(const ModelConfig& cfg) {
  std::string h = "tools/ccnoc_fuzz --protocol ";
  h += protocol_flag(cfg.protocol);
  h += " --cpus " + std::to_string(cfg.num_caches);
  if (cfg.direct_ack) h += " --direct-ack";
  if (cfg.fault_skip_invalidate) {
    h += " --fault skip-invalidate --fault-after " +
         std::to_string(cfg.fault_after);
  }
  h += " --seeds 200 --minimize";
  return h;
}

}  // namespace

std::string Action::to_string(unsigned num_caches) const {
  switch (kind) {
    case Kind::kLoadMiss:
      return "cache" + std::to_string(cache) + ": load miss";
    case Kind::kStore:
      return "cache" + std::to_string(cache) + ": store";
    case Kind::kAtomic:
      return "cache" + std::to_string(cache) + ": atomic";
    case Kind::kEvict:
      return "cache" + std::to_string(cache) + ": evict clean copy";
    case Kind::kEvictDirty:
      return "cache" + std::to_string(cache) + ": evict dirty copy";
    case Kind::kUntrackedRead:
      return "cache0: untracked read";
    case Kind::kDeliver:
      return std::string("deliver ") + noc::to_string(MsgType(msg_type)) +
             " " + node_name(src, num_caches) + " -> " +
             node_name(dst, num_caches);
  }
  return "?";
}

struct ModelChecker::Impl {
  ModelConfig cfg;
  const proto::ProtocolTable& tbl;
  ModelResult result;
  bool ran = false;

  // Explored graph. Keys live in the node-based map, so the pointers in
  // `keys` stay valid as it grows; ids are BFS discovery order.
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<const std::string*> keys;
  std::vector<std::uint32_t> parent;
  std::vector<Action> pact;
  std::vector<std::uint8_t> quies;
  std::vector<std::uint32_t> efrom;
  std::vector<std::uint32_t> eto;
  std::vector<Action> eact;

  explicit Impl(ModelConfig c) : cfg(c), tbl(proto::table_for(c.protocol)) {
    cfg.num_caches = std::clamp(cfg.num_caches, 2u, kMaxCaches);
    cfg.wbuf_depth = std::clamp(cfg.wbuf_depth, 1u, 3u);
    cfg.fault_cache = std::min(cfg.fault_cache, cfg.num_caches - 1);
  }

  std::uint32_t intern(const std::string& key, bool* fresh) {
    auto [it, inserted] = ids.emplace(key, std::uint32_t(keys.size()));
    *fresh = inserted;
    if (inserted) keys.push_back(&it->first);
    return it->second;
  }

  std::vector<std::string> trace_to(std::uint32_t id) const {
    std::vector<std::string> out;
    for (std::uint32_t at = id; at != 0; at = parent[at]) {
      out.push_back(pact[at].to_string(cfg.num_caches));
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  void add_violation(const char* rule, std::string detail,
                     std::vector<std::string> trace, const State& where) {
    Violation v;
    v.rule = rule;
    v.detail = std::move(detail);
    v.trace = std::move(trace);
    v.state_dump = dump_state(where, cfg);
    v.fuzz_hint = make_fuzz_hint(cfg);
    result.violations.push_back(std::move(v));
  }

  void run() {
    if (ran) return;
    ran = true;
    const auto t0 = std::chrono::steady_clock::now();

    State init;
    init.dir.owner = kNoOwner;
    canonicalize(init, cfg);
    bool fresh = false;
    intern(encode(init, cfg), &fresh);
    parent.push_back(0);
    pact.push_back(Action{});
    quies.push_back(1);

    std::vector<Action> actions;
    bool capped = false;
    bool stopped = false;
    for (std::uint32_t cur = 0; cur < keys.size() && !stopped; ++cur) {
      const State s = decode(*keys[cur], cfg);
      enabled_actions(s, cfg, actions);
      for (const Action& a : actions) {
        Stepper stp(cfg, tbl, result.covered, s);
        stp.apply(a);
        ++result.edges;
        if (stp.failed) {
          auto trace = trace_to(cur);
          trace.push_back(a.to_string(cfg.num_caches) + "  <-- fails here");
          add_violation(stp.frule.c_str(), stp.fdetail, std::move(trace), s);
          stopped = true;
          break;
        }
        canonicalize(stp.st, cfg);
        bool is_new = false;
        std::uint32_t id = intern(encode(stp.st, cfg), &is_new);
        efrom.push_back(cur);
        eto.push_back(id);
        eact.push_back(a);
        if (!is_new) continue;
        parent.push_back(cur);
        pact.push_back(a);
        quies.push_back(is_quiescent(stp.st, cfg) ? 1 : 0);
        auto [rule, detail] = check_invariants(stp.st, cfg);
        if (rule != nullptr) {
          add_violation(rule, std::move(detail), trace_to(id), stp.st);
          stopped = true;
          break;
        }
        if (keys.size() >= cfg.max_states) {
          capped = true;
          stopped = true;
          break;
        }
      }
    }

    result.states = keys.size();
    result.closed = !capped && result.violations.empty();
    for (int id = tbl.base_id(); id < tbl.base_id() + tbl.row_count(); ++id) {
      if (!result.covered.covered(id)) result.dead_rows.push_back(id);
    }
    if (result.closed) check_deadlock();
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

  /// Deadlock freedom: every reachable state must be able to reach a
  /// quiescent state. Reverse BFS from the quiescent set; a state it never
  /// reaches can only move away from completion forever.
  void check_deadlock() {
    const std::size_t n = keys.size();
    std::vector<std::uint32_t> off(n + 1, 0);
    for (std::uint32_t to : eto) ++off[to + 1];
    for (std::size_t i = 1; i <= n; ++i) off[i] += off[i - 1];
    std::vector<std::uint32_t> radj(eto.size());
    {
      std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
      for (std::size_t e = 0; e < eto.size(); ++e) {
        radj[cursor[eto[e]]++] = efrom[e];
      }
    }
    std::vector<std::uint8_t> can_finish(n, 0);
    std::vector<std::uint32_t> stack;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (quies[i] != 0) {
        can_finish[i] = 1;
        stack.push_back(i);
      }
    }
    while (!stack.empty()) {
      std::uint32_t v = stack.back();
      stack.pop_back();
      for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
        std::uint32_t u = radj[e];
        if (can_finish[u] == 0) {
          can_finish[u] = 1;
          stack.push_back(u);
        }
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (can_finish[i] != 0) continue;
      add_violation("deadlock",
                    "state s" + std::to_string(i) +
                        " can never reach a quiescent state again",
                    trace_to(i), decode(*keys[i], cfg));
      return;  // one witness suffices
    }
  }

  [[nodiscard]] std::string to_dot(std::size_t node_limit) const {
    std::ostringstream os;
    os << "// ccnoc_model: " << mem::to_string(cfg.protocol) << ", "
       << cfg.num_caches << " caches, " << keys.size() << " states, "
       << efrom.size() << " edges\n";
    os << "digraph protocol {\n  rankdir=LR;\n"
       << "  node [shape=circle, fontsize=9, width=0.35];\n";
    const std::size_t shown = std::min(node_limit, keys.size());
    if (shown < keys.size()) {
      os << "  // truncated to the first " << shown
         << " states in BFS order\n";
    }
    for (std::size_t i = 0; i < shown; ++i) {
      os << "  s" << i;
      if (quies[i] != 0) os << " [peripheries=2]";
      if (i == 0) os << " [style=filled, fillcolor=lightgrey]";
      os << ";\n";
    }
    for (std::size_t e = 0; e < efrom.size(); ++e) {
      if (efrom[e] >= shown || eto[e] >= shown) continue;
      os << "  s" << efrom[e] << " -> s" << eto[e] << " [label=\""
         << json_escape(eact[e].to_string(cfg.num_caches)) << "\", fontsize=8];\n";
    }
    os << "}\n";
    return os.str();
  }
};

ModelChecker::ModelChecker(ModelConfig cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}
ModelChecker::~ModelChecker() = default;
ModelChecker::ModelChecker(ModelChecker&&) noexcept = default;
ModelChecker& ModelChecker::operator=(ModelChecker&&) noexcept = default;

ModelResult ModelChecker::run() {
  impl_->run();
  return impl_->result;
}

std::string ModelChecker::to_dot(std::size_t node_limit) const {
  return impl_->to_dot(node_limit);
}

std::string to_json(const ModelConfig& cfg, const ModelResult& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"protocol\": \"" << protocol_flag(cfg.protocol) << "\",\n";
  os << "  \"num_caches\": " << cfg.num_caches << ",\n";
  os << "  \"wbuf_depth\": " << cfg.wbuf_depth << ",\n";
  os << "  \"direct_ack\": " << (cfg.direct_ack ? "true" : "false") << ",\n";
  os << "  \"untracked_reads\": " << (cfg.untracked_reads ? "true" : "false")
     << ",\n";
  os << "  \"fault_skip_invalidate\": "
     << (cfg.fault_skip_invalidate ? "true" : "false") << ",\n";
  os << "  \"closed\": " << (r.closed ? "true" : "false") << ",\n";
  os << "  \"states\": " << r.states << ",\n";
  os << "  \"edges\": " << r.edges << ",\n";
  os << "  \"wall_ms\": " << r.wall_ms << ",\n";
  os << "  \"ok\": " << (r.ok() ? "true" : "false") << ",\n";
  os << "  \"covered_rows\": [";
  bool first = true;
  for (int id : r.covered.rows()) {
    os << (first ? "" : ", ") << id;
    first = false;
  }
  os << "],\n";
  os << "  \"dead_rows\": [";
  first = true;
  for (int id : r.dead_rows) {
    os << (first ? "" : ",") << "\n    {\"id\": " << id << ", \"name\": \""
       << json_escape(proto::row_name(id)) << "\"}";
    first = false;
  }
  os << (r.dead_rows.empty() ? "" : "\n  ") << "],\n";
  os << "  \"violations\": [";
  first = true;
  for (const Violation& v : r.violations) {
    os << (first ? "" : ",") << "\n    {\n";
    os << "      \"rule\": \"" << json_escape(v.rule) << "\",\n";
    os << "      \"detail\": \"" << json_escape(v.detail) << "\",\n";
    os << "      \"trace\": [";
    bool tf = true;
    for (const std::string& step : v.trace) {
      os << (tf ? "" : ", ") << "\"" << json_escape(step) << "\"";
      tf = false;
    }
    os << "],\n";
    os << "      \"state\": \"" << json_escape(v.state_dump) << "\",\n";
    os << "      \"fuzz_hint\": \"" << json_escape(v.fuzz_hint) << "\"\n";
    os << "    }";
    first = false;
  }
  os << (r.violations.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace ccnoc::verify
