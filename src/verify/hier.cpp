#include "verify/hier.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_map>

#include "noc/message.hpp"
#include "sim/jsonv.hpp"

/// \file hier.cpp
/// The two-tier abstract machine (see hier.hpp). Node ids: L1 caches
/// 0..n-1, the L2 bank at n, the memory bank at n+1. Timing is erased but
/// message-level structure mirrors l2_bank.cpp / bank.cpp / the controllers
/// decision-for-decision, including the recall races (an owner's WriteBack
/// crossing the recall's FetchInv, requests queuing behind a fill or recall
/// and forcing a refill once the victim is gone). Data values are abstract
/// write versions renormalized after every step, exactly as model.cpp does.

namespace ccnoc::verify {

using noc::Grant;
using noc::MsgType;
using proto::CacheEvent;
using proto::DirEvent;
using proto::DirState;
using proto::LineState;
using sim::json_escape;

namespace {

constexpr unsigned kMaxL1 = 3;
constexpr unsigned kMaxNodes = kMaxL1 + 2;  // + the L2 bank + the memory bank
constexpr unsigned kChanDepth = 5;          // per-(src,dst) FIFO bound
constexpr unsigned kQCap = 8;               // L2 waiting-queue bound
constexpr std::uint8_t kNoOwner = 0xFE;
/// See model.cpp: a write-through copy patched in place, its version unknown
/// until its own buffered write serializes.
constexpr std::uint8_t kOwnPending = 0xFF;

/// L1-side pending-access states (the controllers' Pending enums).
enum class Pend : std::uint8_t {
  kNone,
  kLoadDrain,
  kLoadFill,
  kStoreFill,
  kUpgrade,
  kSwapDrain,
  kSwap,
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

struct MMsg {
  MsgType type = MsgType::kReadShared;
  std::uint8_t ver = 0;       ///< data version carried (data-bearing types)
  std::uint8_t track = 0;     ///< kReadShared/kReadResponse
  std::uint8_t had_copy = 0;  ///< kUpdateAck
  std::uint8_t has_data = 0;  ///< kFetchResponse/kUpgradeAck/kWriteBack
  Grant grant = Grant::kShared;
};

struct Chan {
  std::uint8_t n = 0;
  MMsg m[kChanDepth];
};

struct CacheSt {
  LineState line = LineState::kInvalid;
  std::uint8_t cv = 0;
  Pend pend = Pend::kNone;
  std::uint8_t wbuf = 0;   ///< WT: buffered stores
  std::uint8_t wsent = 0;  ///< WT: head entry's WriteWord in flight
  std::uint8_t wb_entry = 0;  ///< MESI write-back buffer
  std::uint8_t wb_ver = 0;
};

struct QEnt {
  MsgType type = MsgType::kReadShared;
  std::uint8_t src = 0;
  std::uint8_t track = 0;
};

/// The L2 bank: the flat home engine (service state, L1-facing directory)
/// plus the data-array machinery (line state, fill, recall).
struct L2St {
  // Transaction engine (mem::Bank), minus the unmodeled direct-ack mode.
  std::uint8_t active = 0;
  MsgType req = MsgType::kReadShared;
  std::uint8_t src = 0;
  std::uint8_t rtrack = 0;
  std::uint8_t pending_acks = 0;
  std::uint8_t waiting_data = 0;
  std::uint8_t data_from = 0;
  std::uint8_t txn_ver = 0;
  /// Dangling FetchResponses to discard per L1 (WriteBack crossed a Fetch /
  /// the recall's FetchInv; the sim drops them by txn-id mismatch).
  std::uint8_t stale_fetch[kMaxL1] = {};
  std::uint8_t qlen = 0;
  QEnt q[kQCap];
  // L1-facing full-map directory entry.
  std::uint8_t presence = 0;
  std::uint8_t ddirty = 0;
  std::uint8_t downer = kNoOwner;
  // Data array: the line's own FSM (kInvalid = not resident) and the
  // version its storage holds.
  LineState line = LineState::kInvalid;
  std::uint8_t ver = 0;
  // Fill / recall in flight (each holds the block's txn slot in the sim).
  std::uint8_t fill = 0;     ///< ReadShared sent to memory, response pending
  std::uint8_t r_active = 0;
  std::uint8_t r_acks = 0;   ///< recall Invalidate flavour: acks outstanding
  std::uint8_t r_fetch = 0;  ///< recall FetchInv flavour: data outstanding
  std::uint8_t r_owner = 0;
};

/// The memory tier: a flat MESI engine whose only client is the L2, so its
/// directory entry degenerates to "is the L2 registered as dirty owner".
/// Requests never queue or fetch (the owner IS the requester; a stale
/// registration self-corrects through the kSharerDrop track guard).
struct MemSt {
  std::uint8_t dirty_owner = 0;
  std::uint8_t ver = 0;
};

struct State {
  CacheSt c[kMaxL1];
  L2St l2;
  MemSt mem;
  std::uint8_t latest = 0;     ///< version of the last serialized write
  std::uint8_t untracked = 0;  ///< untracked (icache-style) reads in flight
  Chan ch[kMaxNodes][kMaxNodes];
};

std::string node_name(unsigned n, unsigned num_l1) {
  if (n < num_l1) return "cache" + std::to_string(n);
  return n == num_l1 ? "l2" : "mem";
}

/// One edge label (local to the hier model: the flat Action enum has no
/// L2-eviction kind and its node naming has no memory tier).
struct HAct {
  enum class Kind : std::uint8_t {
    kLoadMiss,
    kStore,
    kAtomic,
    kEvict,
    kEvictDirty,
    kUntrackedRead,
    kL2Evict,  ///< capacity pressure: a foreign fill recalls this block
    kDeliver,
  };
  Kind kind = Kind::kDeliver;
  std::uint8_t cache = 0;
  std::uint8_t msg_type = 0;
  std::uint8_t src = 0;
  std::uint8_t dst = 0;

  [[nodiscard]] std::string to_string(unsigned num_l1) const {
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
      case Kind::kL2Evict:
        return "l2: capacity eviction (recall)";
      case Kind::kDeliver:
        return std::string("deliver ") + noc::to_string(MsgType(msg_type)) +
               " " + node_name(src, num_l1) + " -> " + node_name(dst, num_l1);
    }
    return "?";
  }
};

/// Zero the fields a message's type does not use (model.cpp's canon_msg,
/// minus the unmodeled direct-ack payload).
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
      out.ver = m.grant == Grant::kModified ? std::uint8_t(0) : m.ver;
      out.has_data = 1;
      break;
    case MsgType::kUpgradeAck:
      out.has_data = m.has_data;
      break;
    case MsgType::kWriteAck:
      out.ver = m.ver;
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
    default:  // requests, Invalidate, Fetch/FetchInv, acks
      break;
  }
  m = out;
}

/// Canonicalize: zero dead fields, then remap every live version through an
/// order-preserving dense renumbering (kOwnPending is a sentinel, kept).
void canonicalize(State& s, const HierConfig& cfg) {
  const unsigned nc = cfg.num_l1;
  const unsigned nodes = nc + 2;

  for (unsigned i = nc; i < kMaxL1; ++i) s.c[i] = CacheSt{};
  for (unsigned i = 0; i < nc; ++i) {
    CacheSt& c = s.c[i];
    if (c.line == LineState::kInvalid) c.cv = 0;
    if (c.wb_entry == 0) c.wb_ver = 0;
  }
  L2St& b = s.l2;
  if (b.active == 0) {
    b.req = MsgType::kReadShared;
    b.src = b.rtrack = b.pending_acks = 0;
    b.waiting_data = b.data_from = b.txn_ver = 0;
  } else {
    if (b.waiting_data == 0) b.data_from = 0;
    if (b.req != MsgType::kWriteWord && b.req != MsgType::kAtomicSwap) {
      b.txn_ver = 0;
    }
  }
  for (unsigned i = b.qlen; i < kQCap; ++i) b.q[i] = QEnt{};
  if (b.ddirty == 0) b.downer = kNoOwner;
  if (b.line == LineState::kInvalid) b.ver = 0;
  if (b.r_active == 0) {
    b.r_acks = b.r_fetch = 0;
    b.r_owner = 0;
  } else if (b.r_fetch == 0) {
    b.r_owner = 0;
  }

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

  // Version renormalization (model.cpp's scheme, plus the L2 storage slot).
  std::uint8_t* fields[64];
  unsigned nf = 0;
  auto live = [&](std::uint8_t& v) { fields[nf++] = &v; };
  live(s.mem.ver);
  live(s.latest);
  if (b.line != LineState::kInvalid) live(b.ver);
  if (b.active != 0 &&
      (b.req == MsgType::kWriteWord || b.req == MsgType::kAtomicSwap)) {
    live(b.txn_ver);
  }
  for (unsigned i = 0; i < nc; ++i) {
    CacheSt& c = s.c[i];
    if (c.line != LineState::kInvalid && c.cv != kOwnPending) live(c.cv);
    if (c.wb_entry != 0) live(c.wb_ver);
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
    *fields[i] =
        std::uint8_t(std::lower_bound(vals, vals + nv, *fields[i]) - vals);
  }
}

void put(std::string& out, std::uint8_t v) { out.push_back(char(v)); }

std::string encode(const State& s, const HierConfig& cfg) {
  const unsigned nc = cfg.num_l1;
  const unsigned nodes = nc + 2;
  std::string out;
  out.reserve(80);
  for (unsigned i = 0; i < nc; ++i) {
    const CacheSt& c = s.c[i];
    put(out, std::uint8_t(c.line));
    put(out, c.cv);
    put(out, std::uint8_t(c.pend));
    put(out, c.wbuf);
    put(out, c.wsent);
    put(out, c.wb_entry);
    put(out, c.wb_ver);
  }
  const L2St& b = s.l2;
  put(out, b.active);
  put(out, std::uint8_t(b.req));
  put(out, b.src);
  put(out, b.rtrack);
  put(out, b.pending_acks);
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
  put(out, b.presence);
  put(out, b.ddirty);
  put(out, b.downer);
  put(out, std::uint8_t(b.line));
  put(out, b.ver);
  put(out, b.fill);
  put(out, b.r_active);
  put(out, b.r_acks);
  put(out, b.r_fetch);
  put(out, b.r_owner);
  put(out, s.mem.dirty_owner);
  put(out, s.mem.ver);
  put(out, s.latest);
  put(out, s.untracked);
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
        put(out, m.had_copy);
        put(out, m.has_data);
        put(out, std::uint8_t(m.grant));
      }
    }
  }
  return out;
}

State decode(const std::string& k, const HierConfig& cfg) {
  const unsigned nc = cfg.num_l1;
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
  }
  L2St& b = s.l2;
  b.active = get();
  b.req = MsgType(get());
  b.src = get();
  b.rtrack = get();
  b.pending_acks = get();
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
  b.presence = get();
  b.ddirty = get();
  b.downer = get();
  b.line = LineState(get());
  b.ver = get();
  b.fill = get();
  b.r_active = get();
  b.r_acks = get();
  b.r_fetch = get();
  b.r_owner = get();
  s.mem.dirty_owner = get();
  s.mem.ver = get();
  s.latest = get();
  s.untracked = get();
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
      m.had_copy = get();
      m.has_data = get();
      m.grant = Grant(get());
    }
  }
  return s;
}

std::string ver_name(std::uint8_t v) {
  if (v == kOwnPending) return "own-pending";
  return "v" + std::to_string(v);
}

std::string dump_state(const State& s, const HierConfig& cfg) {
  const unsigned nc = cfg.num_l1;
  std::ostringstream os;
  os << "  mem=" << ver_name(s.mem.ver)
     << (s.mem.dirty_owner != 0 ? " (l2 registered owner)" : "")
     << " latest=" << ver_name(s.latest) << "\n";
  const L2St& b = s.l2;
  os << "  l2: line=" << proto::to_string(b.line);
  if (b.line != LineState::kInvalid) os << "(" << ver_name(b.ver) << ")";
  os << " dir={presence=";
  for (unsigned i = 0; i < nc; ++i) os << ((b.presence >> i) & 1u);
  os << (b.ddirty != 0 ? " dirty" : " clean");
  if (b.downer != kNoOwner) os << " owner=cache" << unsigned(b.downer);
  os << "}";
  if (b.fill != 0) os << " filling";
  if (b.r_active != 0) {
    os << " recall(";
    if (b.r_fetch != 0) {
      os << "fetching<-cache" << unsigned(b.r_owner);
    } else {
      os << "acks=" << unsigned(b.r_acks);
    }
    os << ")";
  }
  if (b.active != 0) {
    os << " serving " << noc::to_string(b.req) << " from cache"
       << unsigned(b.src);
    if (b.pending_acks != 0) os << " acks=" << unsigned(b.pending_acks);
    if (b.waiting_data != 0) os << " fetching<-cache" << unsigned(b.data_from);
  }
  if (b.qlen != 0) os << " queued=" << unsigned(b.qlen);
  os << "\n";
  for (unsigned i = 0; i < nc; ++i) {
    const CacheSt& c = s.c[i];
    os << "  cache" << i << ": " << proto::to_string(c.line);
    if (c.line != LineState::kInvalid) os << "(" << ver_name(c.cv) << ")";
    if (c.pend != Pend::kNone) os << " pend=" << to_string(c.pend);
    if (c.wbuf != 0) {
      os << " wbuf=" << unsigned(c.wbuf) << (c.wsent != 0 ? "*" : "");
    }
    if (c.wb_entry != 0) os << " wb(" << ver_name(c.wb_ver) << ")";
    os << "\n";
  }
  for (unsigned a = 0; a < nc + 2; ++a) {
    for (unsigned d = 0; d < nc + 2; ++d) {
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

/// Quiescent: nothing in flight at either tier.
bool is_quiescent(const State& s, const HierConfig& cfg) {
  const unsigned nc = cfg.num_l1;
  const L2St& b = s.l2;
  if (b.active != 0 || b.qlen != 0 || b.fill != 0 || b.r_active != 0 ||
      s.untracked != 0) {
    return false;
  }
  for (unsigned i = 0; i < nc; ++i) {
    const CacheSt& c = s.c[i];
    if (c.pend != Pend::kNone || c.wbuf != 0 || c.wsent != 0 ||
        c.wb_entry != 0 || b.stale_fetch[i] != 0) {
      return false;
    }
  }
  for (unsigned a = 0; a < nc + 2; ++a) {
    for (unsigned d = 0; d < nc + 2; ++d) {
      if (s.ch[a][d].n != 0) return false;
    }
  }
  return true;
}

/// Applies one action to a copy of a state, mirroring l2_bank.cpp /
/// bank.cpp / the L1 controllers. Every FSM move resolves through the flat
/// table with the L2 extension table as fallback — the sim's exact lookup —
/// and an undeclared move is a divergence failure.
struct Stepper {
  const HierConfig& cfg;
  const proto::ProtocolTable& tbl;   ///< flat table of the platform protocol
  const proto::ProtocolTable& xtbl;  ///< its L2 extension table
  const proto::ProtocolTable& mtbl;  ///< flat MESI (the memory tier's engine)
  proto::CoverageSet& cov;
  State st;
  bool failed = false;
  std::string frule;
  std::string fdetail;

  unsigned nc;
  std::uint8_t l2_id;
  std::uint8_t mem_id;
  bool mesi;
  bool wtu;

  Stepper(const HierConfig& c, proto::CoverageSet& cv, const State& s)
      : cfg(c),
        tbl(proto::table_for(c.protocol)),
        xtbl(proto::l2_table_for(c.protocol)),
        mtbl(proto::table_for(mem::Protocol::kWbMesi)),
        cov(cv),
        st(s),
        nc(c.num_l1),
        l2_id(std::uint8_t(c.num_l1)),
        mem_id(std::uint8_t(c.num_l1 + 1)),
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

  /// L1 cache-line event: flat table first, extension fallback (the WTU L1
  /// facet of a back-invalidation lives only in the extension table).
  void cfsm(unsigned c, CacheEvent ev) {
    int id = tbl.find_cache(st.c[c].line, ev);
    const proto::ProtocolTable* hit = &tbl;
    if (id < 0) {
      id = xtbl.find_cache(st.c[c].line, ev);
      hit = &xtbl;
    }
    if (id < 0) {
      fail("undeclared-transition",
           std::string(mem::to_string(cfg.protocol)) + " cache: " +
               proto::to_string(st.c[c].line) + " --" + proto::to_string(ev) +
               "--> has no declared row (cache" + std::to_string(c) + ")");
      return;
    }
    cov.record(id);
    st.c[c].line = hit->cache_to(id);
  }

  /// L2 line event (the bank's own FSM against the memory tier): same
  /// flat-first lookup l2_bank.cpp uses, so MESI's L2 rows credit the flat
  /// MESI table and WTI/WTU's credit their extension tables.
  void l2fsm(CacheEvent ev) {
    int id = tbl.find_cache(st.l2.line, ev);
    const proto::ProtocolTable* hit = &tbl;
    if (id < 0) {
      id = xtbl.find_cache(st.l2.line, ev);
      hit = &xtbl;
    }
    if (id < 0) {
      fail("undeclared-transition",
           std::string(mem::to_string(cfg.protocol)) + " L2 line: " +
               proto::to_string(st.l2.line) + " --" + proto::to_string(ev) +
               "--> has no declared row");
      return;
    }
    cov.record(id);
    st.l2.line = hit->cache_to(id);
  }

  /// Any transaction-path write into L2 storage leaves the copy newer than
  /// DRAM (L2Bank::on_storage_write): the line dirties to Modified.
  void l2_storage_write(std::uint8_t ver) {
    st.l2.ver = ver;
    l2fsm(CacheEvent::kStoreHit);
  }

  // ---- the L2's L1-facing directory (Directory's exact semantics) ----

  [[nodiscard]] DirState dstate() const {
    return proto::dir_state(st.l2.presence != 0, st.l2.ddirty != 0);
  }

  void devent(DirState before, DirEvent ev) {
    int id = tbl.find_dir(before, ev, dstate());
    if (id < 0) id = xtbl.find_dir(before, ev, dstate());
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
    st.l2.presence &= std::uint8_t(~(1u << c));
    if (st.l2.ddirty != 0 && st.l2.downer == c) {
      st.l2.ddirty = 0;
      st.l2.downer = kNoOwner;
    }
  }
  void dir_add(unsigned c) { st.l2.presence |= std::uint8_t(1u << c); }
  void dir_set_exclusive(unsigned c) {
    st.l2.presence = std::uint8_t(1u << c);
    st.l2.ddirty = 1;
    st.l2.downer = std::uint8_t(c);
  }
  void dir_clear_dirty() {
    st.l2.ddirty = 0;
    st.l2.downer = kNoOwner;
  }
  void dir_clear_all() {
    st.l2.presence = 0;
    st.l2.ddirty = 0;
    st.l2.downer = kNoOwner;
  }
  [[nodiscard]] bool dir_is_sharer(unsigned c) const {
    return (st.l2.presence >> c) & 1u;
  }
  [[nodiscard]] std::uint8_t dir_targets(unsigned except) const {
    std::uint8_t m = st.l2.presence;
    if (except < kMaxL1) m &= std::uint8_t(~(1u << except));
    return m;
  }

  std::uint8_t new_version() {
    if (st.latest >= 200) {
      fail("model-bound", "version counter overflow (renormalization bug)");
      return st.latest;
    }
    return ++st.latest;
  }

  // ---- CPU-side actions (the flat model's environment, aimed at the L2) --

  void do_load_miss(unsigned c) {
    CacheSt& cc = st.c[c];
    if (!mesi && cc.wbuf != 0) {
      cc.pend = Pend::kLoadDrain;
      return;
    }
    cc.pend = Pend::kLoadFill;
    MMsg m;
    m.type = MsgType::kReadShared;
    m.track = 1;
    send(c, l2_id, m);
  }

  void do_store(unsigned c) {
    CacheSt& cc = st.c[c];
    if (!mesi) {
      if (cc.line != LineState::kInvalid) {
        cfsm(c, CacheEvent::kStoreHit);
        cc.cv = kOwnPending;
      }
      ++cc.wbuf;
      if (cc.wsent == 0) {
        cc.wsent = 1;
        MMsg m;
        m.type = MsgType::kWriteWord;
        send(c, l2_id, m);
      }
      return;
    }
    if (cc.line == LineState::kExclusive || cc.line == LineState::kModified) {
      cfsm(c, CacheEvent::kStoreHit);
      cc.cv = new_version();
      return;
    }
    if (cc.line == LineState::kShared) {
      cc.pend = Pend::kUpgrade;
      MMsg m;
      m.type = MsgType::kUpgrade;
      send(c, l2_id, m);
      return;
    }
    cc.pend = Pend::kStoreFill;
    MMsg m;
    m.type = MsgType::kReadExclusive;
    send(c, l2_id, m);
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
    send(c, l2_id, m);
  }

  void do_evict(unsigned c) { cfsm(c, CacheEvent::kEvict); }

  void do_evict_dirty(unsigned c) {
    CacheSt& cc = st.c[c];
    cfsm(c, CacheEvent::kEvictDirty);
    cc.wb_entry = 1;
    cc.wb_ver = cc.cv;
    MMsg m;
    m.type = MsgType::kWriteBack;
    m.ver = cc.cv;
    m.has_data = 1;
    send(c, l2_id, m);
  }

  void do_untracked_read() {
    ++st.untracked;
    MMsg m;
    m.type = MsgType::kReadShared;
    m.track = 0;
    send(0, l2_id, m);
  }

  // ---- L2 bank: the flat home engine over a finite data array ----

  [[nodiscard]] bool l2_busy() const {
    return st.l2.active != 0 || st.l2.fill != 0 || st.l2.r_active != 0;
  }

  /// L2Bank::deliver for requests: a non-resident, unlocked block opens a
  /// fill; the request then queues behind the fill's (or any open) txn slot.
  void bank_request(MsgType type, unsigned src, bool track) {
    if (l2_busy()) {
      enqueue(type, src, track);
      return;
    }
    if (st.l2.line == LineState::kInvalid) {
      start_fill();
      enqueue(type, src, track);
      return;
    }
    start_service(type, src, track);
  }

  void enqueue(MsgType type, unsigned src, bool track) {
    L2St& b = st.l2;
    if (b.qlen >= kQCap) {
      fail("model-bound",
           "L2 waiting queue exceeded " + std::to_string(kQCap));
      return;
    }
    QEnt& q = b.q[b.qlen++];
    q.type = type;
    q.src = std::uint8_t(src);
    q.track = track ? 1 : 0;
  }

  void start_service(MsgType type, unsigned src, bool track) {
    L2St& b = st.l2;
    if (b.line == LineState::kInvalid) {
      fail("model-internal", "L2 service started on a non-resident line");
      return;
    }
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
    send(l2_id, st.l2.src, m);
  }

  /// L2Bank::complete_txn: if the line is gone (a recall evicted it) while
  /// requests are queued, refill before serving them; otherwise dequeue.
  void complete_txn() {
    L2St& b = st.l2;
    b.active = 0;
    b.pending_acks = 0;
    b.waiting_data = 0;
    b.txn_ver = 0;
    if (failed) return;
    if (b.line == LineState::kInvalid && b.qlen != 0) {
      start_fill();
      return;
    }
    if (b.qlen == 0) return;
    QEnt next = b.q[0];
    for (unsigned i = 1; i < b.qlen; ++i) b.q[i - 1] = b.q[i];
    --b.qlen;
    start_service(next.type, next.src, next.track != 0);
  }

  void process_read_shared() {
    L2St& b = st.l2;
    if (b.rtrack != 0 && b.ddirty != 0 && b.downer == b.src) {
      DirState before = dstate();
      dir_remove(b.src);
      devent(before, DirEvent::kSharerDrop);
    }
    if (b.ddirty != 0) {
      request_fetch(MsgType::kFetch);
      return;
    }
    MMsg resp;
    resp.ver = b.ver;
    resp.track = b.rtrack;
    resp.has_data = 1;
    DirState before = dstate();
    if (b.rtrack == 0) {
      resp.grant = Grant::kShared;
    } else if (mesi && b.presence == 0) {
      resp.grant = Grant::kExclusive;
      dir_set_exclusive(b.src);
    } else {
      resp.grant = Grant::kShared;
      dir_add(b.src);
    }
    devent(before,
           b.rtrack != 0 ? DirEvent::kReadShared : DirEvent::kReadUntracked);
    respond(MsgType::kReadResponse, resp);
    complete_txn();
  }

  void process_read_exclusive() {
    L2St& b = st.l2;
    if (b.ddirty != 0 && b.downer != b.src) {
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
    L2St& b = st.l2;
    if (!dir_is_sharer(b.src) && b.ddirty != 0 && b.downer != b.src) {
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
    L2St& b = st.l2;
    b.txn_ver = new_version();
    unsigned except = b.req == MsgType::kWriteWord ? b.src : kMaxL1;
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
    L2St& b = st.l2;
    std::uint8_t targets = dir_targets(except);
    b.pending_acks = std::uint8_t(__builtin_popcount(targets));
    for (unsigned c = 0; c < nc; ++c) {
      if (((targets >> c) & 1u) == 0) continue;
      MMsg u;
      u.type = MsgType::kUpdateWord;
      u.ver = b.txn_ver;
      send(l2_id, c, u);
    }
  }

  void send_invalidations(unsigned except) {
    L2St& b = st.l2;
    std::uint8_t targets = dir_targets(except);
    b.pending_acks = std::uint8_t(__builtin_popcount(targets));
    for (unsigned c = 0; c < nc; ++c) {
      if (((targets >> c) & 1u) == 0) continue;
      MMsg inv;
      inv.type = MsgType::kInvalidate;
      send(l2_id, c, inv);
    }
  }

  void request_fetch(MsgType fetch_type) {
    L2St& b = st.l2;
    b.waiting_data = 1;
    b.data_from = b.downer;
    MMsg f;
    f.type = fetch_type;
    send(l2_id, b.downer, f);
  }

  void bank_invalidate_ack(unsigned src) {
    L2St& b = st.l2;
    if (b.active == 0 || b.pending_acks == 0) {
      fail("model-internal", "stray InvalidateAck at the L2");
      return;
    }
    DirState before = dstate();
    dir_remove(src);
    devent(before, DirEvent::kSharerDrop);
    if (--b.pending_acks == 0) on_acks_complete();
  }

  void bank_update_ack(unsigned src, const MMsg& m) {
    L2St& b = st.l2;
    if (b.active == 0 || b.pending_acks == 0) {
      fail("model-internal", "stray UpdateAck at the L2");
      return;
    }
    if (m.had_copy == 0) {
      DirState before = dstate();
      dir_remove(src);
      devent(before, DirEvent::kSharerDrop);
    }
    if (--b.pending_acks == 0) on_acks_complete();
  }

  void bank_write_back(unsigned src, const MMsg& m) {
    L2St& b = st.l2;
    MMsg ack;
    ack.type = MsgType::kWriteBackAck;
    if (b.active != 0 && b.waiting_data != 0 && b.data_from == src) {
      // The write-back crossed our fetch: accept it as the fetch data and
      // expect the cache's own (now dangling) FetchResponse.
      ++b.stale_fetch[src];
      send(l2_id, src, ack);
      DirState before = dstate();
      dir_remove(src);
      devent(before, DirEvent::kWriteBack);
      on_data_arrived(m);
      return;
    }
    l2_storage_write(m.ver);
    DirState before = dstate();
    dir_remove(src);
    devent(before, DirEvent::kWriteBack);
    send(l2_id, src, ack);
  }

  void on_data_arrived(const MMsg& data) {
    L2St& b = st.l2;
    if (data.has_data != 0) l2_storage_write(data.ver);
    // has_data == 0: silently evicted clean Exclusive; the L2 copy is
    // already current.
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
        resp.ver = b.ver;
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
    L2St& b = st.l2;
    DirState before = dstate();
    DirEvent ev = DirEvent::kReadExclusive;
    switch (b.req) {
      case MsgType::kWriteWord: {
        l2_storage_write(b.txn_ver);  // the write lands in L2 storage
        if (!wtu) {
          // Directory::clear_all_except(src): foreign bits dropped, the
          // writer's own (clean) registration survives.
          std::uint8_t keep = std::uint8_t(b.presence & (1u << b.src));
          b.presence = keep;
          b.ddirty = 0;
          b.downer = kNoOwner;
        }
        ev = wtu ? DirEvent::kWriteUpdate : DirEvent::kWriteThrough;
        MMsg ack;
        ack.ver = b.txn_ver;
        respond(MsgType::kWriteAck, ack);
        break;
      }
      case MsgType::kAtomicSwap: {
        l2_storage_write(b.txn_ver);
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
        resp.has_data = lost_copy ? 1 : 0;
        respond(MsgType::kUpgradeAck, resp);
        break;
      }
      default:
        fail("model-internal", "acks completed for a bad transaction");
        return;
    }
    devent(before, ev);
    complete_txn();
  }

  // ---- fills (L2Bank::start_fill / handle_fill_response) ----

  void start_fill() {
    st.l2.fill = 1;
    MMsg m;
    m.type = MsgType::kReadShared;
    m.track = 1;  // the memory directory must record us (grants E)
    send(l2_id, mem_id, m);
  }

  void handle_fill_response(const MMsg& m) {
    L2St& b = st.l2;
    if (b.fill == 0) {
      fail("model-internal", "stray fill response at the L2");
      return;
    }
    if (m.grant != Grant::kExclusive) {
      fail("model-internal", "fill granted non-exclusive");
      return;
    }
    b.fill = 0;
    b.ver = m.ver;
    l2fsm(CacheEvent::kFillExclusive);  // I -> E
    complete_txn();  // queued L1 requests now run against the line
  }

  // ---- recalls (L2Bank::start_recall / finish_recall / evict_line) ----

  /// The spontaneous capacity-pressure action: a fill of a different block
  /// found the set full and this (idle) line is the victim.
  void do_l2_evict() {
    L2St& b = st.l2;
    b.r_active = 1;
    if (b.ddirty != 0) {
      b.r_fetch = 1;
      b.r_owner = b.downer;
      MMsg f;
      f.type = MsgType::kFetchInv;
      send(l2_id, b.downer, f);
      return;
    }
    if (b.presence != 0) {
      b.r_acks = std::uint8_t(__builtin_popcount(b.presence));
      for (unsigned c = 0; c < nc; ++c) {
        if (((b.presence >> c) & 1u) == 0) continue;
        MMsg inv;
        inv.type = MsgType::kInvalidate;
        send(l2_id, c, inv);
      }
      return;
    }
    finish_recall();
  }

  void recall_invalidate_ack(unsigned src) {
    L2St& b = st.l2;
    if (b.r_acks == 0) {
      fail("model-internal", "unexpected recall InvalidateAck");
      return;
    }
    DirState before = dstate();
    dir_remove(src);
    devent(before, DirEvent::kSharerDrop);
    if (--b.r_acks == 0) finish_recall();
  }

  void recall_fetch_response(unsigned src, const MMsg& m) {
    L2St& b = st.l2;
    if (b.r_fetch == 0 || src != b.r_owner) {
      fail("model-internal", "stray recall FetchResponse");
      return;
    }
    absorb_recall_data(m);
  }

  void recall_write_back(unsigned src, const MMsg& m) {
    L2St& b = st.l2;
    if (b.r_fetch == 0 || src != b.r_owner) {
      fail("model-internal", "write-back from a non-owner during a recall");
      return;
    }
    // The owner evicted on its own while our FetchInv was in flight: accept
    // the write-back as the recall data; its own FetchResponse will dangle.
    ++b.stale_fetch[src];
    MMsg ack;
    ack.type = MsgType::kWriteBackAck;
    send(l2_id, src, ack);
    absorb_recall_data(m);
  }

  void absorb_recall_data(const MMsg& m) {
    L2St& b = st.l2;
    if (m.has_data != 0) l2_storage_write(m.ver);
    // has_data == 0: the owner silently evicted a clean Exclusive copy.
    b.r_fetch = 0;
    finish_recall();
  }

  void finish_recall() {
    // Sharers (if any) already dropped by their acks' kSharerDrop rows; a
    // lingering owner registration collapses here so the Owned->Uncached
    // recall row is the one that fires.
    DirState before = dstate();
    dir_clear_all();
    devent(before, DirEvent::kRecall);
    evict_line();
  }

  void evict_line() {
    L2St& b = st.l2;
    const bool dirty = b.line == LineState::kModified;
    const std::uint8_t ver = b.ver;
    l2fsm(dirty ? CacheEvent::kEvictDirty : CacheEvent::kEvict);  // -> I
    b.ver = 0;
    b.r_active = 0;
    if (dirty) {
      MMsg wb;
      wb.type = MsgType::kWriteBack;
      wb.ver = ver;
      wb.has_data = 1;
      send(l2_id, mem_id, wb);
    }
    complete_txn();
  }

  // ---- memory tier (a flat MESI bank whose only client is the L2) ----

  void mem_devent(DirState before, DirEvent ev, DirState after) {
    int id = mtbl.find_dir(before, ev, after);
    if (id < 0) {
      fail("undeclared-transition",
           std::string("memory directory: ") + proto::to_string(before) +
               " --" + proto::to_string(ev) + "--> " + proto::to_string(after) +
               " has no declared row");
      return;
    }
    cov.record(id);
  }

  void mem_read_shared() {
    MemSt& m = st.mem;
    if (m.dirty_owner != 0) {
      // The recorded owner (us) misses: it silently evicted a clean line (a
      // dirty one's WriteBack precedes this read in FIFO order). The track
      // guard drops the stale self-registration (bank.cpp's exact path).
      m.dirty_owner = 0;
      mem_devent(DirState::kOwned, DirEvent::kSharerDrop, DirState::kUncached);
    }
    // Sole client, nothing cached: the MESI memory tier grants Exclusive.
    m.dirty_owner = 1;
    mem_devent(DirState::kUncached, DirEvent::kReadShared, DirState::kOwned);
    MMsg resp;
    resp.type = MsgType::kReadResponse;
    resp.grant = Grant::kExclusive;
    resp.ver = m.ver;
    resp.track = 1;
    resp.has_data = 1;
    send(mem_id, l2_id, resp);
  }

  void mem_write_back(const MMsg& m) {
    MemSt& mm = st.mem;
    if (mm.dirty_owner == 0) {
      fail("model-internal", "memory write-back from an unregistered L2");
      return;
    }
    mm.ver = m.ver;
    mm.dirty_owner = 0;
    mem_devent(DirState::kOwned, DirEvent::kWriteBack, DirState::kUncached);
    MMsg ack;
    ack.type = MsgType::kWriteBackAck;
    send(mem_id, l2_id, ack);
  }

  // ---- L1 side (the flat model's cache handlers, home = the L2) ----

  void cache_read_response(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    if (m.track == 0) {
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

  void finish_pending(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.pend == Pend::kStoreFill || cc.pend == Pend::kUpgrade) {
      if (cc.line == LineState::kInvalid) {
        cfsm(c, CacheEvent::kFillModified);
      } else if (cc.line == LineState::kShared) {
        cfsm(c, CacheEvent::kStoreUpgrade);
      } else {
        cfsm(c, CacheEvent::kStoreHit);
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
    if (m.has_data == 0 && cc.line != LineState::kShared) {
      fail("undeclared-transition",
           "UpgradeAck without data reached a non-Shared line");
      return;
    }
    finish_pending(c);
  }

  void cache_write_ack(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    if (cc.wsent == 0 || cc.wbuf == 0) {
      fail("model-internal", "stray WriteAck");
      return;
    }
    pop_write_buffer(c, m.ver);
  }

  void pop_write_buffer(unsigned c, std::uint8_t ver) {
    CacheSt& cc = st.c[c];
    --cc.wbuf;
    cc.wsent = 0;
    if (cc.wbuf == 0 && cc.line != LineState::kInvalid &&
        cc.cv == kOwnPending) {
      cc.cv = ver;
    }
    if (cc.wbuf > 0) {
      cc.wsent = 1;
      MMsg m;
      m.type = MsgType::kWriteWord;
      send(c, l2_id, m);
    } else if (cc.pend == Pend::kLoadDrain) {
      cc.pend = Pend::kLoadFill;
      MMsg m;
      m.type = MsgType::kReadShared;
      m.track = 1;
      send(c, l2_id, m);
    } else if (cc.pend == Pend::kSwapDrain) {
      cc.pend = Pend::kSwap;
      MMsg m;
      m.type = MsgType::kAtomicSwap;
      send(c, l2_id, m);
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

  void cache_invalidate(unsigned c) {
    CacheSt& cc = st.c[c];
    if (cc.line != LineState::kInvalid) {
      if (mesi && cc.line != LineState::kShared) {
        fail("undeclared-transition", "Invalidate reached a non-Shared line");
        return;
      }
      // WTU's {S, Invalidate, I} lives only in the extension table (a flat
      // WTU platform never sends invalidations); cfsm's fallback finds it.
      cfsm(c, CacheEvent::kInvalidate);
    }
    // Always acknowledge (the directory may hold a stale presence bit).
    MMsg ack;
    ack.type = MsgType::kInvalidateAck;
    send(c, l2_id, ack);
  }

  void cache_update(unsigned c, const MMsg& m) {
    CacheSt& cc = st.c[c];
    MMsg ack;
    ack.type = MsgType::kUpdateAck;
    if (cc.line != LineState::kInvalid) {
      if (cc.wbuf == 0) cc.cv = m.ver;
      cfsm(c, CacheEvent::kUpdate);
      ack.had_copy = 1;
    } else {
      ack.had_copy = 0;
    }
    send(c, l2_id, ack);
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
      resp.has_data = 1;
      resp.ver = cc.wb_ver;
    } else {
      resp.has_data = 0;  // silently evicted clean E
    }
    send(c, l2_id, resp);
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

  // ---- dispatch ----

  void deliver_to_l2(unsigned src, const MMsg& m) {
    L2St& b = st.l2;
    if (src == mem_id) {
      switch (m.type) {
        case MsgType::kReadResponse: handle_fill_response(m); break;
        case MsgType::kWriteBackAck:
          break;  // eviction write-back acknowledged; nothing held on it
        default:
          fail("model-internal",
               std::string("L2 received ") + noc::to_string(m.type) +
                   " from the memory tier");
      }
      return;
    }
    switch (m.type) {
      case MsgType::kReadShared:
      case MsgType::kReadExclusive:
      case MsgType::kUpgrade:
      case MsgType::kWriteWord:
      case MsgType::kAtomicSwap:
        bank_request(m.type, src, m.track != 0);
        break;
      case MsgType::kWriteBack:
        if (b.r_active != 0) {
          recall_write_back(src, m);
        } else {
          bank_write_back(src, m);
        }
        break;
      case MsgType::kInvalidateAck:
        if (b.r_active != 0) {
          recall_invalidate_ack(src);
        } else {
          bank_invalidate_ack(src);
        }
        break;
      case MsgType::kUpdateAck: bank_update_ack(src, m); break;
      case MsgType::kFetchResponse:
        // Dangling responses (a WriteBack crossed the fetch) arrive ahead
        // of any genuine response from the same cache under per-flow FIFO.
        if (b.stale_fetch[src] != 0) {
          --b.stale_fetch[src];
          return;
        }
        if (b.r_active != 0) {
          recall_fetch_response(src, m);
        } else if (b.active != 0 && b.waiting_data != 0 &&
                   b.data_from == src) {
          on_data_arrived(m);
        }
        // else: the owner's WriteBack raced ahead; duplicate data dropped.
        break;
      default:
        fail("model-internal",
             std::string("L2 received ") + noc::to_string(m.type));
    }
  }

  void deliver(unsigned src, unsigned dst) {
    Chan& ch = st.ch[src][dst];
    MMsg m = ch.m[0];
    for (unsigned i = 1; i < ch.n; ++i) ch.m[i - 1] = ch.m[i];
    ch.m[--ch.n] = MMsg{};
    if (dst == mem_id) {
      switch (m.type) {
        case MsgType::kReadShared: mem_read_shared(); break;
        case MsgType::kWriteBack: mem_write_back(m); break;
        default:
          fail("model-internal",
               std::string("memory received ") + noc::to_string(m.type));
      }
      return;
    }
    if (dst == l2_id) {
      deliver_to_l2(src, m);
      return;
    }
    switch (m.type) {
      case MsgType::kReadResponse: cache_read_response(dst, m); break;
      case MsgType::kUpgradeAck: cache_upgrade_ack(dst, m); break;
      case MsgType::kWriteAck: cache_write_ack(dst, m); break;
      case MsgType::kSwapResponse: cache_swap_response(dst); break;
      case MsgType::kInvalidate: cache_invalidate(dst); break;
      case MsgType::kUpdateWord: cache_update(dst, m); break;
      case MsgType::kFetch: cache_fetch(dst, false); break;
      case MsgType::kFetchInv: cache_fetch(dst, true); break;
      case MsgType::kWriteBackAck: cache_writeback_ack(dst); break;
      default:
        fail("model-internal",
             std::string("cache received ") + noc::to_string(m.type));
    }
  }

  void apply(const HAct& a) {
    switch (a.kind) {
      case HAct::Kind::kLoadMiss: do_load_miss(a.cache); break;
      case HAct::Kind::kStore: do_store(a.cache); break;
      case HAct::Kind::kAtomic: do_atomic(a.cache); break;
      case HAct::Kind::kEvict: do_evict(a.cache); break;
      case HAct::Kind::kEvictDirty: do_evict_dirty(a.cache); break;
      case HAct::Kind::kUntrackedRead: do_untracked_read(); break;
      case HAct::Kind::kL2Evict: do_l2_evict(); break;
      case HAct::Kind::kDeliver: deliver(a.src, a.dst); break;
    }
  }
};

/// Enumerate the actions enabled in \p s.
void enabled_actions(const State& s, const HierConfig& cfg,
                     std::vector<HAct>& out) {
  out.clear();
  const unsigned nc = cfg.num_l1;
  const bool mesi = cfg.protocol == mem::Protocol::kWbMesi;
  for (unsigned c = 0; c < nc; ++c) {
    const CacheSt& cc = s.c[c];
    if (cc.pend != Pend::kNone) continue;
    if (cc.line == LineState::kInvalid) {
      out.push_back({HAct::Kind::kLoadMiss, std::uint8_t(c), 0, 0, 0});
    }
    if (mesi || cc.wbuf < cfg.wbuf_depth) {
      out.push_back({HAct::Kind::kStore, std::uint8_t(c), 0, 0, 0});
    }
    if (!mesi) {
      out.push_back({HAct::Kind::kAtomic, std::uint8_t(c), 0, 0, 0});
    }
    if (cc.line == LineState::kShared || cc.line == LineState::kExclusive) {
      out.push_back({HAct::Kind::kEvict, std::uint8_t(c), 0, 0, 0});
    }
    if (cc.line == LineState::kModified && cc.wb_entry == 0) {
      out.push_back({HAct::Kind::kEvictDirty, std::uint8_t(c), 0, 0, 0});
    }
  }
  if (cfg.untracked_reads && s.untracked == 0) {
    out.push_back({HAct::Kind::kUntrackedRead, 0, 0, 0, 0});
  }
  // Capacity pressure: an idle resident line can always be the victim of a
  // foreign fill (l2_bank.cpp recalls only transaction-free lines).
  if (s.l2.line != LineState::kInvalid && s.l2.active == 0 &&
      s.l2.fill == 0 && s.l2.r_active == 0) {
    out.push_back({HAct::Kind::kL2Evict, 0, 0, 0, 0});
  }
  for (unsigned a = 0; a < nc + 2; ++a) {
    for (unsigned d = 0; d < nc + 2; ++d) {
      const Chan& ch = s.ch[a][d];
      if (ch.n == 0) continue;
      out.push_back({HAct::Kind::kDeliver, 0, std::uint8_t(ch.m[0].type),
                     std::uint8_t(a), std::uint8_t(d)});
    }
  }
}

/// True if a message of type \p t is in flight from the L2 to cache \p c.
bool in_flight_to(const State& s, unsigned l2, unsigned c, MsgType t) {
  const Chan& ch = s.ch[l2][c];
  for (unsigned k = 0; k < ch.n; ++k) {
    if (ch.m[k].type == t) return true;
  }
  return false;
}

/// Point-in-time safety invariants. Returns {rule, detail} or {nullptr, ""}.
std::pair<const char*, std::string> check_invariants(const State& s,
                                                     const HierConfig& cfg) {
  const unsigned nc = cfg.num_l1;
  const unsigned l2 = nc;
  const bool mesi = cfg.protocol == mem::Protocol::kWbMesi;
  const L2St& b = s.l2;
  const bool resident = b.line != LineState::kInvalid;

  // Inclusion, L1 side: a valid L1 copy needs its L2 line resident (or the
  // recall that is tearing it down still in flight).
  for (unsigned c = 0; c < nc; ++c) {
    if (s.c[c].line == LineState::kInvalid) continue;
    if (!resident && b.r_active == 0) {
      return {"inclusion", "cache" + std::to_string(c) + " holds " +
                               proto::to_string(s.c[c].line) +
                               " but the L2 line is not resident"};
    }
  }
  // Inclusion, L2 side: a non-resident line tracks no sharers.
  if (!resident && b.r_active == 0 && (b.presence != 0 || b.ddirty != 0)) {
    return {"inclusion",
            "the L2 line is not resident but its L1-facing directory still "
            "tracks sharers"};
  }
  // Two-tier tracking: a resident line is the L2's exclusive memory grant.
  if (resident && s.mem.dirty_owner == 0) {
    return {"l2-tracking",
            "the L2 line is resident but the memory directory does not "
            "record the L2 as owner"};
  }
  // Freshness: a clean (Exclusive) L2 line carries exactly DRAM's version.
  if (b.line == LineState::kExclusive && b.ver != s.mem.ver) {
    return {"freshness", "clean L2 line holds " + ver_name(b.ver) +
                             " but memory holds " + ver_name(s.mem.ver)};
  }

  if (mesi) {
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
      if (b.ddirty == 0 || b.downer != c || b.presence != (1u << c)) {
        return {"dir-agreement",
                "cache" + std::to_string(c) + " holds " +
                    proto::to_string(s.c[c].line) +
                    " but the L2 directory does not record it as sole owner"};
      }
      if (s.c[c].cv != s.latest) {
        return {"data-value", "owner cache" + std::to_string(c) + " holds " +
                                  ver_name(s.c[c].cv) +
                                  " but the latest write is " +
                                  ver_name(s.latest)};
      }
    }
  }

  for (unsigned c = 0; c < nc; ++c) {
    const CacheSt& cc = s.c[c];
    if (cc.line != LineState::kShared) continue;
    if (cc.cv == kOwnPending) {
      if (cc.wbuf == 0) {
        return {"data-value",
                "cache" + std::to_string(c) +
                    " is own-pending with an empty write buffer"};
      }
      continue;
    }
    if (cc.cv < s.latest && b.active == 0 &&
        !in_flight_to(s, l2, c, MsgType::kInvalidate) &&
        !in_flight_to(s, l2, c, MsgType::kUpdateWord)) {
      return {"swmr", "cache" + std::to_string(c) + " holds stale " +
                          ver_name(cc.cv) + " (latest is " +
                          ver_name(s.latest) +
                          ") with no repair in flight — a lost invalidation"};
    }
    if (((b.presence >> c) & 1u) == 0 && b.active == 0 &&
        !in_flight_to(s, l2, c, MsgType::kInvalidate) &&
        !in_flight_to(s, l2, c, MsgType::kFetchInv)) {
      return {"dir-agreement",
              "cache" + std::to_string(c) +
                  " holds a valid copy but its presence bit is clear and no "
                  "invalidation is in flight"};
    }
  }

  // Convergence: at quiescence the last serialized write is held by the L1
  // owner, else the resident L2 line, else DRAM.
  if (is_quiescent(s, cfg)) {
    if (b.ddirty != 0) {
      unsigned o = b.downer;
      if (o < nc && (s.c[o].line == LineState::kExclusive ||
                     s.c[o].line == LineState::kModified)) {
        if (s.c[o].cv != s.latest) {
          return {"data-value", "quiescent owner cache" + std::to_string(o) +
                                    " holds " + ver_name(s.c[o].cv) +
                                    " but the latest write is " +
                                    ver_name(s.latest)};
        }
      } else if (b.ver != s.latest) {
        // Legal only as a silently-evicted clean Exclusive at the L1.
        return {"data-value",
                "quiescent with a dirty L2 directory entry, no owner copy "
                "and a stale L2 line (" + ver_name(b.ver) + " vs " +
                    ver_name(s.latest) + ")"};
      }
    } else if (resident) {
      if (b.ver != s.latest) {
        return {"data-value", "quiescent but the L2 line holds " +
                                  ver_name(b.ver) +
                                  " and the last write is " +
                                  ver_name(s.latest)};
      }
    } else if (s.mem.ver != s.latest) {
      return {"data-value", "quiescent, line evicted, but memory holds " +
                                ver_name(s.mem.ver) +
                                " and the last write is " +
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

std::string make_fuzz_hint(const HierConfig& cfg) {
  std::string h = "tools/ccnoc_fuzz --protocol ";
  h += protocol_flag(cfg.protocol);
  h += " --cpus " + std::to_string(std::max(4u, cfg.num_l1));
  h += " --l2-banks 2 --seeds 200 --minimize";
  return h;
}

}  // namespace

struct HierChecker::Impl {
  HierConfig cfg;
  ModelResult result;
  bool ran = false;

  // Explored graph (model.cpp's layout): keys live in the node-based map so
  // the pointers stay valid; ids are BFS discovery order.
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<const std::string*> keys;
  std::vector<std::uint32_t> parent;
  std::vector<HAct> pact;
  std::vector<std::uint8_t> quies;
  std::vector<std::uint32_t> efrom;
  std::vector<std::uint32_t> eto;

  explicit Impl(HierConfig c) : cfg(c) {
    cfg.num_l1 = std::clamp(cfg.num_l1, 2u, kMaxL1);
    cfg.wbuf_depth = std::clamp(cfg.wbuf_depth, 1u, 3u);
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
      out.push_back(pact[at].to_string(cfg.num_l1));
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
    canonicalize(init, cfg);
    bool fresh = false;
    intern(encode(init, cfg), &fresh);
    parent.push_back(0);
    pact.push_back(HAct{});
    quies.push_back(1);

    std::vector<HAct> actions;
    bool capped = false;
    bool stopped = false;
    for (std::uint32_t cur = 0; cur < keys.size() && !stopped; ++cur) {
      const State s = decode(*keys[cur], cfg);
      enabled_actions(s, cfg, actions);
      for (const HAct& a : actions) {
        Stepper stp(cfg, result.covered, s);
        stp.apply(a);
        ++result.edges;
        if (stp.failed) {
          auto trace = trace_to(cur);
          trace.push_back(a.to_string(cfg.num_l1) + "  <-- fails here");
          add_violation(stp.frule.c_str(), stp.fdetail, std::move(trace), s);
          stopped = true;
          break;
        }
        canonicalize(stp.st, cfg);
        bool is_new = false;
        std::uint32_t id = intern(encode(stp.st, cfg), &is_new);
        efrom.push_back(cur);
        eto.push_back(id);
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
    // Dead-row accounting covers the extension table: the flat rows a
    // hierarchy run exercises keep their flat ids, which `--all` unions
    // with the flat sweeps.
    const auto& xt = proto::l2_table_for(cfg.protocol);
    for (int id = xt.base_id(); id < xt.base_id() + xt.row_count(); ++id) {
      if (!result.covered.covered(id)) result.dead_rows.push_back(id);
    }
    if (result.closed) check_deadlock();
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

  /// Deadlock freedom: reverse BFS from the quiescent set (model.cpp).
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
      return;
    }
  }
};

HierChecker::HierChecker(HierConfig cfg) : impl_(std::make_unique<Impl>(cfg)) {}
HierChecker::~HierChecker() = default;
HierChecker::HierChecker(HierChecker&&) noexcept = default;
HierChecker& HierChecker::operator=(HierChecker&&) noexcept = default;

ModelResult HierChecker::run() {
  impl_->run();
  return impl_->result;
}

std::string to_json(const HierConfig& cfg, const ModelResult& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"hier\": true,\n";
  os << "  \"protocol\": \"" << protocol_flag(cfg.protocol) << "\",\n";
  os << "  \"num_l1\": " << cfg.num_l1 << ",\n";
  os << "  \"wbuf_depth\": " << cfg.wbuf_depth << ",\n";
  os << "  \"untracked_reads\": " << (cfg.untracked_reads ? "true" : "false")
     << ",\n";
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
