#include <gtest/gtest.h>

#include <cstdint>

#include "apps/micro.hpp"
#include "apps/ocean.hpp"
#include "core/system.hpp"

/// Whole-platform runs with the coherence checker enabled: the golden-model
/// oracle cross-checks every committed load and the invariant walker audits
/// the directory/tag state every walk interval. A correct protocol must
/// produce zero violations on every configuration — and turning the checker
/// on must not change the simulated execution at all (same event sequence,
/// same cycles, same NoC traffic).

namespace ccnoc::check {
namespace {

core::SystemConfig checked(core::SystemConfig cfg) {
  cfg.check.enabled = true;
  return cfg;
}

struct Proto {
  mem::Protocol p;
  bool direct_ack;
  // gtest lists each case with the raw bytes of its Proto, so these bytes are
  // part of the test's name. They fill what was compiler padding, whose
  // leftover heap contents changed the names from build to build; the values
  // keep the names most cases of the suite have been registered under.
  std::uint8_t name_tag = p == mem::Protocol::kWti ? 0x55 : 0x7f;
  std::uint8_t name_pad[2] = {};
};

std::string proto_name(const ::testing::TestParamInfo<Proto>& info) {
  return std::string(info.param.p == mem::Protocol::kWti ? "WTI" : "MESI") +
         (info.param.direct_ack ? "_directack" : "");
}

class CheckedRun : public ::testing::TestWithParam<Proto> {
 protected:
  core::SystemConfig config(unsigned n) const {
    auto cfg = checked(core::SystemConfig::architecture1(n, GetParam().p));
    cfg.bank.direct_inval_ack = GetParam().direct_ack;
    return cfg;
  }
};

TEST_P(CheckedRun, HotCounterIsViolationFree) {
  apps::HotCounter w(60);
  core::System sys(config(4));
  auto r = sys.run(w);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.check_ok) << r.check_report;
  EXPECT_GT(r.check_loads_verified, 0u);
  EXPECT_TRUE(r.verified);
}

TEST_P(CheckedRun, ProducerConsumerIsViolationFree) {
  apps::ProducerConsumer w(25, 4);
  core::System sys(config(4));
  auto r = sys.run(w);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.check_ok) << r.check_report;
  EXPECT_TRUE(r.verified);
}

TEST_P(CheckedRun, PingPongIsViolationFree) {
  apps::PingPong w(60);
  core::System sys(config(2));
  auto r = sys.run(w, 2);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.check_ok) << r.check_report;
}

TEST_P(CheckedRun, OceanIsViolationFree) {
  apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  apps::Ocean w(oc);
  core::System sys(config(4));
  auto r = sys.run(w);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.check_ok) << r.check_report;
  EXPECT_TRUE(r.verified);
}

TEST_P(CheckedRun, UniformRandomRacesAreStillCoherent) {
  // Racy by design — no functional oracle — but every load must still read
  // a sequentially consistent value and every invariant must hold.
  apps::UniformRandom::Config uc;
  uc.ops_per_thread = 400;
  uc.store_fraction = 0.5;
  apps::UniformRandom w(uc);
  core::System sys(config(4));
  auto r = sys.run(w);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.check_ok) << r.check_report;
}

TEST_P(CheckedRun, CheckerDoesNotPerturbTheSimulation) {
  auto run_one = [&](bool check_on) {
    apps::HotCounter w(40);
    auto cfg = core::SystemConfig::architecture2(4, GetParam().p);
    cfg.bank.direct_inval_ack = GetParam().direct_ack;
    cfg.check.enabled = check_on;
    core::System sys(cfg);
    return sys.run(w);
  };
  auto off = run_one(false);
  auto on = run_one(true);
  ASSERT_TRUE(on.completed);
  EXPECT_TRUE(on.check_ok) << on.check_report;
  // The walker only reads state between events: the event sequence, and
  // with it every metric, must be identical to the unchecked run.
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.exec_cycles, on.exec_cycles);
  EXPECT_EQ(off.noc_packets, on.noc_packets);
  EXPECT_EQ(off.noc_bytes, on.noc_bytes);
  EXPECT_EQ(off.d_stall_cycles, on.d_stall_cycles);
  EXPECT_EQ(off.instructions, on.instructions);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CheckedRun,
                         ::testing::Values(Proto{mem::Protocol::kWti, false},
                                           Proto{mem::Protocol::kWti, true},
                                           Proto{mem::Protocol::kWbMesi, false},
                                           Proto{mem::Protocol::kWbMesi, true}),
                         proto_name);

TEST(CheckedRunScale, SixteenCpusDistributedIsViolationFree) {
  for (mem::Protocol p : {mem::Protocol::kWti, mem::Protocol::kWbMesi}) {
    apps::Ocean::Config oc;
    oc.rows_per_thread = 1;
    oc.iterations = 1;
    apps::Ocean w(oc);
    auto cfg = checked(core::SystemConfig::architecture2(16, p));
    core::System sys(cfg);
    auto r = sys.run(w);
    ASSERT_TRUE(r.completed) << to_string(p);
    EXPECT_TRUE(r.check_ok) << to_string(p) << "\n" << r.check_report;
  }
}

TEST(CheckedRunScale, WalkerAloneCoversWtuAndRelaxedWti) {
  // Non-SC configurations: the oracle self-gates off, the invariant walker
  // still audits every structural property.
  {
    auto cfg = checked(core::SystemConfig::architecture1(4, mem::Protocol::kWtu));
    apps::HotCounter w(40);
    core::System sys(cfg);
    auto r = sys.run(w);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.check_ok) << r.check_report;
    EXPECT_EQ(r.check_loads_verified, 0u);  // oracle gated off
  }
  {
    auto cfg = checked(core::SystemConfig::architecture1(4, mem::Protocol::kWti));
    cfg.dcache.drain_on_load_miss = false;  // relaxed ordering ablation
    apps::HotCounter w(40);
    core::System sys(cfg);
    auto r = sys.run(w);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.check_ok) << r.check_report;
    EXPECT_EQ(r.check_loads_verified, 0u);
  }
}

TEST(CheckedRunScale, MeshNetworkIsViolationFree) {
  auto cfg = checked(core::SystemConfig::architecture2(4, mem::Protocol::kWbMesi));
  cfg.network = core::NetworkKind::kMesh;
  apps::ProducerConsumer w(15, 4);
  core::System sys(cfg);
  auto r = sys.run(w);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.check_ok) << r.check_report;
}

}  // namespace
}  // namespace ccnoc::check
