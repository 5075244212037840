// Admission-layer tests: bounded fee-priority mempool semantics (ordering,
// aging, eviction, TTL, reason codes), ingress routing/backpressure/digest
// determinism, trace-replay purity, the 2PC stuck watchdog, and full-run
// determinism of the open-loop path across exec worker counts on Jenga and
// all three baselines.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/genesis.hpp"
#include "harness/runner.hpp"
#include "ledger/transaction.hpp"
#include "mempool/ingress.hpp"
#include "mempool/mempool.hpp"
#include "security/fault_injector.hpp"

namespace jenga::mempool {
namespace {

core::TxPtr transfer(std::uint64_t from, std::uint64_t to, std::uint64_t fee,
                     std::uint64_t amount = 5, SimTime at = 0) {
  return std::make_shared<const ledger::Transaction>(
      ledger::make_transfer(AccountId{from}, AccountId{to}, amount, fee, at));
}

TEST(Mempool, FeePriorityOrder) {
  Mempool pool(MempoolConfig{.capacity = 8, .ttl = 100 * kSecond, .aging_fee_per_second = 0});
  auto low = transfer(1, 2, 5), high = transfer(3, 4, 50), mid = transfer(5, 6, 20);
  EXPECT_EQ(pool.offer(low, 0, 0).result, AdmitResult::kAdmitted);
  EXPECT_EQ(pool.offer(high, 0, 2).result, AdmitResult::kAdmitted);
  EXPECT_EQ(pool.offer(mid, 0, 1).result, AdmitResult::kAdmitted);
  EXPECT_EQ(pool.pop_best(0)->tx->fee, 50u);
  EXPECT_EQ(pool.pop_best(0)->tx->fee, 20u);
  EXPECT_EQ(pool.pop_best(0)->tx->fee, 5u);
  EXPECT_FALSE(pool.pop_best(0).has_value());
}

TEST(Mempool, EqualFeeTieBreakIsFifo) {
  Mempool pool(MempoolConfig{.capacity = 8, .ttl = 100 * kSecond, .aging_fee_per_second = 0});
  auto first = transfer(1, 2, 10), second = transfer(3, 4, 10);
  pool.offer(first, 0, 0);
  pool.offer(second, 0, 0);
  EXPECT_EQ(pool.pop_best(0)->tx->hash, first->hash);  // older wins the tie
  EXPECT_EQ(pool.pop_best(0)->tx->hash, second->hash);
}

TEST(Mempool, AgingPromotesOldLowFeeOverNewHighFee) {
  // Effective priority = fee + 10/s of waiting.  A fee-10 tx enqueued at t=0
  // outranks a fee-30 tx enqueued at t=5s (10 + 10·w vs 30 + 10·(w-5):
  // the old one leads by 30 at any comparison instant).
  Mempool pool(MempoolConfig{.capacity = 8, .ttl = 100 * kSecond, .aging_fee_per_second = 10});
  auto old_low = transfer(1, 2, 10), new_high = transfer(3, 4, 30);
  pool.offer(old_low, 0, 0);
  pool.offer(new_high, 5 * kSecond, 2);
  EXPECT_EQ(pool.pop_best(6 * kSecond)->tx->hash, old_low->hash);
  // Without aging the fee-30 tx would win outright.
  Mempool flat(MempoolConfig{.capacity = 8, .ttl = 100 * kSecond, .aging_fee_per_second = 0});
  pool = flat;
  pool.offer(old_low, 0, 0);
  pool.offer(new_high, 5 * kSecond, 2);
  EXPECT_EQ(pool.pop_best(6 * kSecond)->tx->hash, new_high->hash);
}

TEST(Mempool, PriorityKeyIsStaticAndOrderEquivalent) {
  // key(fee, t0) > key(fee, t1) for t0 < t1: waiting longer only helps.
  EXPECT_GT(Mempool::priority_key(10, 0, 2), Mempool::priority_key(10, kSecond, 2));
  // Cross-check against the time-dependent formulation at a probe instant.
  const auto eff = [](std::uint64_t fee, SimTime enq, SimTime now) {
    return static_cast<double>(fee) + 2.0 * static_cast<double>(now - enq) / kSecond;
  };
  const SimTime probe = 40 * kSecond;
  const bool key_order =
      Mempool::priority_key(10, 0, 2) > Mempool::priority_key(50, 25 * kSecond, 2);
  const bool eff_order = eff(10, 0, probe) > eff(50, 25 * kSecond, probe);
  EXPECT_EQ(key_order, eff_order);
}

TEST(Mempool, FullPoolEvictsLowestPriorityOnlyWhenOutranked) {
  Mempool pool(MempoolConfig{.capacity = 2, .ttl = 100 * kSecond, .aging_fee_per_second = 0});
  auto a = transfer(1, 2, 10), b = transfer(3, 4, 10);
  pool.offer(a, 0, 0);
  pool.offer(b, 0, 0);

  // Equal fee: the resident wins the tie, the newcomer is rejected with a code.
  auto equal = transfer(5, 6, 10);
  const auto rejected = pool.offer(equal, kSecond, 0);
  EXPECT_EQ(rejected.result, AdmitResult::kRejectedFull);
  EXPECT_FALSE(rejected.evicted);
  EXPECT_EQ(pool.depth(), 2u);

  // Higher fee: displaces the lowest-ranked resident — the NEWER of the two
  // equal-fee entries (FIFO protects the older one).
  auto richer = transfer(7, 8, 11);
  const auto admitted = pool.offer(richer, kSecond, 1);
  EXPECT_EQ(admitted.result, AdmitResult::kAdmitted);
  ASSERT_TRUE(admitted.evicted);
  EXPECT_EQ(admitted.evicted->hash, b->hash);
  EXPECT_EQ(pool.stats().evicted, 1u);
  EXPECT_EQ(pool.depth(), 2u);
}

TEST(Mempool, TtlZeroIsDeadOnArrival) {
  Mempool pool(MempoolConfig{.capacity = 4, .ttl = 100 * kSecond});
  const auto out = pool.offer(transfer(1, 2, 10), 5 * kSecond, 0, SimTime{0});
  EXPECT_EQ(out.result, AdmitResult::kRejectedExpired);
  EXPECT_EQ(pool.depth(), 0u);
  EXPECT_EQ(pool.stats().rejected_expired, 1u);
}

TEST(Mempool, ExpireShedsByDeadline) {
  Mempool pool(MempoolConfig{.capacity = 4, .ttl = 10 * kSecond});
  auto early = transfer(1, 2, 10), late = transfer(3, 4, 10);
  pool.offer(early, 0, 0);
  pool.offer(late, 5 * kSecond, 0);
  const auto shed = pool.expire(10 * kSecond);  // deadline 10s ≤ now, 15s not
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0]->hash, early->hash);
  EXPECT_EQ(pool.depth(), 1u);
  EXPECT_EQ(pool.stats().expired, 1u);
  // An expired entry never reaches dispatch.
  EXPECT_EQ(pool.pop_best(10 * kSecond)->tx->hash, late->hash);
}

TEST(Mempool, DuplicateAndZeroCapacityReasonCodes) {
  Mempool pool(MempoolConfig{.capacity = 4, .ttl = 100 * kSecond});
  auto tx = transfer(1, 2, 10);
  EXPECT_EQ(pool.offer(tx, 0, 0).result, AdmitResult::kAdmitted);
  EXPECT_EQ(pool.offer(tx, 0, 0).result, AdmitResult::kRejectedDuplicate);

  Mempool empty(MempoolConfig{.capacity = 0, .ttl = 100 * kSecond});
  EXPECT_EQ(empty.offer(transfer(3, 4, 99), 0, 0).result, AdmitResult::kRejectedFull);

  EXPECT_STREQ(admit_result_name(AdmitResult::kAdmitted), "admitted");
  EXPECT_STREQ(admit_result_name(AdmitResult::kRejectedFull), "rejected_full");
  EXPECT_STREQ(admit_result_name(AdmitResult::kRejectedDuplicate), "rejected_duplicate");
  EXPECT_STREQ(admit_result_name(AdmitResult::kRejectedExpired), "rejected_expired");
}

TEST(Mempool, StatsConserveEntries) {
  Mempool pool(MempoolConfig{.capacity = 3, .ttl = 10 * kSecond, .aging_fee_per_second = 1});
  for (std::uint64_t i = 0; i < 8; ++i)
    pool.offer(transfer(i, i + 100, 10 + i), static_cast<SimTime>(i) * kSecond, 0);
  pool.expire(12 * kSecond);
  pool.pop_best(12 * kSecond);
  const MempoolStats& s = pool.stats();
  EXPECT_EQ(s.admitted, s.dispatched + s.evicted + s.expired + pool.depth());
  EXPECT_LE(s.peak_depth, pool.capacity());
}

// ---------------------------------------------------------------------------
// IngressSet

IngressConfig small_ingress(std::size_t capacity = 8) {
  IngressConfig ic;
  ic.num_shards = 4;
  ic.pool.capacity = capacity;
  ic.pool.ttl = 100 * kSecond;
  ic.soft_watermark = 0.5;
  ic.hard_watermark = 0.875;
  return ic;
}

TEST(Ingress, RoutesBySenderAccountShard) {
  IngressSet ingress(small_ingress(32));  // room even if routing skews
  for (std::uint64_t a = 0; a < 32; ++a) {
    auto tx = transfer(a, a + 1000, 10);
    const ShardId expect = ledger::shard_of_account(tx->sender, 4);
    ASSERT_EQ(ingress.offer(tx, 0, 0).result, AdmitResult::kAdmitted);
    EXPECT_TRUE(ingress.pool(expect).contains(tx->hash));
  }
  EXPECT_EQ(ingress.resident(), 32u);
}

TEST(Ingress, BackpressureWatermarks) {
  IngressSet ingress(small_ingress(8));  // soft at 4, shed at 7
  // Find accounts landing on shard 0 and fill it.
  std::uint64_t filled = 0;
  for (std::uint64_t a = 0; a < 4096 && filled < 7; ++a) {
    if (ledger::shard_of_account(AccountId{a}, 4).value != 0) continue;
    if (filled == 3) {
      EXPECT_EQ(ingress.backpressure(ShardId{0}), Backpressure::kNone);
    }
    if (filled == 4) {
      EXPECT_EQ(ingress.backpressure(ShardId{0}), Backpressure::kSoft);
    }
    ASSERT_EQ(ingress.offer(transfer(a, a + 9000, 10), 0, 0).result, AdmitResult::kAdmitted);
    ++filled;
  }
  ASSERT_EQ(filled, 7u);
  EXPECT_EQ(ingress.backpressure(ShardId{0}), Backpressure::kShed);
  EXPECT_EQ(ingress.worst_backpressure(), Backpressure::kShed);
  // Other shards are empty and unaffected.
  EXPECT_EQ(ingress.backpressure(ShardId{1}), Backpressure::kNone);
}

TEST(Ingress, DispatchHonorsCreditsAndSkipsExpired) {
  IngressSet ingress(small_ingress());
  std::vector<core::TxPtr> txs;
  for (std::uint64_t a = 0; a < 12; ++a) {
    auto tx = transfer(a, a + 500, 10 + a);
    ingress.offer(tx, 0, 0);
    txs.push_back(tx);
  }
  std::vector<core::TxPtr> sent;
  EXPECT_EQ(ingress.dispatch(kSecond, 5, [&](core::TxPtr t) { sent.push_back(t); }), 5u);
  EXPECT_EQ(sent.size(), 5u);
  EXPECT_EQ(ingress.resident(), 7u);
  // Past every deadline: dispatch sheds the rest, submits nothing.
  EXPECT_EQ(ingress.dispatch(200 * kSecond, 10, [&](core::TxPtr t) { sent.push_back(t); }),
            0u);
  EXPECT_EQ(sent.size(), 5u);
  EXPECT_EQ(ingress.resident(), 0u);
  EXPECT_EQ(ingress.stats().totals.expired, 7u);
}

TEST(Ingress, AdmissionDigestIsPureFunctionOfEventSequence) {
  // Same op sequence → same digest; any divergence (here: swapped order)
  // changes it.  This is the witness the cross-worker determinism suite
  // compares, so its sensitivity matters as much as its stability.
  const auto replay = [](bool swap_two) {
    IngressSet ingress(small_ingress(4));
    Rng rng(42);
    std::vector<core::TxPtr> txs;
    for (std::uint64_t i = 0; i < 40; ++i)
      txs.push_back(transfer(rng.uniform(300), 1000 + rng.uniform(300),
                             5 + rng.uniform(40), 1 + rng.uniform(9)));
    if (swap_two) std::swap(txs[10], txs[11]);
    SimTime now = 0;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      now += static_cast<SimTime>(100 + rng.uniform(400)) * kMillisecond;
      ingress.offer(txs[i], now, static_cast<std::uint8_t>(i % 3));
      if (i % 5 == 4) ingress.dispatch(now, 2, [](core::TxPtr) {});
      if (i % 11 == 10) ingress.expire(now + 30 * kSecond);
    }
    return ingress.admission_digest();
  };
  EXPECT_EQ(replay(false), replay(false));
  EXPECT_NE(replay(false), replay(true));
}

TEST(Ingress, StatsAggregateAndConserve) {
  IngressSet ingress(small_ingress(4));
  Rng rng(7);
  for (std::uint64_t i = 0; i < 120; ++i)
    ingress.offer(transfer(rng.uniform(500), 1000 + rng.uniform(500), 5 + rng.uniform(60)),
                  static_cast<SimTime>(i) * 100 * kMillisecond, 0);
  ingress.dispatch(15 * kSecond, 6, [](core::TxPtr) {});
  const IngressStats s = ingress.stats();
  EXPECT_EQ(s.totals.admitted,
            s.totals.dispatched + s.totals.evicted + s.totals.expired + s.resident);
  EXPECT_LE(s.peak_resident, 16u);  // 4 shards × capacity 4
  EXPECT_GT(s.totals.rejected_total() + s.totals.evicted, 0u)  // pool really overflowed
      << "test parameters never exercised the full-pool path";
}

}  // namespace
}  // namespace jenga::mempool

// ---------------------------------------------------------------------------
// 2PC stuck watchdog

namespace jenga::security {
namespace {

TEST(TwoPcWatchdog, PartitionedTransferIsFlaggedStuck) {
  core::JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;
  cfg.seed = 11;
  cfg.twopc_stuck_timeout = 10 * kSecond;
  cfg.pending_timeout = 600 * kSecond;  // keep the gather path out of the way

  workload::TraceConfig tc;
  tc.num_accounts = 400;
  workload::TraceGenerator gen(tc, Rng(3));
  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(cfg.seed));
  core::JengaSystem system(sim, net, cfg, harness::make_genesis(gen));
  FaultInjector injector(sim, net, system);
  const std::uint64_t initial_balance = system.total_account_balance();
  system.start();

  // Split the two shards from each other for the rest of the run: intra-shard
  // consensus keeps deciding (client submits are reliable), but every
  // cross-shard 2PC prepare is partition-blocked after its debit committed.
  PartitionWindow window;
  window.start = 2 * kSecond;
  window.end = 600 * kSecond;
  window.isolated = system.lattice().shard_members(ShardId{1});
  FaultPlan plan;
  plan.partitions.push_back(window);
  injector.arm(plan);

  // A steady trickle keeps shard consensus proposing (the watchdog scan rides
  // on proposals) and guarantees cross-shard transfers after the split.
  for (int i = 0; i < 80; ++i) {
    sim.run_until(sim.now() + 500 * kMillisecond);
    system.submit(
        std::make_shared<ledger::Transaction>(gen.transfer_tx(sim.now())));
  }
  sim.run_until(120 * kSecond);

  ASSERT_GT(system.twopc_inflight(), 0u) << "no cross-shard transfer got wedged";
  EXPECT_GT(system.twopc_stuck_now(), 0u);
  EXPECT_GT(system.twopc_stuck_total(), 0u);

  const InvariantReport report = check_invariants(system, initial_balance);
  EXPECT_GT(report.twopc_stuck, 0u);
  EXPECT_FALSE(report.ok()) << report.describe();
  EXPECT_NE(report.describe().find("twopc_stuck"), std::string::npos);
}

TEST(TwoPcWatchdog, CleanRunFlagsNothing) {
  core::JengaConfig cfg;
  cfg.num_shards = 2;
  cfg.nodes_per_shard = 8;
  cfg.seed = 12;
  cfg.twopc_stuck_timeout = 10 * kSecond;

  workload::TraceConfig tc;
  tc.num_accounts = 400;
  workload::TraceGenerator gen(tc, Rng(4));
  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(cfg.seed));
  core::JengaSystem system(sim, net, cfg, harness::make_genesis(gen));
  const std::uint64_t initial_balance = system.total_account_balance();
  system.start();
  for (int i = 0; i < 40; ++i) {
    sim.run_until(sim.now() + 500 * kMillisecond);
    system.submit(
        std::make_shared<ledger::Transaction>(gen.transfer_tx(sim.now())));
  }
  sim.run_until(200 * kSecond);

  EXPECT_EQ(system.twopc_inflight(), 0u);
  EXPECT_EQ(system.twopc_stuck_total(), 0u);
  const InvariantReport report = check_invariants(system, initial_balance);
  EXPECT_TRUE(report.ok()) << report.describe();
}

}  // namespace
}  // namespace jenga::security

// ---------------------------------------------------------------------------
// Open-loop harness runs: determinism across exec worker counts, overload
// behaviour, scripted bursts, terminal accounting.

namespace jenga::harness {
namespace {

RunConfig open_loop_run(SystemKind kind, std::uint32_t workers) {
  RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 120;
  cfg.transfer_txs = 40;
  cfg.max_sim_time = 900 * kSecond;
  cfg.exec_workers = workers;
  cfg.trace.num_contracts = 1000;
  cfg.trace.num_accounts = 2000;
  cfg.trace.max_steps = 12;
  cfg.trace.max_contracts_per_tx = 6;
  cfg.arrival.mode = workload::ArrivalMode::kPoisson;
  cfg.arrival.rate_tps = 40.0;
  cfg.mempool.capacity = 64;
  cfg.mempool.ttl = 120 * kSecond;
  cfg.max_inflight = 128;
  return cfg;
}

class OpenLoopDeterminism : public ::testing::TestWithParam<SystemKind> {};

TEST_P(OpenLoopDeterminism, IdenticalAcrossExecWorkerCounts) {
  const RunResult serial = run_experiment(open_loop_run(GetParam(), 1));
  const RunResult parallel = run_experiment(open_loop_run(GetParam(), 4));
  ASSERT_TRUE(serial.ingress.enabled);
  EXPECT_EQ(serial.ledger_digest, parallel.ledger_digest);
  EXPECT_EQ(serial.ingress.admission_digest, parallel.ingress.admission_digest);
  EXPECT_EQ(serial.stats.submitted, parallel.stats.submitted);
  EXPECT_EQ(serial.stats.committed, parallel.stats.committed);
  EXPECT_EQ(serial.stats.aborted, parallel.stats.aborted);
  EXPECT_EQ(serial.stats.rejected, parallel.stats.rejected);
  EXPECT_EQ(serial.stats.expired, parallel.stats.expired);
  EXPECT_EQ(serial.ingress.client.generated, parallel.ingress.client.generated);
  EXPECT_EQ(serial.ingress.client.retries, parallel.ingress.client.retries);
  EXPECT_EQ(serial.ingress.pools.totals.admitted, parallel.ingress.pools.totals.admitted);
}

std::string kind_param_name(const ::testing::TestParamInfo<SystemKind>& info) {
  switch (info.param) {
    case SystemKind::kJenga: return "Jenga";
    case SystemKind::kCxFunc: return "CxFunc";
    case SystemKind::kSingleShard: return "SingleShard";
    case SystemKind::kPyramid: return "Pyramid";
    default: return "?";
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, OpenLoopDeterminism,
                         ::testing::Values(SystemKind::kJenga, SystemKind::kCxFunc,
                                           SystemKind::kSingleShard, SystemKind::kPyramid),
                         kind_param_name);

/// The runner audits every open-loop run after it drains, baselines included:
/// no leaked locks, balances conserved minus fees, nothing in limbo, every
/// admitted tx accounted for.
class OpenLoopAudit : public ::testing::TestWithParam<SystemKind> {};

TEST_P(OpenLoopAudit, BaselineRunsAreAuditedAndHold) {
  const RunResult r = run_experiment(open_loop_run(GetParam(), 1));
  ASSERT_TRUE(r.ingress.invariants_audited);
  EXPECT_TRUE(r.ingress.invariants.ok()) << r.ingress.invariants.describe();
}

INSTANTIATE_TEST_SUITE_P(Baselines, OpenLoopAudit,
                         ::testing::Values(SystemKind::kCxFunc, SystemKind::kSingleShard,
                                           SystemKind::kPyramid),
                         kind_param_name);

TEST(OpenLoop, EveryGeneratedTxReachesOneTerminalState) {
  const RunResult r = run_experiment(open_loop_run(SystemKind::kJenga, 1));
  ASSERT_TRUE(r.ingress.enabled);
  const workload::ClientStats& cs = r.ingress.client;
  EXPECT_EQ(cs.generated, 160u);
  // generated = dispatched-into-system + terminal at the admission layer.
  EXPECT_EQ(cs.generated, r.stats.submitted + r.stats.rejected + r.stats.expired);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
  // Underloaded: nothing should have been refused.
  EXPECT_EQ(r.stats.rejected, 0u);
  EXPECT_EQ(r.stats.expired, 0u);
  ASSERT_TRUE(r.ingress.invariants_audited);
  EXPECT_TRUE(r.ingress.invariants.ok()) << r.ingress.invariants.describe();
}

TEST(OpenLoop, OverloadDegradesGracefullyAndStaysBounded) {
  RunConfig cfg = open_loop_run(SystemKind::kJenga, 1);
  // Slam a tiny admission layer: bursty arrivals far above what the pools
  // hold, short TTL, few retries — rejections and expiries must show up,
  // bounded and reason-coded, with every invariant intact.
  cfg.arrival.mode = workload::ArrivalMode::kBursty;
  cfg.arrival.rate_tps = 400.0;
  cfg.arrival.burst_period = 5 * kSecond;
  cfg.arrival.burst_duration = 2 * kSecond;
  cfg.arrival.burst_multiplier = 4.0;
  cfg.mempool.capacity = 8;
  cfg.mempool.ttl = 15 * kSecond;
  cfg.retry.max_attempts = 3;
  cfg.max_inflight = 32;
  const RunResult r = run_experiment(cfg);
  ASSERT_TRUE(r.ingress.enabled);
  const workload::ClientStats& cs = r.ingress.client;
  EXPECT_EQ(cs.generated, 160u);
  EXPECT_EQ(cs.generated, r.stats.submitted + r.stats.rejected + r.stats.expired);
  EXPECT_GT(r.stats.rejected + r.stats.expired, 0u) << "overload never bit";
  EXPECT_GT(r.ingress.pools.totals.rejected_total() + r.ingress.pools.totals.evicted, 0u);
  EXPECT_LE(r.ingress.pools.peak_resident, 4u * 8u);  // bounded by capacity
  EXPECT_GT(r.stats.committed, 0u) << "goodput collapsed to zero";
  ASSERT_TRUE(r.ingress.invariants_audited);
  EXPECT_TRUE(r.ingress.invariants.ok()) << r.ingress.invariants.describe();
  // No lock leaked by anything the admission layer shed.
  EXPECT_EQ(r.ingress.invariants.leaked_locks, 0u);
  EXPECT_EQ(r.ingress.invariants.twopc_stuck, 0u);
}

TEST(OpenLoop, ScriptedOverloadBurstRaisesPressure) {
  RunConfig calm = open_loop_run(SystemKind::kJenga, 1);
  calm.arrival.rate_tps = 20.0;
  calm.mempool.capacity = 16;
  RunConfig bursty = calm;
  bursty.faults_plan.overload.push_back(
      security::OverloadBurst{.at = kSecond, .duration = 6 * kSecond, .rate_multiplier = 10.0});
  const RunResult a = run_experiment(calm);
  const RunResult b = run_experiment(bursty);
  ASSERT_TRUE(b.ingress.enabled);
  // The burst compresses arrivals into a shorter window: pools fill deeper.
  EXPECT_GE(b.ingress.pools.peak_resident, a.ingress.pools.peak_resident);
  // Both runs still drain cleanly through admission control.
  EXPECT_TRUE(a.ingress.invariants.ok()) << a.ingress.invariants.describe();
  EXPECT_TRUE(b.ingress.invariants.ok()) << b.ingress.invariants.describe();
  EXPECT_EQ(b.ingress.client.generated,
            b.stats.submitted + b.stats.rejected + b.stats.expired);
}

TEST(OpenLoop, SameSeedSameAdmissionSequence) {
  const RunResult a = run_experiment(open_loop_run(SystemKind::kJenga, 1));
  const RunResult b = run_experiment(open_loop_run(SystemKind::kJenga, 1));
  EXPECT_EQ(a.ingress.admission_digest, b.ingress.admission_digest);
  EXPECT_EQ(a.ledger_digest, b.ledger_digest);
  RunConfig other = open_loop_run(SystemKind::kJenga, 1);
  other.seed = 99;
  const RunResult c = run_experiment(other);
  EXPECT_NE(a.ingress.admission_digest, c.ingress.admission_digest);
}

TEST(OpenLoop, MempoolTelemetrySurfaces) {
  const RunResult r = run_experiment(open_loop_run(SystemKind::kJenga, 1));
  ASSERT_TRUE(r.telemetry);
  const auto& reg = r.telemetry->registry;
  const auto* admitted = reg.find_counter("mempool.admitted");
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(admitted->value(), r.ingress.pools.totals.admitted);
  const auto* dispatched = reg.find_counter("mempool.dispatched");
  ASSERT_NE(dispatched, nullptr);
  EXPECT_EQ(dispatched->value(), r.stats.submitted);
  // Fee-tier wait histograms exist for every tier that dispatched something.
  std::uint64_t waits = 0;
  for (int t = 0; t < 3; ++t) {
    if (const auto* h = reg.find_histogram("mempool.wait_us.tier" + std::to_string(t)))
      waits += h->count();
  }
  EXPECT_EQ(waits, r.stats.submitted);
}

TEST(OpenLoop, LegacyModesUnaffected) {
  // arrival.mode == kNone must leave the pre-mempool paths bit-identical:
  // no ingress report, no rejected/expired counts.
  RunConfig cfg;
  cfg.kind = SystemKind::kJenga;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 60;
  cfg.trace.num_contracts = 500;
  cfg.trace.num_accounts = 1000;
  const RunResult r = run_experiment(cfg);
  EXPECT_FALSE(r.ingress.enabled);
  EXPECT_EQ(r.stats.rejected, 0u);
  EXPECT_EQ(r.stats.expired, 0u);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, 60u);
}

}  // namespace
}  // namespace jenga::harness
