// Experiment runner: every system completes a small trace replay, metrics
// are sane, and the headline comparative shapes already show at small scale.
#include <gtest/gtest.h>

#include <string>

#include "common/hex.hpp"
#include "harness/runner.hpp"

namespace jenga::harness {
namespace {

RunConfig small_run(SystemKind kind, std::size_t transfer_txs = 0) {
  RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 120;
  cfg.transfer_txs = transfer_txs;
  cfg.inject_window = 30 * kSecond;
  cfg.max_sim_time = 900 * kSecond;
  cfg.trace.num_contracts = 1000;
  cfg.trace.num_accounts = 2000;
  cfg.trace.max_steps = 12;
  cfg.trace.max_contracts_per_tx = 6;
  return cfg;
}

class RunnerTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(RunnerTest, CompletesWorkload) {
  const RunResult r = run_experiment(small_run(GetParam()));
  EXPECT_EQ(r.stats.submitted, 120u);
  EXPECT_EQ(r.stats.committed + r.stats.aborted, 120u)
      << "committed=" << r.stats.committed << " aborted=" << r.stats.aborted;
  EXPECT_GT(r.stats.committed, 90u);
  EXPECT_GT(r.tps, 0.0);
  EXPECT_GT(r.latency_s, 0.0);
  EXPECT_GT(r.storage.total(), 0u);
  EXPECT_GT(r.sim_events, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, RunnerTest,
    ::testing::Values(SystemKind::kJenga, SystemKind::kJengaNoLattice,
                      SystemKind::kJengaNoGlobalLogic, SystemKind::kCxFunc,
                      SystemKind::kSingleShard, SystemKind::kPyramid),
    [](const auto& info) {
      switch (info.param) {
        case SystemKind::kJenga: return "Jenga";
        case SystemKind::kJengaNoLattice: return "JengaNoOLS";
        case SystemKind::kJengaNoGlobalLogic: return "JengaNoNWLS";
        case SystemKind::kCxFunc: return "CxFunc";
        case SystemKind::kSingleShard: return "SingleShard";
        case SystemKind::kPyramid: return "Pyramid";
      }
      return "?";
    });

TEST(RunnerShapes, JengaBeatsCxFuncOnLatency) {
  auto jenga = run_experiment(small_run(SystemKind::kJenga));
  auto cxf = run_experiment(small_run(SystemKind::kCxFunc));
  EXPECT_LT(jenga.latency_s, cxf.latency_s);
}

TEST(RunnerShapes, JengaHasNoCrossShardContractTraffic) {
  auto jenga = run_experiment(small_run(SystemKind::kJenga));
  EXPECT_EQ(jenga.traffic.messages[1], 0u);
  auto cxf = run_experiment(small_run(SystemKind::kCxFunc));
  EXPECT_GT(cxf.traffic.messages[1], 0u);
}

TEST(RunnerShapes, PaperNodesPerShardTable) {
  EXPECT_EQ(paper_nodes_per_shard(4), 180u);
  EXPECT_EQ(paper_nodes_per_shard(6), 200u);
  EXPECT_EQ(paper_nodes_per_shard(8), 210u);
  EXPECT_EQ(paper_nodes_per_shard(10), 230u);
  EXPECT_EQ(paper_nodes_per_shard(12), 240u);
}

TEST(RunnerShapes, DeterministicResults) {
  auto a = run_experiment(small_run(SystemKind::kJenga));
  auto b = run_experiment(small_run(SystemKind::kJenga));
  EXPECT_EQ(a.stats.committed, b.stats.committed);
  EXPECT_EQ(a.stats.total_commit_latency, b.stats.total_commit_latency);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(RunnerShapes, TransfersFasterThanContracts) {
  RunConfig transfers = small_run(SystemKind::kCxFunc);
  transfers.contract_txs = 0;
  transfers.transfer_txs = 120;
  RunConfig contracts = small_run(SystemKind::kCxFunc);
  const auto rt = run_experiment(transfers);
  const auto rc = run_experiment(contracts);
  EXPECT_EQ(rt.stats.committed + rt.stats.aborted, 120u);
  EXPECT_LT(rt.latency_s, rc.latency_s);  // Fig. 3b's gap, latency view
}

// --- Digest pins ------------------------------------------------------------
// Exact outcomes of small runs, recorded as constants: the cross-commit
// oracle for changes that must keep every simulated result bit-identical.
// A run that legitimately changes behaviour re-records its row and says why.

RunConfig pinned_run(SystemKind kind) { return small_run(kind, /*transfer_txs=*/40); }

RunConfig rumor_batched_run(SystemKind kind) {
  RunConfig cfg = pinned_run(kind);
  cfg.net.set_all_transports(sim::Transport::kRumor);  // relays ride batch frames
  return cfg;
}

RunConfig durable_run() {
  RunConfig cfg = pinned_run(SystemKind::kJenga);
  cfg.storage_backend = core::StorageBackendKind::kDurable;
  return cfg;
}

RunConfig gray_run() {
  RunConfig cfg = pinned_run(SystemKind::kJenga);
  security::GrayFault lossy;
  lossy.kind = security::GrayFaultKind::kLossyNic;
  lossy.at = 5 * kSecond;
  lossy.duration = 20 * kSecond;
  lossy.node = NodeId{9};
  lossy.drop_rate = 0.3;
  cfg.faults_plan.gray.push_back(lossy);
  return cfg;
}

/// Traffic spread over two reshuffles, timed so that no client copy is in
/// flight across a cutover and no force-aborted transfer is refunded around
/// one.  The horizon only bounds a run that wedges: every pipeline, including
/// kNoGlobalLogic's multi-round continuations across a cutover, drains well
/// before it.
RunConfig epoch_run(SystemKind kind) {
  RunConfig cfg = pinned_run(kind);
  cfg.inject_window = 100 * kSecond;
  cfg.epoch_interval = 37 * kSecond;
  cfg.max_sim_time = 300 * kSecond;
  return cfg;
}

struct DigestPin {
  const char* name;
  RunConfig config;
  const char* ledger_digest;
  const char* state_digest;
  std::uint64_t sim_events;
  std::uint64_t committed;
  std::uint64_t aborted;
};

void PrintTo(const DigestPin& pin, std::ostream* os) { *os << pin.name; }

class DigestPinTest : public ::testing::TestWithParam<DigestPin> {};

TEST_P(DigestPinTest, MatchesRecordedRun) {
  const DigestPin& pin = GetParam();
  const RunResult r = run_experiment(pin.config);
  EXPECT_EQ(to_hex(r.ledger_digest), pin.ledger_digest);
  EXPECT_EQ(to_hex(r.state_digest), pin.state_digest);
  EXPECT_EQ(r.sim_events, pin.sim_events);
  EXPECT_EQ(r.stats.committed, pin.committed);
  EXPECT_EQ(r.stats.aborted, pin.aborted);
  // Every submitted tx reaches a terminal state before the horizon.
  EXPECT_EQ(r.stats.committed + r.stats.aborted, r.stats.submitted);
}

constexpr const char* kNoStateDigest =
    "0000000000000000000000000000000000000000000000000000000000000000";

INSTANTIATE_TEST_SUITE_P(
    Recorded, DigestPinTest,
    ::testing::Values(
        DigestPin{"Jenga", pinned_run(SystemKind::kJenga),
                  "d465131d4b79223d3533edac44ef846264028c485cfcb4ecc54cdbf34d46c68c",
                  "7e208afd4d6954854a135d38f9f50d7ade00d4cc11846e6a0c6521d6e0d79dd9",
                  29112, 160, 0},
        DigestPin{"JengaNoOLS", pinned_run(SystemKind::kJengaNoLattice),
                  "be1980bcdab79cd21eda282dc6ce1ba149a98b03b15210f9d5ffbb4e4f54a010",
                  "7e208afd4d6954854a135d38f9f50d7ade00d4cc11846e6a0c6521d6e0d79dd9",
                  13375, 160, 0},
        DigestPin{"JengaNoNWLS", pinned_run(SystemKind::kJengaNoGlobalLogic),
                  "f12379ffde6034f8261ce26be51421a372ef27b1915e5182a1b70fbcc1572889",
                  "a9d7c805b559bea95747390ac46043a11ab8391af46df3a19137835979d32dc5",
                  63075, 154, 6},
        DigestPin{"CxFunc", pinned_run(SystemKind::kCxFunc),
                  "36c0cac3c0b2bb21320db4082762da6f1582ce2719fe71d18e1d113937c3bd9c",
                  kNoStateDigest,
                  14660, 160, 0},
        DigestPin{"SingleShard", pinned_run(SystemKind::kSingleShard),
                  "2fba57c802ab4d37119fe0f7fa70c04c0ce9c0bebe915db53466e661f5f94b0b",
                  kNoStateDigest,
                  11650, 160, 0},
        DigestPin{"Pyramid", pinned_run(SystemKind::kPyramid),
                  "37bc1891df57bd5350306f8631fbef598bdce7a79973f2e8fbe276be81303cf4",
                  kNoStateDigest,
                  12821, 160, 0},
        DigestPin{"JengaRumorBatched", rumor_batched_run(SystemKind::kJenga),
                  "2ddd91405a69a02feccd30d126b9ee7ca2a287d09e198b1f8dcf19aee9d728ba",
                  "7e208afd4d6954854a135d38f9f50d7ade00d4cc11846e6a0c6521d6e0d79dd9",
                  67799, 160, 0},
        DigestPin{"JengaNoNWLSRumorBatched", rumor_batched_run(SystemKind::kJengaNoGlobalLogic),
                  "c027969cc4e19c5d8545ee6077fd98b9cbd8e1ebcaa47cc2cee657e3b67e6599",
                  "5ba488320619c80bbcc5853a4ad8be7b56771f137e78ea99e7a6230617c5a8e3",
                  97690, 151, 9},
        DigestPin{"JengaDurable", durable_run(),
                  "d465131d4b79223d3533edac44ef846264028c485cfcb4ecc54cdbf34d46c68c",
                  "7e208afd4d6954854a135d38f9f50d7ade00d4cc11846e6a0c6521d6e0d79dd9",
                  29112, 160, 0},
        DigestPin{"JengaGray", gray_run(),
                  "457726e7f4d6a220f98ed31a19342f02bf0537824dd8c8595462f84cc7b1b0cf",
                  "cb1c90e6dcfb07bcc0863dd7e1c63fa9e7d67c273f0f7982c11ffdd2a55aa437",
                  54616, 82, 78},
        DigestPin{"JengaEpoch", epoch_run(SystemKind::kJenga),
                  "b7f7b7e8f8942df986f3a386bd6cc2ca21fca0285654c2d6c836cf9516369d7a",
                  "7e208afd4d6954854a135d38f9f50d7ade00d4cc11846e6a0c6521d6e0d79dd9",
                  54521, 160, 0},
        DigestPin{"JengaNoOLSEpoch", epoch_run(SystemKind::kJengaNoLattice),
                  "3b8ae7e0ccaa755674b89a526d30a670b231545f4151b5c4838626154dd99334",
                  "7e208afd4d6954854a135d38f9f50d7ade00d4cc11846e6a0c6521d6e0d79dd9",
                  34084, 160, 0},
        DigestPin{"JengaNoNWLSEpoch", epoch_run(SystemKind::kJengaNoGlobalLogic),
                  "1db638cdd285287204bb5ca9299b1426425df9acd35c1b93ab303c0e5e159ef7",
                  "3de6fde8c60bade5368d5cb6f46f639cfcdeac273c8d89756492e398ec0c042f",
                  85432, 158, 2}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace jenga::harness
