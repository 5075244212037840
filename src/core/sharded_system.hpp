// The part every sharded system here shares: the per-shard ledger plus
// cross-shard completion (the "Building Blocks of Sharding Blockchain
// Systems" survey's split).  Jenga and the three baselines differ in how a
// transaction travels between shards, and only there; when a transaction
// counts as committed, how its latency is measured, and what the ledger
// digest covers are defined once, in this class.
//
// A concrete system registers one ShardLedger per shard in `ledgers_`, calls
// track_submit() when a client submits and tx_shard_finished() as each
// involved shard settles its share.  The harness runner and the invariant
// audit read every system kind through this base.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "core/protocol_messages.hpp"
#include "ledger/block.hpp"
#include "ledger/locks.hpp"
#include "ledger/state_store.hpp"
#include "simnet/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace jenga::exec {
class Engine;
}

namespace jenga::core {

/// Initial accounts, contract logic and contract states.  Systems take it by
/// value and move each initial state into its home shard's store, so a caller
/// that moves its Genesis in keeps no copy past construction.  Logic is shared
/// (shared_ptr), never copied.
struct Genesis {
  std::uint64_t num_accounts = 0;
  std::uint64_t initial_balance = 0;
  std::vector<std::shared_ptr<const vm::ContractLogic>> contracts;
  std::vector<ledger::ContractState> initial_states;  // parallel to contracts
};

/// One shard's ledger: its state partition, the locks over it, and its chain.
/// Each system's per-shard engine extends this with its own queues.
struct ShardLedger {
  ShardId id;
  ledger::StateStore store;
  ledger::LockManager locks;
  ledger::Chain chain;

  explicit ShardLedger(ShardId s) : id(s), chain(s) {}
};

class ShardedSystem {
 public:
  ShardedSystem(const ShardedSystem&) = delete;
  ShardedSystem& operator=(const ShardedSystem&) = delete;

  /// Attaches a telemetry context (nullptr detaches): per-tx phase tracing,
  /// exec-engine metrics, and BFT sub-spans in every replica.  Call before
  /// start().  Recording is passive — an instrumented run is bit-identical
  /// to a bare one.
  virtual void set_telemetry(telemetry::Telemetry* t);

  [[nodiscard]] const TxStats& stats() const { return stats_; }
  /// Transactions submitted but neither committed nor aborted yet (the
  /// open-loop dispatcher's credit window reads this).
  [[nodiscard]] std::size_t in_flight() const { return tracker_.size(); }

  /// Average per-node storage at the current moment (Fig. 7a's metric).
  /// This base fills the chain and state parts; each system adds the logic
  /// it stores.
  [[nodiscard]] virtual StorageReport storage_report() const;

  [[nodiscard]] const ledger::Chain& shard_chain(ShardId s) const {
    return ledgers_[s.value]->chain;
  }
  [[nodiscard]] const ledger::StateStore& shard_store(ShardId s) const {
    return ledgers_[s.value]->store;
  }
  [[nodiscard]] std::uint64_t total_account_balance() const;
  [[nodiscard]] std::size_t held_locks() const;
  /// Canonical digest over every shard's chain tip and state store — the
  /// ledger root the determinism tests compare across exec worker counts.
  [[nodiscard]] Hash256 ledger_digest() const;

 protected:
  ShardedSystem(sim::Simulator& sim, std::uint32_t exec_workers);
  // Not virtual: nothing owns a system through this base, and the concrete
  // destructors stay direct calls.
  ~ShardedSystem();

  /// Submit bookkeeping: counts the submission and starts tracking `tx`
  /// until `involved_shards` shards have settled it.
  void track_submit(const TxPtr& tx, std::size_t involved_shards);
  /// One involved shard settled its share of the tx (`ok` = committed
  /// there).  When the last share lands, the tx completes: committed only if
  /// every share committed, with latency measured from submission.
  void tx_shard_finished(const Hash256& tx_hash, bool ok);
  /// The tracked (submitted, not yet completed) transaction, or nullptr.
  [[nodiscard]] TxPtr tracked_tx(const Hash256& tx_hash) const;

  struct TrackEntry {
    SimTime submitted = 0;
    std::uint32_t shards_left = 0;
    bool aborted = false;
    TxPtr tx;
  };

  sim::Simulator& sim_;
  /// Every shard's ledger, indexed by shard id; owned by the concrete system.
  std::vector<ShardLedger*> ledgers_;
  std::unordered_map<Hash256, TrackEntry> tracker_;
  TxStats stats_;
  /// Batch execution engine shared by every execution site.
  std::unique_ptr<exec::Engine> exec_engine_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace jenga::core
