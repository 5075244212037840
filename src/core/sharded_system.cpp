#include "core/sharded_system.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "exec/engine.hpp"

namespace jenga::core {

ShardedSystem::ShardedSystem(sim::Simulator& sim, std::uint32_t exec_workers) : sim_(sim) {
  exec::EngineOptions eo;
  eo.workers = exec_workers;
  exec_engine_ = std::make_unique<exec::Engine>(eo);
}

ShardedSystem::~ShardedSystem() = default;

void ShardedSystem::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  exec_engine_->set_metrics(t == nullptr ? nullptr : &t->registry);
}

void ShardedSystem::track_submit(const TxPtr& tx, std::size_t involved_shards) {
  const SimTime now = sim_.now();
  ++stats_.submitted;
  if (stats_.first_submit_time == 0 && stats_.submitted == 1) stats_.first_submit_time = now;
  tracker_[tx->hash] = TrackEntry{now, static_cast<std::uint32_t>(involved_shards), false, tx};
  if (telemetry_ != nullptr) telemetry_->tracer.on_submit(tx->hash, now);
}

void ShardedSystem::tx_shard_finished(const Hash256& tx_hash, bool ok) {
  const auto it = tracker_.find(tx_hash);
  if (it == tracker_.end()) return;
  TrackEntry& e = it->second;
  e.aborted = e.aborted || !ok;
  if (e.shards_left == 0 || --e.shards_left > 0) return;
  const SimTime now = sim_.now();
  if (e.aborted) {
    ++stats_.aborted;
  } else {
    ++stats_.committed;
    stats_.total_commit_latency += now - e.submitted;
    stats_.commit_latencies.push_back(now - e.submitted);
    stats_.last_commit_time = std::max(stats_.last_commit_time, now);
  }
  if (telemetry_ != nullptr) {
    telemetry_->tracer.on_finish(tx_hash, !e.aborted, now);
    telemetry_->registry.counter(e.aborted ? "tx.aborted" : "tx.committed").inc();
    if (!e.aborted) telemetry_->registry.histogram("tx.commit_latency_us").record(now - e.submitted);
  }
  tracker_.erase(it);
}

void ShardedSystem::charge_fee(ShardLedger& shard, AccountId payer, std::uint64_t fee) {
  const std::uint64_t bal = shard.store.balance(payer).value_or(0);
  const std::uint64_t charge = std::min(bal, fee);
  shard.store.set_balance(payer, bal - charge);
  stats_.fees_charged += charge;
}

TxPtr ShardedSystem::tracked_tx(const Hash256& tx_hash) const {
  const auto it = tracker_.find(tx_hash);
  return it == tracker_.end() ? nullptr : it->second.tx;
}

StorageReport ShardedSystem::storage_report() const {
  StorageReport r;
  std::uint64_t chain = 0, state = 0;
  for (const ShardLedger* s : ledgers_) {
    chain += s->chain.total_bytes();
    state += s->store.state_storage_bytes();
  }
  r.chain_bytes_per_node = chain / ledgers_.size();
  r.state_bytes_per_node = state / ledgers_.size();
  return r;
}

std::uint64_t ShardedSystem::total_account_balance() const {
  std::uint64_t sum = 0;
  for (const ShardLedger* s : ledgers_) sum += s->store.total_balance();
  return sum;
}

std::size_t ShardedSystem::held_locks() const {
  std::size_t n = 0;
  for (const ShardLedger* s : ledgers_) n += s->locks.held_locks();
  return n;
}

Hash256 ShardedSystem::ledger_digest() const {
  crypto::Sha256 h;
  h.update("jenga/ledger-digest");
  for (const ShardLedger* s : ledgers_) {
    h.update_u64(s->id.value);
    h.update_u64(s->chain.height());
    h.update(s->chain.tip_hash());
    h.update(s->store.digest());
  }
  return h.finish();
}

}  // namespace jenga::core
