// Scripted fault injection + invariant checking for chaos experiments.
//
// A FaultPlan is a declarative schedule of adversarial events over simulation
// time: link-fault profile ramps (drop/duplicate/delay), bidirectional
// partition windows, crash/recover churn, static Byzantine role assignments,
// leader assassination (crash whichever node leads a shard at a chosen
// moment), and epoch-boundary churn (nodes departing/rejoining exactly at a
// reconfiguration cutover).  FaultInjector::arm() translates the plan into
// simulator events once; the same plan + the same seed replays bit-identically.
//
// After the run drains, check_invariants() audits the safety properties that
// must hold under ANY fault schedule the protocol claims to tolerate:
//   - no leaked locks (every Phase-1 lock released by Phase-3 commit/abort),
//   - conservation of total balance (minus explicitly charged fees),
//   - no two replicas of one group deciding different values at a height,
//   - no transaction left in limbo (neither committed nor aborted).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "consensus/bft.hpp"
#include "core/jenga_system.hpp"
#include "mempool/ingress.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"

namespace jenga::security {

/// At time `at`, replace the network's global link-fault profile.  A sequence
/// of ramps sweeps drop rates up and down over a run.
struct FaultRamp {
  SimTime at = 0;
  sim::LinkFaults faults;
};

/// Between [start, end) the `isolated` nodes sit in their own partition
/// group: no traffic crosses between them and the rest of the network.
struct PartitionWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::vector<NodeId> isolated;
  std::uint8_t group = 1;  // distinct groups allow overlapping windows
};

/// Crash `node` at crash_at; bring it back at recover_at (0 = stays down).
/// Recovery triggers the BFT state-sync path rather than a silent resume.
struct CrashWindow {
  NodeId node;
  SimTime crash_at = 0;
  SimTime recover_at = 0;
};

/// Assign a consensus-level Byzantine role to a node for the whole run.
struct ByzantineAssignment {
  NodeId node;
  consensus::ByzantineMode mode = consensus::ByzantineMode::kSilent;
};

/// At time `at`, crash whichever node currently leads shard `shard`'s
/// consensus (resolved at fire time, not at arm time); revive it at
/// recover_at (0 = stays down).
struct LeaderAssassination {
  ShardId shard;
  SimTime at = 0;
  SimTime recover_at = 0;
};

/// Node churn executed atomically inside epoch `epoch`'s cutover, between the
/// old lattice stopping and the new one starting: `crash` nodes depart,
/// `revive` nodes rejoin (and immediately state-sync into whatever group the
/// new lattice assigns them to).
struct EpochBoundaryChurn {
  std::uint64_t epoch = 0;
  std::vector<NodeId> crash;
  std::vector<NodeId> revive;
};

/// Storage-layer fault operations (durable backend; see MemStorageEnv).
enum class StorageFaultKind : std::uint8_t {
  kTornWrite = 0,   // next WAL append persists only `param` bytes
  kDroppedFsync,    // fsyncs durabilize nothing for `window` of sim time
  kBitFlip,         // flip durable WAL bit `param` (latent media corruption)
};

/// At time `at`, hit shard `shard`'s simulated disk with one storage fault.
struct StorageFault {
  ShardId shard;
  SimTime at = 0;
  StorageFaultKind kind = StorageFaultKind::kTornWrite;
  /// kTornWrite: bytes of the next append that survive.  kBitFlip: bit offset
  /// into the durable WAL image (wraps, so raw entropy is fine).
  std::uint64_t param = 0;
  /// kDroppedFsync: how long the drive keeps lying about fsync.
  SimTime window = 0;
};

/// Between [at, at+duration) the workload's offered rate is scaled by
/// `rate_multiplier` (a flash crowd scripted like any other fault).  Applied
/// through the injector's overload hook — the arrival process is not a
/// network entity, so the plan reaches it by callback rather than by NodeId.
/// Windows are restored to ×1.0 at their end; overlapping windows are not
/// composed (the latest event wins), so keep them disjoint in plans.
struct OverloadBurst {
  SimTime at = 0;
  SimTime duration = 0;
  double rate_multiplier = 1.0;
};

/// Gray (partial) failures: the victim stays up and keeps participating in
/// consensus, it is just degraded — the failure mode crash detectors miss
/// and the phi-accrual detector (security/detector.hpp) exists for.
enum class GrayFaultKind : std::uint8_t {
  kLinkDegrade = 0,  // extra latency on the node<->peer link, both directions
  kLossyNic,         // node silently loses a fraction of inbound deliveries
  kSlowNode,         // node serializes egress slower + stalls inbound processing
};

/// Between [at, at+duration) apply one gray degradation; the window restores
/// the clean profile at its end.  Windows on one victim should be disjoint
/// (the latest event wins, like OverloadBurst).
struct GrayFault {
  GrayFaultKind kind = GrayFaultKind::kSlowNode;
  SimTime at = 0;
  SimTime duration = 0;
  NodeId node;                    // the victim (kLinkDegrade: endpoint A)
  NodeId peer;                    // kLinkDegrade only: endpoint B
  SimTime extra_delay = 0;        // kLinkDegrade: added one-way latency
  double drop_rate = 0.0;         // kLossyNic: inbound delivery loss fraction
  double serialize_factor = 1.0;  // kSlowNode: egress serialization multiplier
  SimTime proc_delay = 0;         // kSlowNode: fixed extra inbound delay
};

struct FaultPlan {
  std::vector<FaultRamp> ramps;
  std::vector<PartitionWindow> partitions;
  std::vector<CrashWindow> crashes;
  std::vector<ByzantineAssignment> byzantine;
  std::vector<LeaderAssassination> assassinations;
  std::vector<EpochBoundaryChurn> epoch_churn;
  std::vector<StorageFault> storage;
  std::vector<OverloadBurst> overload;
  std::vector<GrayFault> gray;

  [[nodiscard]] std::size_t event_count() const {
    return ramps.size() + partitions.size() + crashes.size() + byzantine.size() +
           assassinations.size() + epoch_churn.size() + storage.size() + overload.size() +
           gray.size();
  }
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, sim::Network& net, core::JengaSystem& sys)
      : sim_(sim), net_(net), sys_(sys) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of `plan` (copied) on the simulator.  Call once,
  /// before running the simulation; Byzantine assignments apply immediately.
  void arm(FaultPlan plan);

  /// Receiver for OverloadBurst events (the open-loop client's
  /// set_rate_multiplier, typically).  Set before arm() if the plan scripts
  /// overload; bursts armed without a hook are dropped with a count.
  void set_overload_hook(std::function<void(double)> hook) {
    overload_hook_ = std::move(hook);
  }

  [[nodiscard]] std::size_t events_armed() const { return events_armed_; }

 private:
  sim::Simulator& sim_;
  sim::Network& net_;
  core::JengaSystem& sys_;
  FaultPlan plan_;
  std::function<void(double)> overload_hook_;
  std::size_t events_armed_ = 0;
};

/// Outcome of the post-run safety audit.  `ok()` is the chaos-test verdict.
struct InvariantReport {
  std::size_t leaked_locks = 0;
  std::uint64_t expected_balance = 0;
  std::uint64_t actual_balance = 0;
  std::uint64_t divergent_decides = 0;
  std::size_t limbo_txs = 0;
  /// Epoch-boundary audits (performed by the system at every cutover, after
  /// the force-abort sweep and before the new lattice starts).
  std::uint64_t boundary_lock_leaks = 0;
  std::uint64_t boundary_balance_mismatches = 0;
  /// Informational: how many reconfigurations the run survived, and how many
  /// in-flight transactions were carried across a boundary.
  std::uint64_t epoch_transitions = 0;
  std::uint64_t txs_requeued = 0;
  /// A recovery/rehome sync that ended on the wrong root is a safety
  /// violation (an honest peer always exists in tolerated configurations).
  std::uint64_t state_sync_root_mismatches = 0;
  /// Informational storage/sync traffic: tampered proofs rejected, fallbacks
  /// taken, corrupt durable images refused.
  std::uint64_t state_sync_proof_rejections = 0;
  std::uint64_t state_sync_full_syncs = 0;
  std::uint64_t storage_recovery_refusals = 0;
  /// 2PC rounds still past the stuck timeout when the run drained — a wedged
  /// cross-shard transfer the protocol never finalized (liveness violation).
  std::size_t twopc_stuck = 0;
  /// Total watchdog flags over the whole run (informational: transient stalls
  /// that later resolved, e.g. a partition window that healed).
  std::uint64_t twopc_stuck_total = 0;
  /// Ingress mempool audits (populated when an IngressSet is passed in).
  /// Bounded-queue check: residents and lifetime peak must fit capacity.
  std::size_t mempool_resident = 0;
  std::size_t mempool_peak_resident = 0;
  std::size_t mempool_capacity = 0;  // sum over shards; 0 = no ingress audited
  /// Conservation: every admitted tx must be accounted as dispatched,
  /// evicted, expired, or still resident.  A mismatch means a tx vanished
  /// (or was double-counted) inside the admission layer.
  std::uint64_t mempool_unaccounted = 0;

  [[nodiscard]] bool mempool_bounded() const {
    return mempool_capacity == 0 || (mempool_resident <= mempool_capacity &&
                                     mempool_peak_resident <= mempool_capacity);
  }
  [[nodiscard]] bool balance_conserved() const { return expected_balance == actual_balance; }
  [[nodiscard]] bool ok() const {
    return leaked_locks == 0 && balance_conserved() && divergent_decides == 0 &&
           limbo_txs == 0 && boundary_lock_leaks == 0 && boundary_balance_mismatches == 0 &&
           state_sync_root_mismatches == 0 && twopc_stuck == 0 && mempool_bounded() &&
           mempool_unaccounted == 0;
  }
  /// Human-readable one-per-line summary (for test failure output and the
  /// resilience benchmark report).
  [[nodiscard]] std::string describe() const;
};

/// Audits `sys` after the simulation drained: leaked locks, balance
/// conservation and limbo txs, on any system kind.  `initial_balance` is the
/// sum of all genesis account balances; fees charged during the run are the
/// only legitimate sink.  Pass the run's IngressSet to additionally audit the
/// admission layer (bounded depth, entry conservation) — overload runs must.
[[nodiscard]] InvariantReport check_invariants(const core::ShardedSystem& sys,
                                               std::uint64_t initial_balance,
                                               const mempool::IngressSet* ingress = nullptr);
/// The same audit plus Jenga's own: stuck 2PC rounds, divergent decides,
/// epoch-boundary audits and state-sync roots.
[[nodiscard]] InvariantReport check_invariants(const core::JengaSystem& sys,
                                               std::uint64_t initial_balance,
                                               const mempool::IngressSet* ingress = nullptr);

}  // namespace jenga::security
