// The Jenga system: S state shards × S execution channels over N nodes,
// network-wide logic storage, and the three-phase cross-shard consensus
// protocol (paper §V).
//
// Simulation architecture
// -----------------------
// Consensus is fully per-node: every node runs a BFT replica for its state
// shard and (in the full pipeline) one for its execution channel, and all
// protocol messages travel through the simulated network with real timing.
// The *application state* behind each group (state store, locks, chain,
// mempool) is kept as one logical copy per group: honest replicas are
// deterministic and decide identical values, so replicating the bytes per
// node would multiply memory without changing any observable metric.  The
// first replica to decide a height performs the shared state transition;
// every replica then performs its own node-local forwarding duty (subgroup
// relaying), which is where Jenga's communication pattern lives.
//
// Pipelines (the Fig. 5b/6b ablations):
//   kFull            — grants/results travel shard<->channel through
//                      overlapped subgroups (intra-group broadcasts only).
//   kNoLattice       — "Jenga w/o Orthogonal Lattice Structure": logic is
//                      still everywhere, but execution happens on a state
//                      shard chosen by tx hash, and states/results move with
//                      ordinary cross-shard messages (client-relayed).
//   kNoGlobalLogic   — "Jenga w/o Network-Wide Logic Storage": the lattice
//                      stands, but logic lives only on its home shard, so a
//                      transaction executes step-by-step across the home
//                      shards of its contracts (multi-round), with
//                      intermediate results relayed through subgroups.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stats.hpp"
#include "consensus/bft.hpp"
#include "core/epoch.hpp"
#include "core/lattice.hpp"
#include "core/protocol_messages.hpp"
#include "core/recovery.hpp"
#include "core/sharded_system.hpp"
#include "ledger/storage_env.hpp"
#include "simnet/network.hpp"

namespace jenga::security {
class FailureDetector;
}

namespace jenga::gossip {
class RumorMesh;
class Batcher;
struct RumorStats;
struct BatchStats;
}  // namespace jenga::gossip

namespace jenga::core {

/// Shared state-gathering unit and a decision's per-target result batches
/// (defined in jenga_system.cpp).
struct GatherUnit;
struct ResultBatches;

enum class Pipeline : std::uint8_t { kFull = 0, kNoLattice, kNoGlobalLogic };

/// What sits under each shard's StateStore (DESIGN.md §9).
enum class StorageBackendKind : std::uint8_t {
  kNone = 0,   // trie-authenticated only, nothing persisted (pre-PR behaviour)
  kInMemory,   // InMemoryBackend: the bit-identity oracle
  kDurable,    // DurableBackend over a per-shard MemStorageEnv (WAL + snapshots)
};

struct JengaConfig {
  std::uint32_t num_shards = 4;
  std::uint32_t nodes_per_shard = 16;  // must be a multiple of num_shards
  std::uint64_t seed = 1;
  std::uint32_t max_block_items = 4096;   // paper: 4096 txs per consensus round
  SimTime view_timeout = 120 * kSecond;
  SimTime pending_timeout = 90 * kSecond;  // channel-side state-gathering timeout
  /// Lock conflicts re-enqueue the transaction for this many later blocks
  /// before Phase 1 gives up and emits an AbortRequest (mempool retry, as in
  /// real implementations).
  std::uint32_t max_lock_retries = 24;
  /// 2PC inflight watchdog: a cross-shard transfer whose debit applied but
  /// whose round has not finalized within this window is flagged as stuck
  /// (`twopc.stuck` counter, audited by security::check_invariants).  Beyond
  /// flagging, the watchdog drives the recovery ladder below: a flagged
  /// round is re-requested and, failing that, force-settled — so a gray
  /// fault degrades latency, never liveness.  0 disables both.
  SimTime twopc_stuck_timeout = 60 * kSecond;
  /// Stuck-2PC recovery ladder (probe -> force-abort -> refund + retry); see
  /// core/recovery.hpp and DESIGN.md §14.  `recovery.enabled = false`
  /// restores the observe-only watchdog.
  RecoveryConfig recovery;
  Pipeline pipeline = Pipeline::kFull;
  /// Worker threads for batch transaction execution (src/exec/).  Results are
  /// bit-identical for every value; 1 = serial, no threads spawned.
  std::uint32_t exec_workers = 1;

  // --- Live epoch reconfiguration (paper §V-D) -----------------------------
  /// > 0: reshuffle the lattice every `epoch_interval` of simulated time.
  /// 0 (default) disables reconfiguration entirely — the lattice is built
  /// once and every run is bit-identical to the pre-epoch behaviour.
  SimTime epoch_interval = 0;

  // --- Durable authenticated state (DESIGN.md §9) --------------------------
  StorageBackendKind storage_backend = StorageBackendKind::kNone;
  /// Durable backend: full snapshot every N commits (0 = WAL-only).
  std::uint32_t storage_snapshot_interval = 64;
  /// Model proof-verified state sync when a node recovers from a crash or is
  /// rehomed to a different shard at an epoch cutover: reopen its durable
  /// image, then fetch divergent state from a peer as snapshot + per-key
  /// Merkle proofs (Byzantine peers serve tampered entries, which must be
  /// rejected), falling back to an unverified full copy if every proof-
  /// serving peer lied.
  bool model_state_sync = false;
};

/// Counters for relay-certificate verification (mirrored into telemetry as
/// `relay.*`).  Every grant/result batch carries the commit certificate of
/// the consensus decision that produced it; receivers check it before
/// ingesting.  Batches arriving inside a gossip frame are pooled into one
/// aggregate-verified pass (`batch_passes`) covering `batch_certs`
/// certificates — the ISSUE's ≥4× signature-check reduction.
struct CertVerifyStats {
  std::uint64_t individual_checks = 0;  // certs verified one at a time
  std::uint64_t batch_passes = 0;       // pooled batch verifications run
  std::uint64_t batch_certs = 0;        // certs covered by those passes
  std::uint64_t batch_fallbacks = 0;    // pooled pass failed -> per-cert retry
  std::uint64_t invalid_certs = 0;      // batches rejected (bad cert)
  std::uint64_t unsigned_batches = 0;   // synthetic late-abort answers (no cert)
};

/// Counters for recovery-time state sync (mirrored into telemetry as
/// `state_sync.*` / `storage.*`; audited by security::check_invariants).
struct StateSyncStats {
  std::uint64_t syncs = 0;             // recovery/rehome syncs modeled
  std::uint64_t already_current = 0;   // durable image matched the group root
  std::uint64_t keys_verified = 0;     // entries accepted with a valid proof
  std::uint64_t proof_rejections = 0;  // tampered/invalid proofs rejected
  std::uint64_t full_syncs = 0;        // fallbacks to unverified full copy
  std::uint64_t bytes_synced = 0;      // wire bytes of verified entries
  std::uint64_t recovery_refusals = 0; // corrupt durable images refused
  /// Syncs that ended with a root still != the group root.  Must stay 0: an
  /// honest peer always exists in the tested configurations.
  std::uint64_t root_mismatches = 0;
};

/// Counters for the reconfiguration subsystem (mirrored into telemetry as
/// `epoch.*`; audited by security::check_invariants).
struct EpochStats {
  std::uint64_t transitions = 0;           // completed cutovers
  std::uint64_t txs_requeued = 0;          // force-aborted at a boundary and re-ingested
  std::uint64_t contributions_accepted = 0;
  std::uint64_t contributions_rejected = 0;  // bad proof / wrong epoch / unknown node
  std::uint64_t postponements = 0;         // cutover retries (quorum or drain not ready)
  /// Boundary audit failures — both must stay 0 under every fault schedule.
  std::uint64_t boundary_lock_leaks = 0;       // locks alive after the force-abort sweep
  std::uint64_t boundary_balance_mismatches = 0;  // conservation broken at a boundary
};

class JengaSystem final : public ShardedSystem {
 public:
  JengaSystem(sim::Simulator& sim, sim::Network& net, JengaConfig config, Genesis genesis);
  ~JengaSystem();

  JengaSystem(const JengaSystem&) = delete;
  JengaSystem& operator=(const JengaSystem&) = delete;

  /// Starts all replicas; call once before submitting.
  void start();

  /// Client submits a transaction at the current simulation time.
  void submit(TxPtr tx);

  [[nodiscard]] const Lattice& lattice() const { return *lattice_; }
  [[nodiscard]] const JengaConfig& config() const { return config_; }

  /// Adds the logic storage: every contract's logic on every node (kFull and
  /// kNoLattice), or only the home shard's share (kNoGlobalLogic).
  [[nodiscard]] StorageReport storage_report() const override;

  /// 2PC rounds with an applied debit awaiting finalization right now.
  [[nodiscard]] std::size_t twopc_inflight() const { return twopc_inflight_.size(); }
  /// Inflight 2PC entries currently older than `twopc_stuck_timeout`
  /// (snapshot view, for the invariant audit).
  [[nodiscard]] std::size_t twopc_stuck_now() const;
  /// Total entries ever flagged stuck by the watchdog (monotonic).
  [[nodiscard]] std::uint64_t twopc_stuck_total() const { return twopc_stuck_total_; }
  /// Safety violations observed: two replicas of one group deciding different
  /// digests at the same height.  Must stay 0 under every fault schedule.
  [[nodiscard]] std::uint64_t divergent_decides() const { return divergent_decides_; }

  /// Current epoch index (0 until the first live reshuffle completes).
  [[nodiscard]] std::uint64_t current_epoch() const { return epoch_; }
  [[nodiscard]] const EpochStats& epoch_stats() const { return epoch_stats_; }
  /// True while a reshuffle's drain window is open (shards hold new Phase-1
  /// work; in-flight transactions are finishing).
  [[nodiscard]] bool draining() const { return draining_; }

  /// Registers a hook invoked inside each epoch cutover, after the old
  /// lattice stopped and before the new one starts: the moment boundary churn
  /// (crashing departing nodes / reviving joiners) belongs to.  The hook gets
  /// the new epoch index and may toggle node up/down state on the network.
  void set_epoch_boundary_hook(std::function<void(std::uint64_t)> hook) {
    boundary_hook_ = std::move(hook);
  }

  /// Order-independent digest over every shard's final state store plus the
  /// committed/aborted totals.  Unlike ledger_digest() this excludes chain
  /// tips (whose block boundaries depend on message timing), so it is
  /// comparable ACROSS transport modes: with a conflict-free workload the
  /// final state is transport-invariant even though block schedules differ.
  [[nodiscard]] Hash256 state_digest() const;

  [[nodiscard]] const CertVerifyStats& cert_stats() const { return cert_stats_; }
  /// The rumor mesh this system created (nullptr when no message class uses
  /// Transport::kRumor).
  [[nodiscard]] gossip::RumorMesh* rumor_mesh() const { return mesh_.get(); }
  /// The per-(relay source, group) batcher (nullptr unless relays ride the
  /// rumor transport with a non-zero batch window).
  [[nodiscard]] gossip::Batcher* batcher() const { return batcher_.get(); }

  /// Attaches the phi-accrual failure detector (nullptr detaches).  Wires
  /// its suspicion signal into every replica's BFT view timeout, which
  /// shrinks toward a suspected leader.  An attached detector acts, so the
  /// harness attaches one only to runs with a fault plan (see
  /// security/detector.hpp).
  void set_failure_detector(security::FailureDetector* detector);
  /// Recovery-ladder activity (probes, force-aborts, refunds, ...).
  [[nodiscard]] const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Marks a node Byzantine-silent (consensus-level fault injection).
  void set_node_silent(NodeId node);
  /// Generalized consensus-level fault injection: the mode applies to both of
  /// the node's replicas (state shard and execution channel).
  void set_node_byzantine(NodeId node, consensus::ByzantineMode mode);
  /// Call after bringing a crashed node back up: both of its replicas request
  /// state sync so they catch up instead of silently resuming at a stale
  /// height.  With `model_state_sync` on, additionally models the node's
  /// application-state recovery: reopen the durable image, proof-verified
  /// delta sync from a peer, full-copy fallback (see StateSyncStats).
  void on_node_recovered(NodeId node);

  // --- Storage fault injection (durable backend; no-ops otherwise) ---------
  /// The next WAL append on shard `s` persists only `keep_bytes` of its
  /// buffer — a torn write at a sector boundary.
  void storage_torn_write(ShardId s, std::uint64_t keep_bytes);
  /// While on, fsyncs on shard `s` complete but durabilize nothing.
  void storage_drop_fsyncs(ShardId s, bool drop);
  /// Flips one bit of shard `s`'s durable WAL image (latent corruption,
  /// discovered only at recovery).
  void storage_flip_bit(ShardId s, std::uint64_t bit_offset);

  [[nodiscard]] const StateSyncStats& state_sync_stats() const { return sync_stats_; }
  /// The shard's simulated disk (nullptr unless storage_backend == kDurable).
  [[nodiscard]] ledger::MemStorageEnv* storage_env(ShardId s) const {
    return s.value < storage_envs_.size() ? storage_envs_[s.value].get() : nullptr;
  }

  void set_telemetry(telemetry::Telemetry* t) override;

  /// Replica introspection for fault injection and tests.
  [[nodiscard]] const consensus::Replica& shard_replica(NodeId node) const {
    return *shard_replicas_[node.value];
  }
  [[nodiscard]] const consensus::Replica* channel_replica(NodeId node) const {
    return channel_replicas_[node.value].get();
  }
  /// The node currently leading shard `s`'s consensus (as seen by the first
  /// member's replica) — the target for leader-assassination faults.
  [[nodiscard]] NodeId shard_leader(ShardId s) const;

 private:
  struct GroupEngine;
  struct ShardEngine;
  struct ChannelEngine;
  struct ShardApp;
  struct ChannelApp;

  [[nodiscard]] std::vector<ShardId> involved_shards(const ledger::Transaction& tx) const;
  [[nodiscard]] NodeId shard_contact(ShardId s) const;
  [[nodiscard]] NodeId channel_contact(ChannelId c) const;
  /// True when execution sites are channels (kFull); state shards double as
  /// sites otherwise.
  [[nodiscard]] bool sites_are_channels() const;
  /// Where a contract tx is gathered and executed (paper §V-C): its channel
  /// in kFull, shard H(tx) mod S in kNoLattice, its first step's home shard in
  /// kNoGlobalLogic.  A channel id in kFull, a shard id otherwise.
  [[nodiscard]] std::uint32_t exec_site(const ledger::Transaction& tx) const;
  /// The site a node belongs to: its channel in kFull, its shard otherwise.
  [[nodiscard]] std::uint32_t site_of(const Assignment& asg) const;
  /// The engine of site `site` (it gathers grants and ingests grant batches).
  [[nodiscard]] GroupEngine& site_engine(std::uint32_t site) const;
  /// Sends a client tx's copies to the current contacts: the sender's shard
  /// for a transfer; every involved shard and the execution site otherwise.
  void send_client_copies(const ledger::Transaction& tx, const sim::Message& msg);
  /// Ingests a client tx at the groups of `at`: queues the shard's Phase-1
  /// work (a transfer's debit, a contract tx's state determination) once, and
  /// hands the tx to the channel or shard that is its execution site.
  /// `requeue` (an epoch boundary) queues the Phase-1 work again.  Returns
  /// whether either group has a role for the tx.
  bool ingest_client_tx(const TxPtr& tx, Assignment at, bool requeue);
  /// Epoch-salted consensus group tags: heights restart at 0 after each
  /// reshuffle, so the (tag, height) space must be disjoint across epochs.
  [[nodiscard]] std::uint64_t shard_tag(ShardId s) const;
  [[nodiscard]] std::uint64_t channel_tag(ChannelId c) const;

  // --- Epoch reconfiguration ------------------------------------------------
  /// (Re)creates every node's shard/channel replica + app from the current
  /// lattice and epoch (shared per-group configs, epoch-salted tags/seeds),
  /// reapplying Byzantine roles and telemetry.  Does not start them.
  void build_replicas();
  /// Points both of `node`'s replicas at the detector's adaptive view
  /// timeout (or clears the hook when no detector is attached).
  void wire_view_timeout(std::uint32_t node);
  /// Schedules the next beacon round, drain start, and cutover attempt,
  /// `epoch_interval` from now.
  void schedule_epoch_cycle();
  /// Every live, non-silent node evaluates its VRF over the beacon input and
  /// gossips the contribution to the whole network.
  void start_beacon_round(std::uint64_t target_epoch);
  void handle_epoch_contribution(const sim::Message& msg);
  /// Opens the drain window: parks queued Phase-1 work (new state
  /// determinations, new 2PC rounds) so only in-flight work runs down.
  void begin_drain(std::uint64_t target_epoch);
  /// Cutover preconditions: beacon quorum reached, no transaction with a
  /// partially-applied outcome, no 2PC round mid-flight.  Retries on a short
  /// timer until they hold, then performs the cutover.
  void try_cutover(std::uint64_t target_epoch);
  void perform_cutover(std::uint64_t target_epoch);
  /// Beacon quorum size: 2N/3 + 1.
  [[nodiscard]] std::size_t min_contributions() const;
  /// Answers a grant that arrived after its transaction's gather entry already
  /// expired (the grants-then-no-tx case): sends a single abort result back to
  /// the granting shard so its Phase-1 locks release.
  void answer_dead_grant(GatherUnit& gather, std::uint32_t responder_group, NodeId node,
                         const StateGrant& grant);
  /// Re-ingests a force-aborted transaction into the (new-epoch) mempools and
  /// gathers, preserving its tracker entry and submit timestamp.
  void reingest(const TxPtr& tx);
  /// Adds the abort of a gather entry that expired with its tx never seen:
  /// for every involved shard while the tracker still knows the tx (granting
  /// shards release their Phase-1 locks, the rest settle their share), else
  /// for the shards that granted (`sources`).
  void add_dead_abort(ResultBatches& out, const Hash256& h,
                      const std::vector<std::uint32_t>& sources) const;
  /// Per-node forwarding duty for a decided `height` of `eng`: the relays
  /// addressed to this node's channel (`into_channels`) or shard go out to
  /// that group, batched into frames in rumor mode.
  void forward_outcome(NodeId node, const GroupEngine& eng, std::uint64_t height,
                       bool into_channels);
  /// Models one node's application-state recovery (crash recovery or rehome)
  /// against its shard's canonical store; updates sync_stats_ / telemetry.
  /// `use_durable_image` is false for rehomed nodes — their disk holds their
  /// OLD shard's state, useless for the new one, so they sync from empty.
  void model_recovery_sync(NodeId node, bool use_durable_image);
  void on_node_message(NodeId node, const sim::Message& msg);
  /// The one epoch check: a tagged payload from an earlier epoch straddled a
  /// reshuffle (its txs were force-aborted and requeued at the cutover), so
  /// every handler and frame_item_seen drop it unread.
  [[nodiscard]] bool stale(const EpochTaggedPayload& p) const { return p.epoch != epoch_; }
  void handle_client_tx(NodeId node, const sim::Message& msg);
  void handle_grant_batch(NodeId node, const sim::Message& msg);
  void handle_result_batch(NodeId node, const sim::Message& msg);
  void handle_two_pc(NodeId node, const sim::Message& msg);
  /// Unpacks a batched relay frame: pools the contained batches' commit
  /// certificates into ONE aggregate-verified pass, then dispatches each
  /// inner message as if it had arrived individually.
  void handle_batch_frame(NodeId node, const sim::Message& msg);
  /// True when the engine owning `inner` at this receiver has already
  /// ingested it (or would drop it unread): its cert needs no pooling, so
  /// duplicate frames from co-relayers cost zero crypto — mirroring the
  /// dedup-before-verify order of the unbatched handlers.
  [[nodiscard]] bool frame_item_seen(NodeId node, const sim::Message& inner) const;
  /// Batched mode: instead of verifying a relay batch's cert on arrival, the
  /// receiving engine parks it until the next window boundary and verifies
  /// every cert that arrived in the window — from ALL source groups (at S
  /// shards a channel hears up to S granting shards concurrently) — in ONE
  /// aggregated pass.  Returns true when the batch was parked (or is a
  /// duplicate of a parked one) and the handler should stop.
  bool try_park_for_pooled_verify(NodeId node, const sim::Message& msg,
                                  std::uint64_t pool_tag, std::uint64_t dedup_key,
                                  const consensus::QuorumCert& cert);
  void flush_verify_pool(std::uint64_t pool_tag);
  /// Verifies a relay batch's commit certificate against the source group's
  /// vote keys.  Skipped (and counted) for unsigned synthetic batches, and
  /// for certs already covered by a frame's pooled batch verification.
  [[nodiscard]] bool verify_relay_cert(const consensus::QuorumCert& cert, bool channel_group,
                                       std::uint32_t gid);
  /// Seed of a group's vote keys under the CURRENT epoch (epoch-salted, like
  /// the group tags).
  [[nodiscard]] std::uint64_t vote_key_seed(bool channel_group, std::uint32_t gid) const;
  /// Cached vote-key ids of a group under the CURRENT epoch's key schedule.
  [[nodiscard]] const std::vector<std::uint64_t>& source_public_ids(bool channel_group,
                                                                    std::uint32_t gid);
  void note_decide(std::uint64_t group_tag, std::uint64_t height, const Hash256& digest);
  /// Counts one event in `stat` and in its telemetry mirror `metric`.
  void count(std::uint64_t& stat, const char* metric);
  /// Forwarding-duty dissemination of a certified outcome (grants into a
  /// channel, results into a shard) or a beacon contribution.  Routed per the
  /// network's transport mode for `kind` (DESIGN.md §12): under kRumor the
  /// message enters the push-pull mesh (whose pull repair IS the
  /// retransmission path, so no blind re-sends are needed); under kNaive /
  /// kTree it is a legacy gossip, re-sent twice more when a link-fault
  /// profile is active, because a fully lost outcome relay would otherwise
  /// wedge its transactions' locks forever (receivers dedup by batch key).
  void relay_gossip(NodeId node, const std::vector<NodeId>& group, const sim::Message& msg,
                    sim::BroadcastKind kind = sim::BroadcastKind::kRelay);

  /// Handles recovery-ladder opcodes (TwoPcPayload::op != kLeg): probes and
  /// force-abort queries at the destination shard, their replies at the
  /// coordinator's shard.
  void handle_two_pc_recovery(NodeId node, const sim::Message& msg);
  /// Builds a 2PC message and unicasts it to the contact of the shard where
  /// it is processed: two_pc_shard(tx, commit).
  void emit_two_pc(NodeId from, const TxPtr& tx, bool commit, TwoPcPayload::Op op,
                   std::uint32_t attempt);
  /// The sender's (coordinator) shard for commit legs, the recipient's for
  /// prepare legs.
  [[nodiscard]] ShardId two_pc_shard(const ledger::Transaction& tx, bool commit) const;
  /// Attempt-scoped 2PC dedup key ("2pc-p"/"2pc-c" + tx hash + attempt).
  /// Attempt 0 hashes exactly the pre-recovery key, so clean runs keep
  /// bit-identical dedup state.
  [[nodiscard]] static Hash256 twopc_key(const char* tag, const Hash256& h,
                                         std::uint32_t attempt);

  // Consensus app plumbing (payload types are internal to the .cpp).
  /// Flags inflight 2PC entries older than `twopc_stuck_timeout` (once each)
  /// into `twopc_stuck_total_` and the `twopc.stuck` counter, then walks the
  /// recovery ladder for every flagged round (when config_.recovery.enabled).
  void twopc_watchdog_scan();

  [[nodiscard]] std::optional<consensus::ConsensusValue> shard_propose(ShardEngine& eng,
                                                                       std::uint64_t height);
  void shard_decide(ShardEngine& eng, NodeId node, std::uint64_t height,
                    const consensus::ConsensusValue& value, const consensus::QuorumCert& cert);
  [[nodiscard]] std::optional<consensus::ConsensusValue> channel_propose(ChannelEngine& eng,
                                                                         std::uint64_t height);
  void channel_decide(ChannelEngine& eng, NodeId node, std::uint64_t height,
                      const consensus::ConsensusValue& value, const consensus::QuorumCert& cert);

  /// Executes the gathered-and-ready transactions of one gather unit (up to
  /// `limit`) as a single parallel batch (Phase 2, src/exec/), returning the
  /// (tx, result) entries in canonical ready order.  Phase-1 locks guarantee
  /// the bundles are disjoint, so the batch is bit-identical to serial replay
  /// for every worker count.
  [[nodiscard]] std::vector<std::pair<TxPtr, ExecResult>> run_gathered_batch(
      GatherUnit& gather, std::size_t limit);
  [[nodiscard]] std::vector<std::pair<ShardId, ledger::PortableState>> split_per_shard(
      ledger::PortableState updated) const;

  sim::Network& net_;
  JengaConfig config_;
  std::unique_ptr<Lattice> lattice_;

  // --- Dissemination subsystem (src/gossip/, DESIGN.md §12) ----------------
  /// Created iff any message class runs Transport::kRumor; registered with
  /// the network so rumor-transport frames route here.
  std::unique_ptr<gossip::RumorMesh> mesh_;
  /// Coalesces forwarding-duty relays per (relayer, group) within a
  /// batch-window cadence into single framed messages (rumor mode only).
  std::unique_ptr<gossip::Batcher> batcher_;
  CertVerifyStats cert_stats_;
  /// True while dispatching relay batches whose certs the pooled batch
  /// verification already covered — per-batch checks become no-ops.
  bool certs_preverified_ = false;
  /// True while re-dispatching a pool whose aggregated pass failed: handlers
  /// verify individually (isolating the forged cert) instead of re-parking.
  bool pool_bypass_ = false;
  /// Receiver-side pooled verification (batched mode), keyed by the receiving
  /// engine's group tag.
  struct VerifyPool {
    std::vector<std::pair<NodeId, sim::Message>> parked;
    std::unordered_set<std::uint64_t> keys;  // parked dedup keys (dup-drop)
    bool flush_scheduled = false;
  };
  std::unordered_map<std::uint64_t, VerifyPool> verify_pools_;
  /// Vote-key id cache: epoch-salted group tag -> public ids.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> group_pubids_;

  std::vector<std::unique_ptr<ShardEngine>> shards_;
  std::vector<std::unique_ptr<ChannelEngine>> channels_;
  /// Per-shard simulated disks (storage_backend == kDurable only).
  std::vector<std::unique_ptr<ledger::MemStorageEnv>> storage_envs_;
  StateSyncStats sync_stats_;
  // Replicas are per node: [node] -> shard replica, and channel replica when
  // the full pipeline runs channels as consensus groups.
  std::vector<std::unique_ptr<consensus::Replica>> shard_replicas_;
  std::vector<std::unique_ptr<consensus::Replica>> channel_replicas_;
  std::vector<std::unique_ptr<ShardApp>> shard_apps_;
  std::vector<std::unique_ptr<ChannelApp>> channel_apps_;

  // All contract logic (network-wide in kFull/kNoLattice).
  ledger::LogicStore all_logic_;

  // First digest decided per (group tag, height), for divergence detection
  // across the replicas of each group.
  std::map<std::pair<std::uint64_t, std::uint64_t>, Hash256> decide_ledger_;
  std::uint64_t divergent_decides_ = 0;

  std::uint64_t contact_rr_ = 0;  // round-robin over members for client entry

  // --- Epoch reconfiguration state -----------------------------------------
  std::uint64_t epoch_ = 0;
  std::unique_ptr<EpochManager> epoch_mgr_;
  std::vector<crypto::KeyPair> beacon_keys_;  // per-node VRF keys
  std::vector<NodeId> all_nodes_;             // beacon gossip group
  EpochStats epoch_stats_;
  bool draining_ = false;
  SimTime drain_started_at_ = 0;
  /// Sum of genesis balances; the boundary conservation audit's baseline.
  std::uint64_t initial_balance_ = 0;
  /// Cross-shard transfers whose debit applied but whose 2PC round has not
  /// finalized; the cutover waits for this to empty (a force-abort here would
  /// either lose or double the debit).  Each entry remembers when its debit
  /// applied and whether the watchdog already flagged it stuck.
  struct TwoPcEntry {
    SimTime since = 0;
    bool flagged = false;
    /// Retry attempt this entry belongs to (0 = original round).  Replies
    /// carrying a different attempt are stale and ignored.
    std::uint32_t attempt = 0;
    /// Node whose decide opened the round; ladder traffic originates here.
    NodeId coordinator{};
    /// Recovery-ladder position (see core/recovery.hpp).
    LadderState ladder;
    /// The transfer itself, so the ladder can rebuild probe/query payloads.
    TxPtr tx;
  };
  std::unordered_map<Hash256, TwoPcEntry> twopc_inflight_;
  /// Retry attempt of each transfer whose refund scheduled a fresh attempt,
  /// so an epoch requeue resumes there rather than at attempt 0, whose keys
  /// the destination has tombstoned.  Pruned at each cutover.
  std::unordered_map<Hash256, std::uint32_t> retry_attempts_;
  std::uint64_t twopc_stuck_total_ = 0;
  /// Failure detector feeding the adaptive view timeout (not owned; the
  /// harness wires it so all system variants share one construction path).
  security::FailureDetector* detector_ = nullptr;
  RecoveryStats recovery_stats_;
  /// Client-tx hashes already re-routed once after landing on a node whose
  /// new-epoch assignment no longer matches the submit-time contact.
  std::unordered_set<Hash256> rerouted_;
  /// Byzantine roles survive reshuffles (the adversary corrupts nodes, not
  /// seats); reapplied to freshly built replicas.
  std::unordered_map<std::uint32_t, consensus::ByzantineMode> byz_modes_;
  /// Stopped pre-reshuffle replicas/apps.  Scheduled lambdas capture replica
  /// pointers, so these stay allocated until the system is destroyed.
  std::vector<std::unique_ptr<consensus::Replica>> retired_replicas_;
  std::vector<std::unique_ptr<ShardApp>> retired_shard_apps_;
  std::vector<std::unique_ptr<ChannelApp>> retired_channel_apps_;
  std::function<void(std::uint64_t)> boundary_hook_;
};

}  // namespace jenga::core
