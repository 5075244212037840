// Intra-shard BFT consensus: leader-based linear PBFT with aggregated vote
// certificates (the paper's BLS-aggregation design, §V-C "Intra-Shard
// Consensus").
//
// Message flow per height (all within one group — a state shard or an
// execution channel):
//
//   leader   --PRE_PREPARE(value)-->  replicas        (gossip; value can be MBs)
//   replicas --PREPARE_VOTE-------->  leader          (unicast, tiny)
//   leader   --PREPARED_CERT------->  replicas        (aggregated sig + bitmap)
//   replicas --COMMIT_VOTE--------->  leader
//   leader   --COMMIT_CERT--------->  replicas        -> decide
//
// With certificate aggregation every phase is O(n) messages, which is what
// lets shards of hundreds of nodes run at practical speed — in the real
// system and in this simulator alike.
//
// A stalled height triggers a view change: replicas time out, vote for view
// v+1 to the next leader, and the new leader re-proposes (carrying forward
// the highest prepared certificate it saw, so a value that may have been
// decided anywhere is never replaced).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "crypto/fastcrypto.hpp"
#include "simnet/network.hpp"

namespace jenga::consensus {

/// An opaque value a group agrees on (a block, a grant batch, ...).
struct ConsensusValue {
  Hash256 digest;
  std::uint32_t size_bytes = 0;
  /// CPU time to assemble/verify this value (block execution): the leader
  /// pays it before broadcasting, every replica pays it before voting.  This
  /// is how "each node can verify up to 4096 transactions in a consensus
  /// round" (paper §VII-B) enters the timing model.
  SimTime exec_delay = 0;
  std::shared_ptr<const sim::Payload> data;
};

/// Digest a replica signs when voting for (value, height, view) in the
/// prepare or commit phase.  Exposed so other layers (the relay batch
/// verifier in src/core) can check a commit certificate's aggregate signature
/// without instantiating a Replica.
[[nodiscard]] Hash256 vote_digest(const Hash256& value_digest, std::uint64_t height,
                                  std::uint32_t view, bool commit_phase);

/// The public vote-key ids of a group of `n` members derived from
/// `crypto_seed` — exactly the key schedule every Replica of that group uses.
[[nodiscard]] std::vector<std::uint64_t> group_public_ids(std::uint64_t crypto_seed,
                                                          std::size_t n);

/// Aggregated quorum certificate.
struct QuorumCert {
  Hash256 value_digest;
  std::uint64_t height = 0;
  std::uint32_t view = 0;
  crypto::FastMultiSig sig;

  [[nodiscard]] std::uint32_t wire_size() const {
    return 48 + crypto::kSignatureWireBytes +
           static_cast<std::uint32_t>((sig.signers.size() + 7) / 8);
  }
};

/// Application hooks: the protocol layer (Jenga / baselines) plugs in here.
class BftApp {
 public:
  virtual ~BftApp() = default;
  /// Leader asks for the next value; nullopt = nothing to propose right now.
  virtual std::optional<ConsensusValue> propose(std::uint64_t height) = 0;
  /// Replicas validate a proposed value before voting.
  virtual bool validate(std::uint64_t height, const ConsensusValue& value) = 0;
  /// Called exactly once per height on every honest replica.
  virtual void on_decide(std::uint64_t height, const ConsensusValue& value,
                         const QuorumCert& commit_cert) = 0;
};

struct BftConfig {
  std::vector<NodeId> members;       // ordered group membership
  std::uint64_t group_tag = 0;       // distinguishes co-resident groups
  std::uint64_t crypto_seed = 1;     // derives per-member vote keys
  SimTime propose_retry = 50 * kMillisecond;
  SimTime view_timeout = 20 * kSecond;
  sim::TrafficClass traffic = sim::TrafficClass::kIntraShard;
  bool use_gossip_for_proposal = true;
};

enum class ByzantineMode : std::uint8_t {
  kHonest = 0,
  kSilent,        // never votes / never proposes (crash-equivalent)
  kMuteProposer,  // votes, but withholds proposals when leader
  kEquivocator,   // as leader, sends conflicting PRE_PREPAREs to disjoint halves
  kVoteSpammer,   // floods the leader with invalid + future-height votes
  kLaggard,       // votes honestly but delays every vote (tests timeout margins)
};

/// Per-replica defence counters: how much adversarial input this replica has
/// detected and rejected, plus state-sync activity.  Exposed so chaos tests
/// can assert the hardening paths actually fired.
struct ReplicaStats {
  std::uint64_t equivocations_detected = 0;   // conflicting proposals, same (h,v)
  std::uint64_t invalid_votes_rejected = 0;   // bad signature or bad digest
  std::uint64_t invalid_certs_rejected = 0;   // quorum/signature check failed
  std::uint64_t future_dropped = 0;           // future_ buffer overflowed
  std::uint64_t sync_requests_sent = 0;
  std::uint64_t sync_responses_served = 0;
  std::uint64_t sync_heights_applied = 0;     // decided via catch-up, not votes
  std::uint64_t value_recovered = 0;          // value adopted from a cert, not the proposal
  std::uint64_t value_pulls = 0;              // explicit syncs triggered by a value gap
};

/// One replica's state machine for one group.  All replicas of a group share
/// a BftConfig (and derive member vote keys from its seed).
class Replica {
 public:
  Replica(sim::Network& net, NodeId self, std::shared_ptr<const BftConfig> config,
          BftApp& app);

  /// Wires up and schedules the first proposal poll.  Call once.
  void start();

  /// Permanently deactivates this replica: it stops consuming messages,
  /// proposing, voting, and serving sync, and every already-scheduled timer
  /// or delayed broadcast becomes a no-op.  Used at epoch reconfiguration:
  /// the old lattice's replicas are stopped and parked (scheduled lambdas
  /// capture `this`, so a stopped replica must stay allocated until the
  /// simulation ends) while fresh replicas take over the group.  Irreversible.
  void stop();
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Feeds a network message of a kBft* type addressed to this replica.
  void on_message(const sim::Message& msg);

  /// The leader checks for new work (also called internally on a timer).
  void try_propose();

  [[nodiscard]] std::uint64_t decided_height() const { return next_height_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] bool is_leader() const { return leader_for(view_) == self_; }
  [[nodiscard]] std::uint32_t view() const { return view_; }
  [[nodiscard]] NodeId current_leader() const { return leader_for(view_); }

  void set_byzantine(ByzantineMode mode) { byz_ = mode; }
  [[nodiscard]] ByzantineMode byzantine_mode() const { return byz_; }

  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }

  /// Asks peers for decided heights this replica missed (crash recovery or a
  /// healed partition).  Safe to call repeatedly: rate-limited internally.
  void request_sync();

  /// f = ⌊(n-1)/3⌋; quorum = 2f+1.
  [[nodiscard]] std::size_t quorum() const { return 2 * ((config_->members.size() - 1) / 3) + 1; }

  /// Verifies a certificate against this group's membership and quorum rule.
  [[nodiscard]] bool verify_cert(const QuorumCert& cert) const;

  /// Attaches a telemetry context (nullptr detaches).  Every deciding replica
  /// records a "bft.round" span per height (and a "bft.view_change" span when
  /// one happened), plus round/view-change duration histograms.  Passive: no
  /// rng draws, no scheduling.
  void set_telemetry(telemetry::Telemetry* t);

  /// Advisory hook consulted each time the view timer is armed:
  /// (self, current leader, configured timeout) -> effective timeout.  The
  /// failure detector plugs in here (shorter timer for a suspected-dead
  /// leader); must return `base` unchanged in healthy runs so clean
  /// schedules stay bit-identical.
  using ViewTimeoutHook = std::function<SimTime(NodeId self, NodeId leader, SimTime base)>;
  void set_view_timeout_hook(ViewTimeoutHook hook) { view_timeout_hook_ = std::move(hook); }

 private:
  [[nodiscard]] NodeId leader_for(std::uint32_t view) const;
  [[nodiscard]] std::optional<std::size_t> member_index(NodeId id) const;
  void broadcast(const sim::Message& msg, bool gossip, std::uint64_t rumor_id = 0);
  void send_to(NodeId to, const sim::Message& msg);
  void enter_height(std::uint64_t height);
  void arm_view_timer();
  void on_view_timeout(std::uint64_t height, std::uint32_t view);
  void handle_pre_prepare(const sim::Message& msg);
  void handle_prepare_vote(const sim::Message& msg);
  void handle_prepared_cert(const sim::Message& msg);
  void handle_commit_vote(const sim::Message& msg);
  void handle_commit_cert(const sim::Message& msg);
  void handle_view_change(const sim::Message& msg);
  void handle_new_view(const sim::Message& msg);
  void handle_sync_request(const sim::Message& msg);
  void handle_sync_response(const sim::Message& msg);
  /// Pushes decided (value, cert) entries starting at `from_height` to `to`.
  void serve_history(NodeId to, std::uint64_t from_height);
  void leader_try_assemble(bool prepared_phase);
  void decide(const ConsensusValue& value, const QuorumCert& cert);
  void propose_equivocating(const ConsensusValue& value);
  void spam_votes(std::uint64_t height, std::uint32_t view, const Hash256& digest);

  sim::Network& net_;
  NodeId self_;
  std::shared_ptr<const BftConfig> config_;
  BftApp& app_;
  ByzantineMode byz_ = ByzantineMode::kHonest;

  // Per-member vote keys (FastCrypto); index-aligned with config_->members.
  std::vector<crypto::FastKey> keys_;
  std::vector<std::uint64_t> public_ids_;

  std::uint64_t next_height_ = 0;   // height currently being agreed
  std::uint32_t view_ = 0;
  std::uint64_t timer_generation_ = 0;

  // Leader-side collection state for the current (height, view).
  std::optional<ConsensusValue> proposal_;           // what this leader proposed
  std::vector<bool> prepare_votes_;
  std::vector<bool> commit_votes_;
  bool prepared_cert_sent_ = false;
  bool commit_cert_sent_ = false;

  // Replica-side state.
  std::optional<ConsensusValue> current_value_;      // validated pre-prepare
  std::optional<Hash256> seen_proposal_digest_;      // equivocation detection
  bool sent_prepare_ = false;
  bool sent_commit_ = false;
  std::optional<QuorumCert> prepared_cert_;          // carried into view changes

  // View change collection (on the prospective new leader).
  std::unordered_map<std::uint32_t, std::vector<bool>> view_votes_;
  std::uint32_t next_view_vote_ = 0;  // escalates past consecutively dead leaders
  bool equivocation_view_change_sent_ = false;  // one immediate vote per view

  // Messages for heights this replica has not reached yet (reordered
  // deliveries); replayed on entering each new height.
  std::vector<sim::Message> future_;

  // Recently decided heights with their commit certificates, kept for serving
  // state-sync requests from recovering peers (FIFO window of
  // kDecidedLogWindow heights).
  struct DecidedEntry {
    ConsensusValue value;
    QuorumCert cert;
  };
  std::unordered_map<std::uint64_t, DecidedEntry> decided_log_;
  SimTime last_sync_request_ = -1;  // rate limit: one request per cooldown
  SimTime last_catch_up_served_ = -1;  // rate limit for reactive history pushes

  ReplicaStats stats_;
  ViewTimeoutHook view_timeout_hook_;

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Histogram* round_hist_ = nullptr;        // "bft.round_us"
  telemetry::Histogram* view_change_hist_ = nullptr;  // "bft.view_change_us"
  SimTime round_begin_ = -1;        // when this replica entered the height
  SimTime view_change_begin_ = -1;  // first timeout of the stalled height

  bool started_ = false;
  bool stopped_ = false;

  static constexpr std::size_t kFutureBufferCap = 1024;
  static constexpr std::uint64_t kDecidedLogWindow = 256;
  static constexpr std::size_t kSyncBatchMax = 32;
  static constexpr std::uint32_t kMaxViewSkip = 64;
  static constexpr SimTime kSyncCooldown = kSecond;
};

}  // namespace jenga::consensus
