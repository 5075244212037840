// Push-pull rumor mongering with dup-drop (DESIGN.md §12), modeled on
// Zilliqa's libRumorSpreading / RumorManager.
//
// Each (group, rumor) pair on each member runs a small state machine:
//
//   NEW   — actively pushed: every round the holder forwards the rumor (plus
//           a digest of every id it knows) to `fanout` random peers.  A rumor
//           copy carries its age in rounds; once the age exceeds the group's
//           push budget B = ceil(log2 n) + extra_push_rounds — or the holder
//           has heard `dup_kill` duplicates, the classic "most peers already
//           know it" signal — the rumor goes KNOWN.
//   KNOWN — held but no longer pushed.  The holder keeps advertising the id
//           in digest pings at a low anti-entropy cadence, so lossy or
//           partitioned receivers discover the gap and pull the payload
//           (kRumorPullReq -> kRumorPullResp) without any sender rebroadcast.
//   OLD   — retired after `retention`; the id is finally forgotten.
//
// Dup-drop: every rumor is keyed by a caller-supplied content-derived id
// (sim::rumor_id_mix), so several subgroup relays starting the same certified
// batch merge into one spread and relays never amplify.
//
// The mesh is one simulator-wide object (state for every node lives here,
// like sim::Network itself).  All transmission goes back through
// Network::send, paying the full timing + fault model; accepted rumors are
// handed to the destination's registered handler synchronously inside the
// carrying push's delivery, so causal spans parent on the inbound copy and
// trace_lint stays clean.  Peer selection draws from the mesh's own rng
// stream — fault-free runs of the naive/tree transports consume the exact
// same network rng stream as before this subsystem existed.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "simnet/network.hpp"

namespace jenga::gossip {

struct RumorConfig {
  /// Peers pushed per round while a rumor is NEW.
  std::size_t fanout = 3;
  /// Push-round cadence per holder.
  SimTime round_interval = 150 * kMillisecond;
  /// Push budget B = ceil(log2 n) + extra_push_rounds rounds of age.
  std::uint32_t extra_push_rounds = 2;
  /// Heard duplicates before an early NEW -> KNOWN transition.
  std::uint32_t dup_kill = 4;
  /// Digest-ping cadence while KNOWN rumors are retained: one ping to one
  /// random peer every `anti_entropy_every` ticks (pull-based loss repair).
  std::uint32_t anti_entropy_every = 4;
  /// Ids advertised per push/ping (most recent first).
  std::size_t digest_window = 128;
  /// How long a rumor id is remembered (dup-drop + pull-serving window).
  /// Partitions must heal within this window to be repaired.
  SimTime retention = 30 * kSecond;
  /// Pull-request rate limit per (serving member, requester): at most
  /// `pull_req_max` kRumorPullReq served per window.  An unthrottled suspect
  /// peer could otherwise amplify pull traffic unboundedly; the ceiling is
  /// far above anything an honest peer emits (one request per missing-digest
  /// discovery, already deduped by pulls_inflight).
  SimTime pull_req_window = 300 * kMillisecond;
  std::uint32_t pull_req_max = 64;
};

struct RumorStats {
  std::uint64_t rumors_started = 0;
  std::uint64_t pushes_sent = 0;        // kRumorPush messages (incl. digest pings)
  std::uint64_t pull_requests = 0;      // kRumorPullReq messages
  std::uint64_t pull_responses = 0;     // kRumorPullResp messages
  std::uint64_t dups_dropped = 0;       // received copies of an already-known rumor
  std::uint64_t pulls_throttled = 0;    // pull requests dropped by the rate limit
  std::uint64_t resp_rejected = 0;      // unsolicited pull-response entries dropped
  std::uint64_t delivered = 0;          // inner messages handed to node handlers
  std::uint64_t covered_rumors = 0;     // rumors that reached every group member
  /// Rounds from a rumor's start to full group coverage (one entry per
  /// covered rumor); the histogram behind net.rumor.rounds_to_coverage.
  std::vector<std::uint32_t> coverage_rounds;
};

/// Wire payload of kRumorPush (entries + digest) and kRumorPullResp (entries
/// only).
struct RumorPushPayload : sim::Payload {
  std::uint64_t group_key = 0;
  struct Entry {
    std::uint64_t id = 0;
    std::uint16_t age = 0;
    sim::Message inner;
  };
  std::vector<Entry> entries;
  std::vector<std::uint64_t> digest;

  [[nodiscard]] std::uint32_t wire_size() const {
    std::uint32_t n = 24;
    for (const auto& e : entries) n += 12 + e.inner.size_bytes;
    n += static_cast<std::uint32_t>(8 * digest.size());
    return n;
  }
};

/// Wire payload of kRumorPullReq.
struct RumorPullPayload : sim::Payload {
  std::uint64_t group_key = 0;
  std::vector<std::uint64_t> ids;

  [[nodiscard]] std::uint32_t wire_size() const {
    return 24 + static_cast<std::uint32_t>(8 * ids.size());
  }
};

class RumorMesh final : public sim::RumorTransport {
 public:
  RumorMesh(sim::Network& net, RumorConfig config, Rng rng)
      : net_(net), config_(config), rng_(std::move(rng)) {}

  void broadcast(NodeId origin, std::span<const NodeId> group, std::uint64_t rumor_id,
                 const sim::Message& msg, sim::TrafficClass cls) override;
  void on_message(NodeId to, const sim::Message& msg) override;

  [[nodiscard]] const RumorStats& stats() const { return stats_; }
  [[nodiscard]] const RumorConfig& config() const { return config_; }

 private:
  enum class Phase : std::uint8_t { kNew = 0, kKnown = 1 };

  struct RumorState {
    Phase phase = Phase::kNew;
    std::uint16_t age = 0;        // rounds since origin (carried on the wire)
    std::uint8_t dups = 0;
    SimTime heard_at = 0;
    sim::Message msg;
  };

  struct NodeState {
    bool timer_armed = false;
    std::uint64_t ticks = 0;
    std::unordered_map<std::uint64_t, RumorState> rumors;
    /// Outstanding pulls: id -> when requested (re-pull allowed after a gap).
    /// Doubles as the solicitation record: a pull-response entry whose id was
    /// never requested is rejected as forged/unsolicited.
    std::unordered_map<std::uint64_t, SimTime> pulls_inflight;
    /// Pull-request rate-limit windows, keyed by requester node id.
    std::unordered_map<std::uint32_t, std::pair<SimTime, std::uint32_t>> pull_req_log;
    /// OLD rumors: ids retired after `retention`.  The payload is dropped but
    /// the id stays a tombstone, so a straggler push or a peer's digest ping
    /// can never resurrect an already-delivered rumor (without this, an
    /// expire/re-pull cycle between out-of-phase holders would keep a rumor
    /// alive forever).
    std::unordered_set<std::uint64_t> retired;
  };

  /// Global coverage tracking for telemetry (passive).
  struct RumorMeta {
    SimTime first_at = 0;
    std::uint32_t holders = 0;
    bool covered = false;
  };

  struct GroupState {
    std::vector<NodeId> members;
    std::unordered_map<std::uint32_t, std::size_t> index_of;  // node id -> slot
    sim::TrafficClass cls = sim::TrafficClass::kIntraShard;
    std::uint32_t push_limit = 0;  // B = ceil(log2 n) + extra
    std::unordered_map<std::uint64_t, RumorMeta> meta;
  };

  GroupState& group_for(std::uint64_t key, std::span<const NodeId> members,
                        sim::TrafficClass cls);
  void accept(std::uint64_t group_key, GroupState& g, std::size_t slot, std::uint64_t id,
              std::uint16_t age, const sim::Message& inner, bool deliver);
  void arm_timer(std::uint64_t group_key, std::size_t slot);
  void tick(std::uint64_t group_key, std::size_t slot);
  void handle_push(NodeId to, const sim::Message& msg);
  void handle_pull_req(NodeId to, const sim::Message& msg);
  void handle_pull_resp(NodeId to, const sim::Message& msg);
  [[nodiscard]] std::vector<std::uint64_t> build_digest(const NodeState& ns) const;
  void send_pulls(std::uint64_t group_key, GroupState& g, std::size_t slot, NodeId from_peer,
                  std::span<const std::uint64_t> advertised);

  sim::Network& net_;
  RumorConfig config_;
  Rng rng_;
  RumorStats stats_;
  std::unordered_map<std::uint64_t, GroupState> groups_;
  /// Per-group per-member state, keyed (group_key ^ mixed slot).
  std::unordered_map<std::uint64_t, NodeState> node_state_;

  [[nodiscard]] static std::uint64_t node_key(std::uint64_t group_key, std::size_t slot) {
    return group_key ^ (0x9E3779B97F4A7C15ULL * (slot + 1));
  }
  NodeState& node_state(std::uint64_t group_key, std::size_t slot) {
    return node_state_[node_key(group_key, slot)];
  }
};

/// Canonical key for a member list (one rumor-spreading domain).  Epoch
/// reshuffles produce different member lists and therefore fresh groups.
[[nodiscard]] std::uint64_t group_key_of(std::span<const NodeId> members);

}  // namespace jenga::gossip
