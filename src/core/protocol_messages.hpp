// Payloads of Jenga's cross-shard consensus protocol (paper §V-C) and the
// batch items that shard/channel consensus instances agree on.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "consensus/bft.hpp"
#include "ledger/portable_state.hpp"
#include "ledger/transaction.hpp"
#include "simnet/message.hpp"

namespace jenga::core {

using TxPtr = std::shared_ptr<const ledger::Transaction>;

/// CPU cost model (paper §VII-B: "each node can verify up to 4096
/// transactions in a consensus round").  Light items are signature/lock
/// checks over a 512-byte tx; exec items run contract code on the VM.
inline constexpr SimTime kLightItemCpu = 200;                 // 200 µs
inline constexpr SimTime kExecItemCpu = 2 * kMillisecond;     // full/partial VM run

/// Phase 1 output for one transaction from one state shard.
struct StateGrant {
  Hash256 tx_hash;
  ShardId source;
  bool available = true;          // false -> AbortRequest (state locked/missing)
  ledger::PortableState states;   // the locked states this shard owns

  [[nodiscard]] std::uint32_t wire_size() const { return 80 + states.wire_size(); }
};

/// Phase 2 output for one transaction: per-shard state updates or an abort.
struct ExecResult {
  Hash256 tx_hash;
  bool ok = true;
  /// Updates split by owning shard; only that shard's slice is applied there.
  std::vector<std::pair<ShardId, ledger::PortableState>> per_shard_updates;

  [[nodiscard]] std::uint32_t wire_size() const {
    std::uint32_t n = 80;
    for (const auto& [s, st] : per_shard_updates) n += 8 + st.wire_size();
    return n;
  }
};

/// Base of the relayed payloads an epoch cutover invalidates in flight: grant
/// batches, result batches and kNoGlobalLogic continuations.  `epoch` is the
/// epoch the producing group decided in; one still in flight when the lattice
/// reshuffles is stale — the boundary already force-aborted and requeued its
/// transactions — and must not re-enter the new lattice.  The epoch is a
/// constructor argument, so no construction site can forget to set it.
struct EpochTaggedPayload : sim::Payload {
  explicit EpochTaggedPayload(std::uint64_t e) : epoch(e) {}
  const std::uint64_t epoch;
};

/// A batch of grants from one shard-consensus decision, destined to one
/// execution channel; forwarded by the (shard, channel) subgroup members.
struct GrantBatchPayload : EpochTaggedPayload {
  using EpochTaggedPayload::EpochTaggedPayload;
  ShardId source;
  std::uint64_t shard_height = 0;  // dedup key together with `source`
  std::vector<StateGrant> grants;
  /// kNoGlobalLogic: the batch ultimately lands on this shard; channel nodes
  /// in subgroup(relay_target, channel) rebroadcast when hops > 0.
  ShardId relay_target{UINT32_MAX};
  std::uint8_t hops = 0;
  /// Commit certificate of the shard-consensus decision that produced this
  /// batch.  Receivers verify the aggregate signature against the source
  /// group's keys before ingesting (pooled into one batched pass when the
  /// batch arrives inside a gossip frame).
  consensus::QuorumCert cert;

  [[nodiscard]] std::uint32_t wire_size() const {
    std::uint32_t n = 32 + cert.wire_size();  // header + quorum cert
    for (const auto& g : grants) n += g.wire_size();
    return n;
  }
};

/// A batch of execution results from one channel decision, destined to one
/// state shard; forwarded by the subgroup members.
struct ResultBatchPayload : EpochTaggedPayload {
  using EpochTaggedPayload::EpochTaggedPayload;
  ChannelId source;                 // source group id (channel, or shard id reused)
  std::uint64_t channel_height = 0;
  ShardId target;
  std::vector<ExecResult> results;
  std::uint8_t hops = 0;  // >0: relayed via a channel, subgroup rebroadcasts
  /// Commit certificate of the deciding group (channel in kFull, shard
  /// otherwise).  Synthetic late-abort answers carry an empty signer bitmap:
  /// they certify nothing and are counted, not verified.
  consensus::QuorumCert cert;

  [[nodiscard]] std::uint32_t wire_size() const {
    std::uint32_t n = 32 + cert.wire_size();
    for (const auto& r : results) n += r.wire_size();
    return n;
  }
};

/// Client transaction envelope.
struct TxPayload : sim::Payload {
  TxPtr tx;
};

/// Transfer-transaction 2PC messages (the "traditional scheme" of §V-D).
/// Deliberately NOT epoch-tagged: a prepared transfer has already debited the
/// sender, so its commit leg must land even if it crosses a reshuffle (the
/// epoch cutover waits for in-flight 2PC rounds to finish for this reason).
///
/// Recovery extension (DESIGN.md §14): a wedged round — prepare or ack lost
/// to a gray link — is repaired by the coordinator's recovery ladder via the
/// `op` field.  `attempt` scopes every dedup key/tombstone, so a force-aborted
/// attempt can be retried from scratch without fighting its own ghosts.
struct TwoPcPayload : sim::Payload {
  TxPtr tx;
  bool commit = false;  // false: prepare leg, true: commit/ack leg
  /// Recovery ladder opcode; kLeg is the plain 2PC protocol.
  enum class Op : std::uint8_t {
    kLeg = 0,         // normal prepare / commit-ack
    kProbe = 1,       // coordinator re-requests the round (rung 1)
    kAbortQuery = 2,  // coordinator asks to settle the round NOW (rung 2)
    kNeverCredited = 3,  // participant: credit never applied (tombstoned)
    kCredited = 4,       // participant: credit applied, here is your ack
  };
  Op op = Op::kLeg;
  /// Retry attempt the message belongs to (0 = the original round).
  std::uint32_t attempt = 0;
};

}  // namespace jenga::core
