// Stuck-2PC recovery ladder (DESIGN.md §14).
//
// The watchdog in JengaSystem flags a 2PC round whose ack never came back
// (gray link, slow relayer, lost leg).  Flagging alone only records the
// violation; this module turns the flag into a repair.  Each wedged round
// walks a per-round ladder the coordinator drives from its watchdog scan:
//
//   rung 1..kMaxRerequests  — kProbe: re-offer the prepare to the destination
//                             shard.  If the prepare was lost the destination
//                             adopts it now; if the credit already happened
//                             the destination re-sends the lost ack.  Probes
//                             are idempotent (attempt-scoped dedup keys).
//   rung kMaxRerequests+1.. — kAbortQuery: settle the round NOW.  The
//                             destination answers kCredited (credit applied,
//                             treat as the ack) or kNeverCredited (credit
//                             tombstoned so it can never land later; the
//                             coordinator refunds the debit and retries the
//                             transfer as a fresh attempt).
//
// The ladder is pure policy — it decides WHAT to do next and when; the
// system performs the sends and state changes.  Keeping it a standalone
// value type makes the escalation schedule unit-testable without a network.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace jenga::core {

/// Probe rungs before the ladder escalates to a force-abort query.
inline constexpr std::uint32_t kMaxRerequests = 2;
/// Full retry cycles (refund + fresh attempt) before a transfer is terminally
/// aborted.  Attempt 0 is the original round.
inline constexpr std::uint32_t kMaxAttempts = 3;

struct RecoveryConfig {
  /// Master switch: false restores the observe-only watchdog (flag + flight
  /// dump, no repair traffic).
  bool enabled = true;
  /// Delay between consecutive ladder actions on one round.
  SimTime backoff = 10 * kSecond;
};

struct RecoveryStats {
  std::uint64_t probes_sent = 0;        // kProbe re-requests
  std::uint64_t abort_queries = 0;      // kAbortQuery escalations
  std::uint64_t acks_recovered = 0;     // rounds settled by kCredited / probe re-ack
  std::uint64_t refunds = 0;            // never-credited debits returned
  std::uint64_t retries = 0;            // fresh attempts re-ingested after a refund
  std::uint64_t terminal_aborts = 0;    // retry budget exhausted
  std::uint64_t hedged_sends = 0;       // always 0: no leg is hedged; benchmark readers still read it
  std::uint64_t resolved = 0;           // flagged-stuck rounds that finalized
  SimTime last_resolved_at = 0;
};

/// Per-round ladder position, embedded in the coordinator's inflight entry.
struct LadderState {
  std::uint32_t rung = 0;     // actions taken so far on this attempt
  SimTime next_action = 0;    // earliest time the next action may fire
};

enum class LadderAction : std::uint8_t {
  kWait = 0,        // backoff not elapsed, do nothing this scan
  kProbe = 1,       // re-request the round
  kAbortQuery = 2,  // force the round to settle
};

/// Advances `st` and returns the action due at `now` (kWait if the backoff
/// has not elapsed).  The first action on a freshly flagged round fires
/// immediately; subsequent ones respect cfg.backoff.
[[nodiscard]] LadderAction ladder_next(const RecoveryConfig& cfg, LadderState& st,
                                       SimTime now);

}  // namespace jenga::core
