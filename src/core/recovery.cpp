#include "core/recovery.hpp"

namespace jenga::core {

LadderAction ladder_next(const RecoveryConfig& cfg, LadderState& st, SimTime now) {
  if (!cfg.enabled) return LadderAction::kWait;
  if (st.rung > 0 && now < st.next_action) return LadderAction::kWait;
  const LadderAction action =
      st.rung < kMaxRerequests ? LadderAction::kProbe : LadderAction::kAbortQuery;
  ++st.rung;
  st.next_action = now + cfg.backoff;
  return action;
}

}  // namespace jenga::core
