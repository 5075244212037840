// State locking for cross-shard transactions.
//
// Phase 1 of Jenga's cross-shard consensus marks every state a transaction
// needs as unavailable ("locked") until Phase 3 commits or aborts it.  Locks
// are owned by a transaction hash; a second transaction touching the same
// contract/account must wait (or abort), which is exactly the contention the
// 2PC-style protocol needs to stay atomic.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace jenga::ledger {

class LockManager {
 public:
  /// Acquires the lock for `owner` (idempotent re-acquire by the same owner).
  /// Returns false if a different transaction holds it.
  bool lock_contract(ContractId id, const Hash256& owner);
  bool lock_account(AccountId id, const Hash256& owner);

  /// Releases only if `owner` holds the lock; returns whether released.
  bool unlock_contract(ContractId id, const Hash256& owner);
  bool unlock_account(AccountId id, const Hash256& owner);

  /// Releases every lock held by `owner` (both kinds); returns how many were
  /// released.  The one safe way to clean up on abort: enumerating the
  /// transaction's footprint at the call site risks missing locks acquired
  /// before a partial failure.  O(locks `owner` holds), via the owner index.
  std::size_t release_all(const Hash256& owner);

  [[nodiscard]] bool contract_locked(ContractId id) const;
  [[nodiscard]] bool account_locked(AccountId id) const;
  [[nodiscard]] const Hash256* contract_owner(ContractId id) const;

  [[nodiscard]] std::size_t held_locks() const {
    return contract_locks_.size() + account_locks_.size();
  }

 private:
  /// The locks one owner holds, in acquisition order.
  struct Held {
    std::vector<ContractId> contracts;
    std::vector<AccountId> accounts;
  };
  /// Drops `id` from `owner`'s index entry, and the entry once it is empty.
  template <typename Id>
  void forget(std::vector<Id> Held::*list, const Hash256& owner, Id id);

  std::unordered_map<ContractId, Hash256> contract_locks_;
  std::unordered_map<AccountId, Hash256> account_locks_;
  /// Owner -> the locks it holds: every lock in the two maps above appears
  /// exactly once here, under its owner.
  std::unordered_map<Hash256, Held> held_by_;
};

}  // namespace jenga::ledger
