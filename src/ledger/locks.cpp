#include "ledger/locks.hpp"

#include <algorithm>

namespace jenga::ledger {

bool LockManager::lock_contract(ContractId id, const Hash256& owner) {
  const auto [it, inserted] = contract_locks_.try_emplace(id, owner);
  if (inserted) held_by_[owner].contracts.push_back(id);
  return inserted || it->second == owner;
}

bool LockManager::lock_account(AccountId id, const Hash256& owner) {
  const auto [it, inserted] = account_locks_.try_emplace(id, owner);
  if (inserted) held_by_[owner].accounts.push_back(id);
  return inserted || it->second == owner;
}

template <typename Id>
void LockManager::forget(std::vector<Id> Held::*list, const Hash256& owner, Id id) {
  const auto it = held_by_.find(owner);
  std::vector<Id>& ids = it->second.*list;
  ids.erase(std::find(ids.begin(), ids.end(), id));
  if (it->second.contracts.empty() && it->second.accounts.empty()) held_by_.erase(it);
}

bool LockManager::unlock_contract(ContractId id, const Hash256& owner) {
  const auto it = contract_locks_.find(id);
  if (it == contract_locks_.end() || !(it->second == owner)) return false;
  contract_locks_.erase(it);
  forget(&Held::contracts, owner, id);
  return true;
}

bool LockManager::unlock_account(AccountId id, const Hash256& owner) {
  const auto it = account_locks_.find(id);
  if (it == account_locks_.end() || !(it->second == owner)) return false;
  account_locks_.erase(it);
  forget(&Held::accounts, owner, id);
  return true;
}

std::size_t LockManager::release_all(const Hash256& owner) {
  const auto it = held_by_.find(owner);
  if (it == held_by_.end()) return 0;
  const Held& held = it->second;
  for (const ContractId c : held.contracts) contract_locks_.erase(c);
  for (const AccountId a : held.accounts) account_locks_.erase(a);
  const std::size_t released = held.contracts.size() + held.accounts.size();
  held_by_.erase(it);
  return released;
}

bool LockManager::contract_locked(ContractId id) const { return contract_locks_.contains(id); }
bool LockManager::account_locked(AccountId id) const { return account_locks_.contains(id); }

const Hash256* LockManager::contract_owner(ContractId id) const {
  const auto it = contract_locks_.find(id);
  return it == contract_locks_.end() ? nullptr : &it->second;
}

}  // namespace jenga::ledger
