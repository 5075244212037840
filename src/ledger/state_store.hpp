// Per-shard state storage: account balances and contract key-value states,
// plus the logic store (which, in Jenga, every node replicates).
//
// The hash maps are the read path; every mutation also feeds an authenticated
// Merkle trie (trie.hpp) keyed by hashed state keys, so digest() is the
// trie's incrementally-maintained root instead of a whole-store rehash.  An
// optional StorageBackend receives the raw key/value bytes write-through —
// in-memory for the bit-identity oracle, WAL+snapshot for crash durability —
// and StateStore::open() rebuilds a store from whatever a backend recovered,
// refusing state whose rebuilt root does not match the committed root.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "ledger/storage_backend.hpp"
#include "ledger/trie.hpp"
#include "vm/bytecode.hpp"

namespace jenga::ledger {

/// One contract's full state: the unit that Phase 1 locks and ships.
///
/// Slots live in one vector sorted by key, so a copy is a single allocation
/// rather than one tree node per slot, and iteration runs in ascending key
/// order — the canonical order every encoding and digest relies on.  Offers
/// the subset of std::map the protocol uses; `find` is a binary search and
/// inserting a new key shifts the slots above it (states are small).
class ContractState {
 public:
  using Entry = std::pair<std::uint64_t, std::uint64_t>;
  using const_iterator = std::vector<Entry>::const_iterator;

  ContractState() = default;
  /// Like std::map, the first of two entries with the same key wins.
  ContractState(std::initializer_list<Entry> init) {
    for (const auto& [k, v] : init) {
      const auto it = lower_bound(k);
      if (it == slots_.end() || it->first != k) slots_.insert(it, {k, v});
    }
  }

  [[nodiscard]] const_iterator begin() const { return slots_.begin(); }
  [[nodiscard]] const_iterator end() const { return slots_.end(); }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  void reserve(std::size_t n) { slots_.reserve(n); }

  [[nodiscard]] const_iterator find(std::uint64_t key) const {
    const auto it = std::lower_bound(slots_.begin(), slots_.end(), key, key_less);
    return it != slots_.end() && it->first == key ? it : slots_.end();
  }

  /// The value at `key`, inserted as 0 if absent.
  std::uint64_t& operator[](std::uint64_t key) {
    const auto it = lower_bound(key);
    if (it != slots_.end() && it->first == key) return it->second;
    return slots_.insert(it, {key, 0})->second;
  }

  /// Throws std::out_of_range if `key` is absent.
  [[nodiscard]] std::uint64_t at(std::uint64_t key) const {
    const auto it = find(key);
    if (it == end()) throw std::out_of_range("ContractState::at: no such key");
    return it->second;
  }

  /// Appends an entry whose key is above every key held; returns false (and
  /// changes nothing) otherwise.  The O(1) path for canonical decoding.
  bool append(std::uint64_t key, std::uint64_t value) {
    if (!slots_.empty() && slots_.back().first >= key) return false;
    slots_.emplace_back(key, value);
    return true;
  }

  friend bool operator==(const ContractState&, const ContractState&) = default;

 private:
  static bool key_less(const Entry& e, std::uint64_t key) { return e.first < key; }
  std::vector<Entry>::iterator lower_bound(std::uint64_t key) {
    return std::lower_bound(slots_.begin(), slots_.end(), key, key_less);
  }

  std::vector<Entry> slots_;
};

/// Storage model constants (DESIGN.md §5).
inline constexpr std::uint64_t kAccountStateBytes = 128;
inline constexpr std::uint64_t kStateEntryBytes = 64;
inline constexpr std::uint64_t kContractStateOverheadBytes = 256;

[[nodiscard]] inline std::uint64_t contract_state_bytes(const ContractState& st) {
  return kContractStateOverheadBytes + kStateEntryBytes * st.size();
}

// --- state key/value encoding ------------------------------------------------
// StateStore owns the byte encoding shared by the trie, the storage backends
// and proof-verified state sync.  Keys are a one-byte keyspace tag plus the
// u64 id (little-endian); trie paths are the tagged SHA-256 of the key bytes.

inline constexpr std::uint8_t kKeyspaceAccount = 0;
inline constexpr std::uint8_t kKeyspaceContract = 1;

[[nodiscard]] std::vector<std::uint8_t> state_key_account(AccountId id);
[[nodiscard]] std::vector<std::uint8_t> state_key_contract(ContractId id);
[[nodiscard]] Hash256 state_path(std::span<const std::uint8_t> key_bytes);
[[nodiscard]] Hash256 state_value_hash(std::span<const std::uint8_t> value_bytes);
[[nodiscard]] std::vector<std::uint8_t> encode_account_value(std::uint64_t balance);
[[nodiscard]] std::vector<std::uint8_t> encode_contract_value(const ContractState& st);
/// The one decoder of encode_contract_value's layout (u64 count, then
/// key/value pairs).  Rejects a truncated value and any key that is not
/// strictly above the one before it, so every accepted state re-encodes to
/// the bytes it was read from.  Leaves `r` positioned after the state.
[[nodiscard]] std::optional<ContractState> read_contract_state(Reader& r);

class StateStore {
 public:
  /// Backend-less store: trie-authenticated, nothing persisted.
  StateStore() = default;

  StateStore(StateStore&&) noexcept = default;
  StateStore& operator=(StateStore&&) noexcept = default;
  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Recovers a store from `backend->load()`: applies every recovered entry,
  /// then checks the rebuilt trie root against the root the backend's last
  /// commit promised.  A mismatch (or a backend-load error — torn snapshot,
  /// corrupt WAL) returns the error instead of a store: corrupted durable
  /// state is refused, never silently half-loaded.  A fresh backend recovers
  /// to an empty store ready for genesis writes.
  [[nodiscard]] static Result<StateStore> open(std::unique_ptr<StorageBackend> backend);

  // --- accounts ---
  void create_account(AccountId id, std::uint64_t balance);
  [[nodiscard]] bool has_account(AccountId id) const;
  [[nodiscard]] std::optional<std::uint64_t> balance(AccountId id) const;
  bool set_balance(AccountId id, std::uint64_t balance);
  [[nodiscard]] std::size_t account_count() const { return balances_.size(); }
  /// Sum of all balances (conservation checks in tests).
  [[nodiscard]] std::uint64_t total_balance() const;

  // --- contract state ---
  void create_contract_state(ContractId id, ContractState initial);
  [[nodiscard]] bool has_contract_state(ContractId id) const;
  [[nodiscard]] const ContractState* contract_state(ContractId id) const;
  bool set_contract_state(ContractId id, ContractState state);
  [[nodiscard]] std::size_t contract_count() const { return contract_states_.size(); }

  // --- storage accounting ---
  [[nodiscard]] std::uint64_t state_storage_bytes() const;

  /// Authenticated state root: the Merkle trie's cached incremental root.
  /// Structure is insertion-order independent, so any execution worker count
  /// and any arrival order land on the same digest.  Debug builds assert the
  /// incremental root against a from-scratch recompute.
  [[nodiscard]] Hash256 digest() const;

  /// Durability barrier: tells the backend the current root is decided (the
  /// WAL commit record + fsync on the durable backend).  No-op without one.
  void commit();

  /// Merkle inclusion proof for one state entry under digest().  Returns
  /// false if the key is absent.
  [[nodiscard]] bool prove(std::span<const std::uint8_t> key_bytes, TrieProof& out) const;

  /// Read views for state sync and tests.
  [[nodiscard]] const std::unordered_map<AccountId, std::uint64_t>& balances() const {
    return balances_;
  }
  [[nodiscard]] const std::unordered_map<ContractId, ContractState>& contracts() const {
    return contract_states_;
  }

  [[nodiscard]] const StorageBackend* backend() const { return backend_.get(); }
  [[nodiscard]] const MerkleTrie& trie() const { return trie_; }

 private:
  void write_through(std::span<const std::uint8_t> key_bytes,
                     std::span<const std::uint8_t> value_bytes);

  std::unordered_map<AccountId, std::uint64_t> balances_;
  std::unordered_map<ContractId, ContractState> contract_states_;
  MerkleTrie trie_;
  std::unique_ptr<StorageBackend> backend_;
};

/// Contract logic store.  In Jenga every node holds all logic; in CX Func a
/// node only holds its shard's share; in Pyramid the merged span.
class LogicStore {
 public:
  void add(std::shared_ptr<const vm::ContractLogic> logic);
  [[nodiscard]] const vm::ContractLogic* get(ContractId id) const;
  [[nodiscard]] bool has(ContractId id) const { return get(id) != nullptr; }
  [[nodiscard]] std::size_t size() const { return logics_.size(); }
  [[nodiscard]] std::uint64_t logic_storage_bytes() const { return logic_bytes_; }

 private:
  std::unordered_map<ContractId, std::shared_ptr<const vm::ContractLogic>> logics_;
  std::uint64_t logic_bytes_ = 0;
};

}  // namespace jenga::ledger
