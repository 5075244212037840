// Ledger: state store, locks, blocks/chains, transactions, portable state,
// and placement rules.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <stdexcept>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/block.hpp"
#include "ledger/locks.hpp"
#include "ledger/placement.hpp"
#include "ledger/portable_state.hpp"
#include "ledger/state_store.hpp"
#include "ledger/transaction.hpp"
#include "ledger/wal.hpp"

namespace jenga::ledger {
namespace {

TEST(StateStore, AccountLifecycle) {
  StateStore store;
  EXPECT_FALSE(store.has_account(AccountId{1}));
  store.create_account(AccountId{1}, 500);
  EXPECT_TRUE(store.has_account(AccountId{1}));
  EXPECT_EQ(store.balance(AccountId{1}), 500u);
  EXPECT_TRUE(store.set_balance(AccountId{1}, 300));
  EXPECT_EQ(store.balance(AccountId{1}), 300u);
  EXPECT_FALSE(store.set_balance(AccountId{2}, 1));  // unknown account
  EXPECT_FALSE(store.balance(AccountId{2}).has_value());
}

TEST(StateStore, TotalBalanceSums) {
  StateStore store;
  store.create_account(AccountId{1}, 100);
  store.create_account(AccountId{2}, 250);
  EXPECT_EQ(store.total_balance(), 350u);
}

TEST(StateStore, ContractStateLifecycle) {
  StateStore store;
  EXPECT_EQ(store.contract_state(ContractId{9}), nullptr);
  store.create_contract_state(ContractId{9}, {{1, 10}, {2, 20}});
  ASSERT_NE(store.contract_state(ContractId{9}), nullptr);
  EXPECT_EQ(store.contract_state(ContractId{9})->at(2), 20u);
  EXPECT_TRUE(store.set_contract_state(ContractId{9}, {{1, 11}}));
  EXPECT_EQ(store.contract_state(ContractId{9})->at(1), 11u);
  EXPECT_FALSE(store.set_contract_state(ContractId{8}, {}));
}

TEST(StateStore, StorageAccounting) {
  StateStore store;
  EXPECT_EQ(store.state_storage_bytes(), 0u);
  store.create_account(AccountId{1}, 0);
  EXPECT_EQ(store.state_storage_bytes(), kAccountStateBytes);
  store.create_contract_state(ContractId{1}, {{1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(store.state_storage_bytes(),
            kAccountStateBytes + kContractStateOverheadBytes + 3 * kStateEntryBytes);
}

TEST(StateStore, DigestIsIncrementalAndOrderIndependent) {
  // The digest is the trie's cached incremental root; it must be a pure
  // function of the key→value mapping.  Two stores reaching the same state
  // through different mutation orders (including deletes-by-overwrite) agree,
  // and the cached root always matches a from-scratch recompute.
  StateStore a;
  StateStore b;
  for (std::uint64_t i = 0; i < 50; ++i) a.create_account(AccountId{i}, i * 7);
  for (std::uint64_t i = 50; i-- > 0;) b.create_account(AccountId{i}, 1);
  for (std::uint64_t i = 0; i < 50; ++i) b.set_balance(AccountId{i}, i * 7);
  a.create_contract_state(ContractId{3}, {{1, 10}});
  b.create_contract_state(ContractId{3}, {{1, 99}});
  b.set_contract_state(ContractId{3}, {{1, 10}});
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), a.trie().recompute_root());

  // Any divergence in content diverges the digest.
  b.set_balance(AccountId{49}, 0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(StateStore, DigestChangesWithEveryMutation) {
  StateStore store;
  const Hash256 empty = store.digest();
  store.create_account(AccountId{1}, 5);
  const Hash256 one = store.digest();
  EXPECT_NE(one, empty);
  store.set_balance(AccountId{1}, 6);
  EXPECT_NE(store.digest(), one);
  store.set_balance(AccountId{1}, 5);
  EXPECT_EQ(store.digest(), one);  // same content, same root
}

TEST(LogicStore, DeduplicatesAndAccounts) {
  LogicStore store;
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = ContractId{5};
  logic->functions.push_back({"f", {{vm::Op::kReturn, 0}}});
  store.add(logic);
  store.add(logic);  // duplicate add must not double-count
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.logic_storage_bytes(), logic->code_size_bytes());
  EXPECT_TRUE(store.has(ContractId{5}));
  EXPECT_FALSE(store.has(ContractId{6}));
}

TEST(LockManager, ExclusiveOwnership) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  const Hash256 tx2 = crypto::sha256("tx2");
  EXPECT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  EXPECT_TRUE(locks.lock_contract(ContractId{1}, tx1));   // re-entrant for owner
  EXPECT_FALSE(locks.lock_contract(ContractId{1}, tx2));  // contended
  EXPECT_TRUE(locks.contract_locked(ContractId{1}));
  EXPECT_FALSE(locks.unlock_contract(ContractId{1}, tx2));  // non-owner release
  EXPECT_TRUE(locks.unlock_contract(ContractId{1}, tx1));
  EXPECT_FALSE(locks.contract_locked(ContractId{1}));
  EXPECT_TRUE(locks.lock_contract(ContractId{1}, tx2));  // now free
}

TEST(LockManager, AccountLocksIndependent) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  EXPECT_TRUE(locks.lock_account(AccountId{7}, tx1));
  EXPECT_TRUE(locks.lock_contract(ContractId{7}, tx1));  // distinct namespaces
  EXPECT_EQ(locks.held_locks(), 2u);
}

TEST(LockManager, ReleaseAllAfterPartialUnlock) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  ASSERT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  ASSERT_TRUE(locks.lock_contract(ContractId{2}, tx1));
  ASSERT_TRUE(locks.lock_account(AccountId{3}, tx1));
  ASSERT_TRUE(locks.lock_account(AccountId{4}, tx1));
  ASSERT_TRUE(locks.unlock_contract(ContractId{1}, tx1));
  ASSERT_TRUE(locks.unlock_account(AccountId{4}, tx1));
  // Only what is still held is released, and counted.
  EXPECT_EQ(locks.release_all(tx1), 2u);
  EXPECT_EQ(locks.held_locks(), 0u);
  EXPECT_FALSE(locks.contract_locked(ContractId{2}));
  EXPECT_FALSE(locks.account_locked(AccountId{3}));
  EXPECT_EQ(locks.release_all(tx1), 0u);  // nothing left to release
}

TEST(LockManager, ReleaseAllTouchesOnlyItsOwner) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  const Hash256 tx2 = crypto::sha256("tx2");
  // Interleaved acquisitions, including a contended one and a re-acquire.
  ASSERT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  ASSERT_TRUE(locks.lock_contract(ContractId{2}, tx2));
  ASSERT_TRUE(locks.lock_account(AccountId{1}, tx2));
  ASSERT_TRUE(locks.lock_account(AccountId{2}, tx1));
  ASSERT_FALSE(locks.lock_contract(ContractId{2}, tx1));
  ASSERT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  EXPECT_EQ(locks.held_locks(), 4u);

  EXPECT_EQ(locks.release_all(tx1), 2u);
  EXPECT_FALSE(locks.contract_locked(ContractId{1}));
  EXPECT_FALSE(locks.account_locked(AccountId{2}));
  ASSERT_NE(locks.contract_owner(ContractId{2}), nullptr);
  EXPECT_EQ(*locks.contract_owner(ContractId{2}), tx2);
  EXPECT_TRUE(locks.account_locked(AccountId{1}));

  EXPECT_EQ(locks.release_all(tx2), 2u);
  EXPECT_EQ(locks.held_locks(), 0u);
}

TEST(LockManager, RelockAfterReleaseAll) {
  LockManager locks;
  const Hash256 tx1 = crypto::sha256("tx1");
  const Hash256 tx2 = crypto::sha256("tx2");
  ASSERT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  ASSERT_TRUE(locks.lock_account(AccountId{1}, tx1));
  ASSERT_EQ(locks.release_all(tx1), 2u);

  // The freed states go to another owner, and back to the first one; each
  // release_all sees exactly its owner's current locks.
  ASSERT_TRUE(locks.lock_contract(ContractId{1}, tx2));
  EXPECT_EQ(locks.release_all(tx1), 0u);
  EXPECT_TRUE(locks.contract_locked(ContractId{1}));
  ASSERT_EQ(locks.release_all(tx2), 1u);
  ASSERT_TRUE(locks.lock_contract(ContractId{1}, tx1));
  ASSERT_TRUE(locks.lock_account(AccountId{1}, tx1));
  EXPECT_EQ(locks.release_all(tx1), 2u);
  EXPECT_EQ(locks.held_locks(), 0u);
}

TEST(Chain, AppendsLinkedBlocks) {
  Chain chain(ShardId{0});
  const auto b0 = build_block(ShardId{0}, 0, chain.tip_hash(),
                              {crypto::sha256("t1"), crypto::sha256("t2")}, 1024, 100);
  ASSERT_TRUE(chain.append(b0));
  const auto b1 = build_block(ShardId{0}, 1, chain.tip_hash(), {crypto::sha256("t3")}, 512, 200);
  ASSERT_TRUE(chain.append(b1));
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.total_txs(), 3u);
  EXPECT_EQ(chain.total_bytes(), 1024 + 512 + 2 * Block::kHeaderBytes);
  EXPECT_TRUE(chain.verify());
}

TEST(Chain, RejectsWrongHeight) {
  Chain chain(ShardId{0});
  const auto b = build_block(ShardId{0}, 5, chain.tip_hash(), {}, 0, 0);
  EXPECT_FALSE(chain.append(b));
}

TEST(Chain, RejectsWrongParent) {
  Chain chain(ShardId{0});
  const auto b = build_block(ShardId{0}, 0, crypto::sha256("bogus"), {}, 0, 0);
  EXPECT_FALSE(chain.append(b));
}

TEST(Chain, RejectsWrongShard) {
  Chain chain(ShardId{0});
  const auto b = build_block(ShardId{1}, 0, chain.tip_hash(), {}, 0, 0);
  EXPECT_FALSE(chain.append(b));
}

TEST(Chain, RejectsTamperedRoot) {
  Chain chain(ShardId{0});
  auto b = build_block(ShardId{0}, 0, chain.tip_hash(), {crypto::sha256("t")}, 512, 0);
  b.tx_hashes.push_back(crypto::sha256("sneaky"));
  EXPECT_FALSE(chain.append(b));
}

TEST(Transaction, HashStableAndDistinct) {
  auto t1 = make_transfer(AccountId{1}, AccountId{2}, 100, 1, 0);
  auto t2 = make_transfer(AccountId{1}, AccountId{2}, 100, 1, 0);
  auto t3 = make_transfer(AccountId{1}, AccountId{2}, 101, 1, 0);
  EXPECT_EQ(t1.hash, t2.hash);
  EXPECT_NE(t1.hash, t3.hash);
}

TEST(Transaction, WireSizeFloorsAtPaperSetting) {
  auto t = make_transfer(AccountId{1}, AccountId{2}, 100, 1, 0);
  EXPECT_EQ(t.wire_size(), kTxWireBytes);
}

TEST(Transaction, ContractCallCountsStepsAndContracts) {
  Transaction tx;
  tx.kind = TxKind::kContractCall;
  tx.sender = AccountId{1};
  tx.contracts = {ContractId{10}, ContractId{11}, ContractId{12}};
  tx.accounts = {AccountId{1}};
  for (int i = 0; i < 7; ++i) tx.steps.push_back({static_cast<std::uint16_t>(i % 3), 0, {}});
  tx.finalize();
  EXPECT_EQ(tx.step_count(), 7u);
  EXPECT_EQ(tx.distinct_contracts(), 3u);
  EXPECT_FALSE(tx.hash.is_zero());
}

TEST(Transaction, DeployCarriesLogicSize) {
  auto logic = std::make_shared<vm::ContractLogic>();
  logic->id = ContractId{1};
  logic->functions.push_back({"f", std::vector<vm::Instruction>(200, {vm::Op::kPush, 1})});
  auto tx = make_deploy(AccountId{1}, logic, 10, 5, 0);
  EXPECT_GT(tx.wire_size(), kTxWireBytes);  // code dominates
}

TEST(PortableState, MergeAndWireSize) {
  PortableState a, b;
  a.contracts[ContractId{1}] = {{1, 1}};
  a.balances[AccountId{1}] = 10;
  b.contracts[ContractId{2}] = {{2, 2}, {3, 3}};
  b.balances[AccountId{2}] = 20;
  a.merge(b);
  EXPECT_EQ(a.contracts.size(), 2u);
  EXPECT_EQ(a.balances.size(), 2u);
  EXPECT_EQ(a.total_balance(), 30u);
  EXPECT_GT(a.wire_size(), 16u);
}

TEST(PortableState, MergeOverwritesWithNewer) {
  PortableState a, b;
  a.contracts[ContractId{1}] = {{1, 1}};
  b.contracts[ContractId{1}] = {{1, 99}};
  a.merge(b);
  EXPECT_EQ(a.contracts.at(ContractId{1}).at(1), 99u);
}

PortableState sample_portable() {
  PortableState state;
  state.contracts[ContractId{1}] = {{1, 10}, {2, 20}};
  state.contracts[ContractId{7}] = {};
  state.balances[AccountId{3}] = 300;
  state.balances[AccountId{4}] = 400;
  return state;
}

TEST(PortableState, EncodeDecodeRoundTrip) {
  const PortableState state = sample_portable();
  const auto wire = state.encode();
  auto decoded = PortableState::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().contracts, state.contracts);
  EXPECT_EQ(decoded.value().balances, state.balances);
  EXPECT_EQ(decoded.value().total_balance(), 700u);

  // Empty bundles round-trip too.
  auto empty = PortableState::decode(PortableState{}.encode());
  ASSERT_TRUE(empty.ok()) << empty.error();
  EXPECT_TRUE(empty.value().empty());
}

TEST(PortableState, DecodeRejectsTruncation) {
  const auto wire = sample_portable().encode();
  // Every proper prefix must fail cleanly — no crash, no partial bundle.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto r = PortableState::decode(std::span(wire).first(cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded";
  }
  // Trailing garbage is rejected as a length mismatch.
  auto padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(PortableState::decode(padded).ok());
}

TEST(PortableState, DecodeRejectsBitFlips) {
  const auto wire = sample_portable().encode();
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    auto bent = wire;
    bent[byte] ^= 0x10;
    auto r = PortableState::decode(bent);
    EXPECT_FALSE(r.ok()) << "flip in byte " << byte << " decoded";
  }
}

/// The JPS1 frame around a hand-built payload, with a valid CRC.
std::vector<std::uint8_t> jps1_frame(const Writer& payload) {
  Writer out;
  out.u32(kPortableStateMagic);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc32c(payload.data()));
  out.bytes(payload.data());
  return out.take();
}

/// One contract (id 9) holding the given keys in the given order.
std::vector<std::uint8_t> one_contract_payload(std::initializer_list<std::uint64_t> keys) {
  Writer payload;
  payload.u64(1);  // contracts
  payload.u64(9);
  payload.u64(keys.size());
  for (std::uint64_t k : keys) {
    payload.u64(k);
    payload.u64(k * 10);
  }
  payload.u64(0);  // balances
  return jps1_frame(payload);
}

TEST(PortableState, DecodeRejectsKeysOutOfOrder) {
  // Well framed and checksummed, so only the key order decides.
  EXPECT_TRUE(PortableState::decode(one_contract_payload({3, 5})).ok());
  EXPECT_FALSE(PortableState::decode(one_contract_payload({5, 3})).ok());
  EXPECT_FALSE(PortableState::decode(one_contract_payload({5, 5})).ok());

  Writer two;
  two.u64(2);
  for (std::uint64_t id : {7, 2}) {  // contract ids descending
    two.u64(id);
    two.u64(0);
  }
  two.u64(0);
  EXPECT_FALSE(PortableState::decode(jps1_frame(two)).ok());
}

/// Any map-like range as a flat list of (key, value) pairs, in its order.
template <typename Range>
std::vector<ContractState::Entry> entries_of(const Range& r) {
  return {r.begin(), r.end()};
}

std::vector<std::uint8_t> reference_encoding(const std::map<std::uint64_t, std::uint64_t>& ref) {
  Writer w;
  w.u64(ref.size());
  for (const auto& [k, v] : ref) {
    w.u64(k);
    w.u64(v);
  }
  return w.take();
}

TEST(ContractState, MatchesStdMapUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ContractState st;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t key = rng.uniform(48);  // small space: hits and misses
      switch (rng.uniform(4)) {
        case 0: {  // insert or update
          const std::uint64_t v = rng.uniform(1000);
          st[key] = v;
          ref[key] = v;
          break;
        }
        case 1: {  // find, hit or miss
          const auto it = st.find(key);
          const auto rit = ref.find(key);
          ASSERT_EQ(it == st.end(), rit == ref.end());
          if (rit != ref.end()) {
            EXPECT_EQ(it->second, rit->second);
            EXPECT_EQ(st.at(key), rit->second);
          }
          break;
        }
        case 2:  // read through operator[]: inserts 0 when absent
          EXPECT_EQ(st[key], ref[key]);
          break;
        default: {  // copies compare equal and stay independent
          ContractState copy = st;
          EXPECT_EQ(copy, st);
          copy[key + 1000] = 1;
          EXPECT_FALSE(copy == st);
          break;
        }
      }
      ASSERT_EQ(st.size(), ref.size());
      ASSERT_EQ(entries_of(st), entries_of(ref));
      ASSERT_EQ(encode_contract_value(st), reference_encoding(ref));
    }

    PortableState bundle;
    bundle.contracts[ContractId{seed}] = st;
    const auto wire = bundle.encode();
    auto decoded = PortableState::decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().contracts.at(ContractId{seed}), st);
    EXPECT_EQ(decoded.value().encode(), wire);
  }
}

TEST(ContractState, AtThrowsOnMissingKey) {
  const ContractState st{{1, 10}};
  EXPECT_EQ(st.at(1), 10u);
  EXPECT_THROW((void)st.at(2), std::out_of_range);
  EXPECT_THROW((void)ContractState{}.at(0), std::out_of_range);
}

TEST(ContractState, InitializerListKeepsFirstDuplicate) {
  const ContractState st{{4, 1}, {2, 7}, {4, 2}};
  const std::map<std::uint64_t, std::uint64_t> ref{{4, 1}, {2, 7}, {4, 2}};
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st.at(4), 1u);
  EXPECT_EQ(entries_of(st), entries_of(ref));
}

TEST(Placement, DeterministicAndInRange) {
  for (std::uint32_t s : {4u, 6u, 8u, 10u, 12u}) {
    for (std::uint64_t id = 0; id < 100; ++id) {
      const auto shard = shard_of_contract(ContractId{id}, s);
      EXPECT_LT(shard.value, s);
      EXPECT_EQ(shard, shard_of_contract(ContractId{id}, s));
      EXPECT_LT(shard_of_account(AccountId{id}, s).value, s);
    }
  }
}

TEST(Placement, RoughlyBalanced) {
  const std::uint32_t s = 8;
  std::vector<int> counts(s, 0);
  for (std::uint64_t id = 0; id < 8000; ++id)
    counts[shard_of_contract(ContractId{id}, s).value]++;
  for (auto c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Placement, ChannelOfTxUsesHash) {
  auto t1 = make_transfer(AccountId{1}, AccountId{2}, 1, 1, 0);
  auto t2 = make_transfer(AccountId{3}, AccountId{4}, 2, 1, 0);
  const auto c1 = channel_of_tx(t1.hash, 12);
  const auto c2 = channel_of_tx(t2.hash, 12);
  EXPECT_LT(c1.value, 12u);
  EXPECT_LT(c2.value, 12u);
  // Determinism.
  EXPECT_EQ(c1, channel_of_tx(t1.hash, 12));
}

}  // namespace
}  // namespace jenga::ledger
