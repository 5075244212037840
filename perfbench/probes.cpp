// Link-time wrappers: see probes.hpp.  Each __wrap_<sym> is reached instead
// of <sym> for calls from other object files, and forwards to __real_<sym>.
// probes.txt must list exactly the symbols wrapped here (base set always,
// trace set only under JBENCH_TRACED); the link fails on a listed symbol
// without a wrapper.
#include "probes.hpp"

#include <memory>
#include <vector>

#include "baselines/baseline_base.hpp"
#include "consensus/bft.hpp"
#include "core/jenga_system.hpp"
#include "crypto/fastcrypto.hpp"
#include "crypto/sha256.hpp"
#include "exec/conflict.hpp"
#include "exec/engine.hpp"
#include "gossip/batch.hpp"
#include "ledger/locks.hpp"
#include "ledger/state_store.hpp"
#include "ledger/trie.hpp"
#include "ledger/wal.hpp"
#include "mempool/ingress.hpp"
#include "security/detector.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "vm/interpreter.hpp"
#include "workload/arrival.hpp"
#include "workload/client.hpp"
#include "workload/trace.hpp"

using namespace jenga;  // NOLINT: wrapper signatures spell many jenga types

namespace perfbench {

RunLog& run_log() {
  static RunLog log;
  return log;
}

const char* layer_name(Layer l) {
  static constexpr const char* kNames[] = {
#define PERFBENCH_NAME(id, name) name,
      PERFBENCH_LAYERS(PERFBENCH_NAME)
#undef PERFBENCH_NAME
  };
  return kNames[l];
}

namespace {

#if JBENCH_TRACED

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct Frame {
  std::int64_t start = 0;
  std::int64_t child = 0;  // inclusive time of the spans nested directly inside
  Layer layer = kUnattributed;
  Probe probe = kLayerCall;
};

// Single-threaded by construction: every workload runs exec_workers=1, so all
// probed calls happen on the simulator's thread.
struct Tracer {
  bool on = false;
  static constexpr int kMaxDepth = 512;
  int depth = 0;
  Frame stack[kMaxDepth];
  std::int64_t self_ns[kLayerCount] = {};
  std::uint64_t layer_calls[kLayerCount] = {};
  std::int64_t probe_ns[kProbeCount] = {};
  std::uint64_t probe_calls[kProbeCount] = {};
  std::int64_t root_ns = 0;
  std::uint64_t overflows = 0;
  Layer system_layer = kCore;
  sim::Network* net = nullptr;  // captured at register_node
  bool proxies_installed = false;
};
Tracer g;

Layer current_layer() { return g.depth > 0 ? g.stack[g.depth - 1].layer : kUnattributed; }

class Span {
 public:
  Span(Layer layer, Probe probe) {
    if (!g.on) return;
    if (g.depth == Tracer::kMaxDepth) {
      ++g.overflows;  // time stays in the enclosing span
      return;
    }
    active_ = true;
    g.stack[g.depth++] = Frame{now_ns(), 0, layer, probe};
  }
  ~Span() {
    if (!active_) return;
    const std::int64_t end = now_ns();
    const Frame f = g.stack[--g.depth];
    const std::int64_t dur = end - f.start;
    g.self_ns[f.layer] += dur - f.child;
    ++g.layer_calls[f.layer];
    g.probe_ns[f.probe] += dur;
    ++g.probe_calls[f.probe];
    if (g.depth > 0) {
      g.stack[g.depth - 1].child += dur;
    } else {
      g.root_ns += dur;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

// Forwarding proxies for calls the linker cannot see (virtual dispatch).

class AppProxy final : public consensus::BftApp {
 public:
  AppProxy(consensus::BftApp& inner, Layer layer) : inner_(inner), layer_(layer) {}
  std::optional<consensus::ConsensusValue> propose(std::uint64_t height) override {
    Span s(layer_, kLayerCall);
    return inner_.propose(height);
  }
  bool validate(std::uint64_t height, const consensus::ConsensusValue& value) override {
    Span s(layer_, kLayerCall);
    return inner_.validate(height, value);
  }
  void on_decide(std::uint64_t height, const consensus::ConsensusValue& value,
                 const consensus::QuorumCert& cert) override {
    Span s(layer_, kLayerCall);
    inner_.on_decide(height, value, cert);
  }

 private:
  consensus::BftApp& inner_;
  Layer layer_;
};
std::vector<std::unique_ptr<AppProxy>> g_apps;

class ObserverProxy final : public sim::ArrivalObserver {
 public:
  sim::ArrivalObserver* inner = nullptr;
  void on_arrival(NodeId from, NodeId to, SimTime now) override {
    Span s(kDetector, kDetectorSample);
    inner->on_arrival(from, to, now);
  }
};
ObserverProxy g_observer;

class RumorProxy final : public sim::RumorTransport {
 public:
  sim::RumorTransport* inner = nullptr;
  void broadcast(NodeId origin, std::span<const NodeId> group, std::uint64_t rumor_id,
                 const sim::Message& msg, sim::TrafficClass cls) override {
    Span s(kGossip, kLayerCall);
    inner->broadcast(origin, group, rumor_id, msg, cls);
  }
  void on_message(NodeId to, const sim::Message& msg) override {
    Span s(kGossip, kLayerCall);
    inner->on_message(to, msg);
  }
};
RumorProxy g_rumor;

// The arrival observer and rumor mesh are attached through inline setters
// during setup; swap in the proxies before the first event runs.
void install_proxies() {
  if (g.proxies_installed || g.net == nullptr) return;
  g.proxies_installed = true;
  if (sim::ArrivalObserver* obs = g.net->arrival_observer()) {
    g_observer.inner = obs;
    g.net->set_arrival_observer(&g_observer);
  }
  if (sim::RumorTransport* mesh = g.net->rumor_mesh()) {
    g_rumor.inner = mesh;
    g.net->set_rumor_mesh(&g_rumor);
  }
}

#else  // untraced binary: spans compile away

class Span {
 public:
  Span(Layer, Probe) {}
};
void install_proxies() {}

#endif

void note_submit(const core::TxPtr& tx) {
  run_log().txs.try_emplace(tx->hash,
                            RunLog::Arrival{tx->created_at,
                                            tx->kind == ledger::TxKind::kContractCall});
}

}  // namespace

#if JBENCH_TRACED

void trace_begin(Layer system_layer) {
  g = Tracer{};
  g.system_layer = system_layer;
  g_apps.clear();
  g_observer.inner = nullptr;
  g_rumor.inner = nullptr;
  g.on = true;
}

TraceReport trace_end() {
  g.on = false;
  TraceReport r;
  r.wall_s = static_cast<double>(g.root_ns) * 1e-9;
  std::int64_t self_sum = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    r.layer_self_s[l] = static_cast<double>(g.self_ns[l]) * 1e-9;
    r.layer_calls[l] = g.layer_calls[l];
    self_sum += g.self_ns[l];
  }
  for (int p = 0; p < kProbeCount; ++p) {
    r.probe_total_s[p] = static_cast<double>(g.probe_ns[p]) * 1e-9;
    r.probe_calls[p] = g.probe_calls[p];
  }
  r.residual_ns = self_sum - g.root_ns;
  r.depth_overflows = g.overflows;
  return r;
}

namespace {
// RootSpan cannot hold a Span member (Span is local to this file), so it keeps
// one in static storage for the single run a process makes.
std::unique_ptr<Span> g_root;
}  // namespace

RootSpan::RootSpan() { g_root = std::make_unique<Span>(kUnattributed, kRoot); }
RootSpan::~RootSpan() { g_root.reset(); }

#endif

}  // namespace perfbench

using perfbench::Span;
using namespace perfbench;  // NOLINT: layer/probe enumerators

// Forwarding wrapper for `R sym params`, timed as (layer, probe).
#define PB_WRAP(layer, probe, R, sym, params, args) \
  extern "C" R __real_##sym params;                 \
  extern "C" R __wrap_##sym params {                \
    Span span_(layer, probe);                       \
    return __real_##sym args;                       \
  }

// ============================ base set =====================================

extern "C" void __real__ZN5jenga3sim9Simulator9run_untilEl(sim::Simulator*, SimTime);
extern "C" void __wrap__ZN5jenga3sim9Simulator9run_untilEl(sim::Simulator* self,
                                                           SimTime deadline) {
  RunLog& log = run_log();
  if (log.setup_s < 0) {
    log.setup_s = seconds_since(log.start);
    log.sim = self;
    if (log.at_setup) log.at_setup();
    install_proxies();
  }
  Span span_(kSimnet, kLayerCall);
  __real__ZN5jenga3sim9Simulator9run_untilEl(self, deadline);
}

extern "C" void __real__ZN5jenga4core11JengaSystem6submitESt10shared_ptrIKNS_6ledger11TransactionEE(
    core::JengaSystem*, core::TxPtr);
extern "C" void __wrap__ZN5jenga4core11JengaSystem6submitESt10shared_ptrIKNS_6ledger11TransactionEE(
    core::JengaSystem* self, core::TxPtr tx) {
  note_submit(tx);
  Span span_(kCore, kSubmit);
  __real__ZN5jenga4core11JengaSystem6submitESt10shared_ptrIKNS_6ledger11TransactionEE(
      self, std::move(tx));
}

extern "C" void
__real__ZN5jenga9baselines14BaselineSystem6submitESt10shared_ptrIKNS_6ledger11TransactionEE(
    baselines::BaselineSystem*, core::TxPtr);
extern "C" void
__wrap__ZN5jenga9baselines14BaselineSystem6submitESt10shared_ptrIKNS_6ledger11TransactionEE(
    baselines::BaselineSystem* self, core::TxPtr tx) {
  note_submit(tx);
  Span span_(kBaselines, kSubmit);
  __real__ZN5jenga9baselines14BaselineSystem6submitESt10shared_ptrIKNS_6ledger11TransactionEE(
      self, std::move(tx));
}

extern "C" SimTime __real__ZN5jenga8workload14ArrivalProcess10next_delayEld(
    workload::ArrivalProcess*, SimTime, double);
extern "C" SimTime __wrap__ZN5jenga8workload14ArrivalProcess10next_delayEld(
    workload::ArrivalProcess* self, SimTime now, double multiplier) {
  Span span_(kWorkload, kArrivalDraw);
  const SimTime gap =
      __real__ZN5jenga8workload14ArrivalProcess10next_delayEld(self, now, multiplier);
  RunLog& log = run_log();
  log.drawn_gaps_us += static_cast<double>(gap);
  log.nominal_gaps_us += static_cast<double>(gap) * multiplier;
  return gap;
}

#if JBENCH_TRACED
// ============================ trace set ====================================

// --- simnet ----------------------------------------------------------------
// Deliveries are scheduled inside these calls, so their events run as simnet
// spans; the node handler they invoke is wrapped at registration below.
PB_WRAP(kSimnet, kLayerCall, void,
        _ZN5jenga3sim7Network4sendENS_8StrongIdINS_7NodeTagEjEES4_NS0_7MessageENS0_12TrafficClassE,
        (sim::Network * self, NodeId from, NodeId to, sim::Message msg, sim::TrafficClass cls),
        (self, from, to, std::move(msg), cls))
PB_WRAP(
    kSimnet, kLayerCall, void,
    _ZN5jenga3sim7Network14send_via_relayENS_8StrongIdINS_7NodeTagEjEES4_NS0_7MessageENS0_12TrafficClassE,
    (sim::Network * self, NodeId from, NodeId to, sim::Message msg, sim::TrafficClass cls),
    (self, from, to, std::move(msg), cls))
PB_WRAP(kSimnet, kLayerCall, void,
        _ZN5jenga3sim7Network11client_sendENS_8StrongIdINS_7NodeTagEjEENS0_7MessageE,
        (sim::Network * self, NodeId to, sim::Message msg), (self, to, std::move(msg)))
PB_WRAP(
    kSimnet, kLayerCall, void,
    _ZN5jenga3sim7Network6gossipENS_8StrongIdINS_7NodeTagEjEESt4spanIKS4_Lm18446744073709551615EERKNS0_7MessageENS0_12TrafficClassE,
    (sim::Network * self, NodeId from, std::span<const NodeId> group, const sim::Message& msg,
     sim::TrafficClass cls),
    (self, from, group, msg, cls))
PB_WRAP(
    kSimnet, kLayerCall, void,
    _ZN5jenga3sim7Network9broadcastENS0_13BroadcastKindENS_8StrongIdINS_7NodeTagEjEESt4spanIKS5_Lm18446744073709551615EEmRKNS0_7MessageENS0_12TrafficClassE,
    (sim::Network * self, sim::BroadcastKind kind, NodeId from, std::span<const NodeId> group,
     std::uint64_t rumor_id, const sim::Message& msg, sim::TrafficClass cls),
    (self, kind, from, group, rumor_id, msg, cls))
PB_WRAP(kSimnet, kLayerCall, void,
        _ZN5jenga3sim7Network13deliver_localENS_8StrongIdINS_7NodeTagEjEERKNS0_7MessageE,
        (sim::Network * self, NodeId to, const sim::Message& msg), (self, to, msg))

// Every event runs inside a span of the layer that scheduled it.
extern "C" void __real__ZN5jenga3sim9Simulator11schedule_atElSt8functionIFvvEE(
    sim::Simulator*, SimTime, sim::Simulator::Task);
extern "C" void __wrap__ZN5jenga3sim9Simulator11schedule_atElSt8functionIFvvEE(
    sim::Simulator* self, SimTime when, sim::Simulator::Task task) {
  const Layer layer = current_layer();
  __real__ZN5jenga3sim9Simulator11schedule_atElSt8functionIFvvEE(
      self, when, [layer, task = std::move(task)] {
        Span span_(layer, kTask);
        task();
      });
}

// Node handlers belong to the system under test (core or baselines).
extern "C" void
__real__ZN5jenga3sim7Network13register_nodeENS_8StrongIdINS_7NodeTagEjEESt8functionIFvRKNS0_7MessageEEE(
    sim::Network*, NodeId, sim::Network::Handler);
extern "C" void
__wrap__ZN5jenga3sim7Network13register_nodeENS_8StrongIdINS_7NodeTagEjEESt8functionIFvRKNS0_7MessageEEE(
    sim::Network* self, NodeId id, sim::Network::Handler handler) {
  g.net = self;
  const Layer layer = g.system_layer;
  __real__ZN5jenga3sim7Network13register_nodeENS_8StrongIdINS_7NodeTagEjEESt8functionIFvRKNS0_7MessageEEE(
      self, id, [layer, handler = std::move(handler)](const sim::Message& m) {
        Span span_(layer, kLayerCall);
        handler(m);
      });
}

// --- consensus -------------------------------------------------------------
// The replica reaches its application (the system under test) through a
// virtual interface; hand it a forwarding proxy that times those callbacks.
extern "C" void
__real__ZN5jenga9consensus7ReplicaC1ERNS_3sim7NetworkENS_8StrongIdINS_7NodeTagEjEESt10shared_ptrIKNS0_9BftConfigEERNS0_6BftAppE(
    consensus::Replica*, sim::Network&, NodeId, std::shared_ptr<const consensus::BftConfig>,
    consensus::BftApp&);
extern "C" void
__wrap__ZN5jenga9consensus7ReplicaC1ERNS_3sim7NetworkENS_8StrongIdINS_7NodeTagEjEESt10shared_ptrIKNS0_9BftConfigEERNS0_6BftAppE(
    consensus::Replica* self, sim::Network& net, NodeId id,
    std::shared_ptr<const consensus::BftConfig> config, consensus::BftApp& app) {
  Span span_(kConsensus, kLayerCall);
  g_apps.push_back(std::make_unique<AppProxy>(app, g.system_layer));
  __real__ZN5jenga9consensus7ReplicaC1ERNS_3sim7NetworkENS_8StrongIdINS_7NodeTagEjEESt10shared_ptrIKNS0_9BftConfigEERNS0_6BftAppE(
      self, net, id, std::move(config), *g_apps.back());
}
PB_WRAP(kConsensus, kLayerCall, void,
        _ZN5jenga9consensus7Replica10on_messageERKNS_3sim7MessageE,
        (consensus::Replica * self, const sim::Message& m), (self, m))
PB_WRAP(kConsensus, kLayerCall, void, _ZN5jenga9consensus7Replica12request_syncEv,
        (consensus::Replica * self), (self))
PB_WRAP(kConsensus, kLayerCall, void, _ZN5jenga9consensus7Replica5startEv,
        (consensus::Replica * self), (self))
PB_WRAP(kConsensus, kLayerCall, void, _ZN5jenga9consensus7Replica4stopEv,
        (consensus::Replica * self), (self))

// --- core / baselines ------------------------------------------------------
PB_WRAP(
    kCore, kSystemBuild, void,
    _ZN5jenga4core11JengaSystemC1ERNS_3sim9SimulatorERNS2_7NetworkENS0_11JengaConfigENS0_7GenesisE,
    (core::JengaSystem * self, sim::Simulator& sim, sim::Network& net, core::JengaConfig config,
     core::Genesis genesis),
    (self, sim, net, std::move(config), std::move(genesis)))
PB_WRAP(kCore, kLayerCall, void, _ZN5jenga4core11JengaSystemD1Ev, (core::JengaSystem * self),
        (self))
PB_WRAP(kCore, kLayerCall, void, _ZN5jenga4core11JengaSystem5startEv,
        (core::JengaSystem * self), (self))
PB_WRAP(
    kBaselines, kSystemBuild, void,
    _ZN5jenga9baselines14BaselineSystemC2ERNS_3sim9SimulatorERNS2_7NetworkENS0_14BaselineConfigENS_4core7GenesisE,
    (baselines::BaselineSystem * self, sim::Simulator& sim, sim::Network& net,
     baselines::BaselineConfig config, core::Genesis genesis),
    (self, sim, net, std::move(config), std::move(genesis)))
PB_WRAP(kBaselines, kSystemBuild, void, _ZN5jenga9baselines14BaselineSystem15place_contractsEv,
        (baselines::BaselineSystem * self), (self))
PB_WRAP(kBaselines, kLayerCall, void, _ZN5jenga9baselines14BaselineSystemD2Ev,
        (baselines::BaselineSystem * self), (self))
PB_WRAP(kBaselines, kLayerCall, void, _ZN5jenga9baselines14BaselineSystem5startEv,
        (baselines::BaselineSystem * self), (self))

// --- gossip (the rumor mesh itself is proxied, see install_proxies) ---------
PB_WRAP(
    kGossip, kLayerCall, void,
    _ZN5jenga6gossip7Batcher7enqueueENS_8StrongIdINS_7NodeTagEjEESt4spanIKS4_Lm18446744073709551615EEmNS_3sim7MessageENS8_12TrafficClassE,
    (gossip::Batcher * self, NodeId from, std::span<const NodeId> group, std::uint64_t rumor_id,
     sim::Message msg, sim::TrafficClass cls),
    (self, from, group, rumor_id, std::move(msg), cls))

// --- crypto ----------------------------------------------------------------
PB_WRAP(kSha256, kLayerCall, void,
        _ZN5jenga6crypto6Sha2566updateESt4spanIKhLm18446744073709551615EE,
        (crypto::Sha256 * self, std::span<const std::uint8_t> data), (self, data))
PB_WRAP(kSha256, kLayerCall, void, _ZN5jenga6crypto6Sha25610update_u64Em,
        (crypto::Sha256 * self, std::uint64_t v), (self, v))
PB_WRAP(kSha256, kLayerCall, Hash256, _ZN5jenga6crypto6Sha2566finishEv,
        (crypto::Sha256 * self), (self))
PB_WRAP(kSha256, kLayerCall, void, _ZN5jenga6crypto6Sha2565resetEv, (crypto::Sha256 * self),
        (self))
PB_WRAP(kSha256, kLayerCall, Hash256,
        _ZN5jenga6crypto6sha256ESt4spanIKhLm18446744073709551615EE,
        (std::span<const std::uint8_t> data), (data))
PB_WRAP(kSha256, kLayerCall, Hash256,
        _ZN5jenga6crypto6sha256ESt17basic_string_viewIcSt11char_traitsIcEE,
        (std::string_view s), (s))
PB_WRAP(
    kSha256, kLayerCall, Hash256,
    _ZN5jenga6crypto13sha256_taggedESt17basic_string_viewIcSt11char_traitsIcEESt4spanIKhLm18446744073709551615EE,
    (std::string_view tag, std::span<const std::uint8_t> data), (tag, data))
PB_WRAP(kMultisig, kLayerCall, bool, _ZN5jenga6crypto11fast_verifyEmRKNS_7Hash256Em,
        (std::uint64_t pub, const Hash256& msg, std::uint64_t sig), (pub, msg, sig))
PB_WRAP(
    kMultisig, kLayerCall, bool,
    _ZN5jenga6crypto20fast_verify_multisigESt4spanIKmLm18446744073709551615EERKNS_7Hash256ERKNS0_12FastMultiSigE,
    (std::span<const std::uint64_t> ids, const Hash256& msg, const crypto::FastMultiSig& sig),
    (ids, msg, sig))
PB_WRAP(
    kMultisig, kLayerCall, bool,
    _ZN5jenga6crypto26fast_verify_multisig_batchESt4spanIKNS0_14FastBatchEntryELm18446744073709551615EEm,
    (std::span<const crypto::FastBatchEntry> entries, std::uint64_t seed), (entries, seed))

// --- ledger ----------------------------------------------------------------
PB_WRAP(kTrie, kTriePut, void, _ZN5jenga6ledger10MerkleTrie3putERKNS_7Hash256ES4_,
        (ledger::MerkleTrie * self, const Hash256& path, const Hash256& value),
        (self, path, value))
PB_WRAP(kCommit, kLayerCall, void, _ZN5jenga6ledger10StateStore6commitEv,
        (ledger::StateStore * self), (self))
PB_WRAP(kCommit, kLayerCall, void, _ZN5jenga6ledger9WalWriter6appendERKNS0_9WalRecordE,
        (ledger::WalWriter * self, const ledger::WalRecord& record), (self, record))
PB_WRAP(kLocks, kLayerCall, bool,
        _ZN5jenga6ledger11LockManager12lock_accountENS_8StrongIdINS_10AccountTagEmEERKNS_7Hash256E,
        (ledger::LockManager * self, AccountId id, const Hash256& owner), (self, id, owner))
PB_WRAP(kLocks, kLayerCall, bool,
        _ZN5jenga6ledger11LockManager13lock_contractENS_8StrongIdINS_11ContractTagEmEERKNS_7Hash256E,
        (ledger::LockManager * self, ContractId id, const Hash256& owner), (self, id, owner))
PB_WRAP(kLocks, kLayerCall, bool,
        _ZN5jenga6ledger11LockManager14unlock_accountENS_8StrongIdINS_10AccountTagEmEERKNS_7Hash256E,
        (ledger::LockManager * self, AccountId id, const Hash256& owner), (self, id, owner))
PB_WRAP(
    kLocks, kLayerCall, bool,
    _ZN5jenga6ledger11LockManager15unlock_contractENS_8StrongIdINS_11ContractTagEmEERKNS_7Hash256E,
    (ledger::LockManager * self, ContractId id, const Hash256& owner), (self, id, owner))
PB_WRAP(kLocks, kLayerCall, std::size_t, _ZN5jenga6ledger11LockManager11release_allERKNS_7Hash256E,
        (ledger::LockManager * self, const Hash256& owner), (self, owner))

// --- vm / exec -------------------------------------------------------------
PB_WRAP(
    kVm, kVmRun, vm::ExecResult,
    _ZN5jenga2vm11Interpreter3runENS_8StrongIdINS_10AccountTagEmEESt4spanIKNS0_8CallStepELm18446744073709551615EE,
    (vm::Interpreter * self, AccountId sender, std::span<const vm::CallStep> steps),
    (self, sender, steps))
// Empty batches return before the engine counts them (exec.batches), so
// only non-empty ones use the counted probe.
extern "C" std::vector<exec::TaskResult>
__real__ZN5jenga4exec6Engine9run_batchESt6vectorINS0_4TaskESaIS3_EE(exec::Engine*,
                                                                     std::vector<exec::Task>);
extern "C" std::vector<exec::TaskResult>
__wrap__ZN5jenga4exec6Engine9run_batchESt6vectorINS0_4TaskESaIS3_EE(
    exec::Engine* self, std::vector<exec::Task> tasks) {
  Span span_(kExec, tasks.empty() ? kLayerCall : kExecBatch);
  return __real__ZN5jenga4exec6Engine9run_batchESt6vectorINS0_4TaskESaIS3_EE(self,
                                                                              std::move(tasks));
}
PB_WRAP(kExec, kLayerCall, exec::Schedule,
        _ZN5jenga4exec14build_scheduleESt4spanIKNS0_9AccessSetELm18446744073709551615EE,
        (std::span<const exec::AccessSet> tasks), (tasks))

// --- mempool / workload ----------------------------------------------------
PB_WRAP(
    kMempool, kOffer, mempool::OfferOutcome,
    _ZN5jenga7mempool10IngressSet5offerESt10shared_ptrIKNS_6ledger11TransactionEElhSt8optionalIlE,
    (mempool::IngressSet * self, core::TxPtr tx, SimTime now, std::uint8_t tier,
     std::optional<SimTime> ttl),
    (self, std::move(tx), now, tier, ttl))
PB_WRAP(
    kMempool, kLayerCall, std::size_t,
    _ZN5jenga7mempool10IngressSet8dispatchElmRKSt8functionIFvSt10shared_ptrIKNS_6ledger11TransactionEEEE,
    (mempool::IngressSet * self, SimTime now, std::size_t credits,
     const std::function<void(core::TxPtr)>& submit),
    (self, now, credits, submit))
PB_WRAP(kMempool, kLayerCall, std::size_t, _ZN5jenga7mempool10IngressSet6expireEl,
        (mempool::IngressSet * self, SimTime now), (self, now))
PB_WRAP(kWorkload, kTraceGen, void,
        _ZN5jenga8workload14TraceGeneratorC1ENS0_11TraceConfigENS_3RngE,
        (workload::TraceGenerator * self, workload::TraceConfig config, Rng rng),
        (self, std::move(config), std::move(rng)))
PB_WRAP(kWorkload, kTraceGen, ledger::Transaction,
        _ZN5jenga8workload14TraceGenerator11contract_txEml,
        (workload::TraceGenerator * self, std::uint64_t height, SimTime now),
        (self, height, now))
PB_WRAP(kWorkload, kTraceGen, ledger::Transaction,
        _ZN5jenga8workload14TraceGenerator11transfer_txEl,
        (workload::TraceGenerator * self, SimTime now), (self, now))
PB_WRAP(kWorkload, kTraceGen, ledger::ContractState,
        _ZNK5jenga8workload14TraceGenerator13initial_stateEm,
        (const workload::TraceGenerator* self, std::size_t index), (self, index))
PB_WRAP(kWorkload, kLayerCall, void, _ZN5jenga8workload14OpenLoopClient5startEv,
        (workload::OpenLoopClient * self), (self))

// --- security (sampling is proxied, see install_proxies) --------------------
extern "C" bool __real__ZN5jenga8security15FailureDetector7suspectENS_8StrongIdINS_7NodeTagEjEES4_(
    security::FailureDetector*, NodeId, NodeId);
extern "C" bool __wrap__ZN5jenga8security15FailureDetector7suspectENS_8StrongIdINS_7NodeTagEjEES4_(
    security::FailureDetector* self, NodeId observer, NodeId peer) {
  bool suspected = false;
  {
    Span span_(kDetector, kLayerCall);
    suspected = __real__ZN5jenga8security15FailureDetector7suspectENS_8StrongIdINS_7NodeTagEjEES4_(
        self, observer, peer);
  }
  RunLog& log = run_log();
  if (suspected && log.detected_at < 0 && log.fault_at >= 0 && peer == log.fault_node &&
      log.sim != nullptr && log.sim->now() >= log.fault_at) {
    log.detected_at = log.sim->now();
  }
  return suspected;
}
PB_WRAP(kDetector, kLayerCall, SimTime,
        _ZN5jenga8security15FailureDetector12view_timeoutENS_8StrongIdINS_7NodeTagEjEES4_l,
        (security::FailureDetector * self, NodeId observer, NodeId leader, SimTime base),
        (self, observer, leader, base))

// --- telemetry -------------------------------------------------------------
PB_WRAP(kTelemetry, kLayerCall, void, _ZN5jenga9telemetry11PhaseTracer9on_submitERKNS_7Hash256El,
        (telemetry::PhaseTracer * self, const Hash256& tx, SimTime now), (self, tx, now))
PB_WRAP(kTelemetry, kLayerCall, void,
        _ZN5jenga9telemetry11PhaseTracer11phase_eventERKNS_7Hash256ENS0_5PhaseEjl,
        (telemetry::PhaseTracer * self, const Hash256& tx, telemetry::Phase phase,
         std::uint32_t key, SimTime now),
        (self, tx, phase, key, now))
PB_WRAP(kTelemetry, kLayerCall, void, _ZN5jenga9telemetry11PhaseTracer9on_finishERKNS_7Hash256Ebl,
        (telemetry::PhaseTracer * self, const Hash256& tx, bool committed, SimTime now),
        (self, tx, committed, now))
PB_WRAP(kTelemetry, kLayerCall, void, _ZN5jenga9telemetry11PhaseTracer4spanEPKcmmll,
        (telemetry::PhaseTracer * self, const char* name, std::uint64_t group,
         std::uint64_t seq, SimTime begin, SimTime end),
        (self, name, group, seq, begin, end))
PB_WRAP(kTelemetry, kLayerCall, void, _ZN5jenga9telemetry9Histogram6recordEl,
        (telemetry::Histogram * self, std::int64_t v), (self, v))
PB_WRAP(kTelemetry, kLayerCall, telemetry::Counter&,
        _ZN5jenga9telemetry15MetricsRegistry7counterESt17basic_string_viewIcSt11char_traitsIcEE,
        (telemetry::MetricsRegistry * self, std::string_view name), (self, name))
PB_WRAP(kTelemetry, kLayerCall, telemetry::Gauge&,
        _ZN5jenga9telemetry15MetricsRegistry5gaugeESt17basic_string_viewIcSt11char_traitsIcEE,
        (telemetry::MetricsRegistry * self, std::string_view name), (self, name))
PB_WRAP(kTelemetry, kLayerCall, telemetry::Histogram&,
        _ZN5jenga9telemetry15MetricsRegistry9histogramESt17basic_string_viewIcSt11char_traitsIcEE,
        (telemetry::MetricsRegistry * self, std::string_view name), (self, name))

#endif  // JBENCH_TRACED
