// Probes the benchmark binaries attach to the simulator from outside it.
//
// Every probe is a link-time wrapper (`-Wl,--wrap=<symbol>`, symbol list in
// probes.txt) around a public function of the libraries under src/, so the
// program itself is unchanged.  Two sets exist:
//
//   base  — linked into both binaries.  Records when each transaction arrived
//           (its Transaction::created_at, keyed by hash at first submission),
//           the instant setup ends (the first Simulator::run_until), and the
//           open-loop generator's drawn vs unthrottled inter-arrival gaps.
//   trace — jbench_traced only.  Times calls into each layer and keeps, per
//           layer, the self time (span duration minus child spans) and, per
//           probe, the call count and inclusive time.  Aggregates stay in
//           memory and are written out once the run ends.
//
// Limits of the mechanism: only calls that cross an object file are caught,
// so work reached through virtual dispatch is re-routed through forwarding
// proxies (the BFT application, the arrival observer, the rumor transport)
// and each scheduled event is wrapped at Simulator::schedule_at so it runs
// inside a span of the layer that scheduled it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.hpp"

namespace jenga::sim {
class Simulator;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Observations made by the base probes during one run_experiment call.
struct RunLog {
  Clock::time_point start;
  double setup_s = -1;  // < 0 until the first Simulator::run_until
  /// Called once when setup ends (the setup-only mode reports and exits).
  std::function<void()> at_setup;

  /// Every submitted tx by hash, at its first submission (retries and epoch
  /// requeues keep the original arrival).
  struct Arrival {
    jenga::SimTime created_at = 0;  // Transaction::created_at
    bool contract = false;
  };
  std::unordered_map<jenga::Hash256, Arrival> txs;

  /// Open-loop generator: each inter-arrival gap as drawn (after the
  /// backpressure throttle) and as it would have been at the unthrottled
  /// rate.  A Poisson gap scales exactly with 1/rate, so gap × multiplier
  /// is the unthrottled gap.
  double drawn_gaps_us = 0;
  double nominal_gaps_us = 0;

  /// Time to detect (jbench_traced): the first sim instant at or after
  /// `fault_at` when a FailureDetector::suspect query about `fault_node`
  /// answered true.  -1 = never.
  const jenga::sim::Simulator* sim = nullptr;  // captured at run_until
  jenga::NodeId fault_node{};
  jenga::SimTime fault_at = -1;
  jenga::SimTime detected_at = -1;
};

[[nodiscard]] RunLog& run_log();

// --- Layer tracing (jbench_traced only) ---------------------------------

// Layers whose self time is reported.  kUnattributed is the root span: time
// inside run_experiment that no probe covers (the runner's own glue).
#define PERFBENCH_LAYERS(X)               \
  X(kUnattributed, "trace.unattributed") \
  X(kSimnet, "simnet")                   \
  X(kConsensus, "consensus")             \
  X(kCore, "core")                       \
  X(kBaselines, "baselines")             \
  X(kGossip, "gossip")                   \
  X(kSha256, "crypto.sha256")            \
  X(kMultisig, "crypto.multisig")        \
  X(kTrie, "ledger.trie")                \
  X(kCommit, "ledger.commit")            \
  X(kLocks, "ledger.locks")              \
  X(kVm, "vm")                           \
  X(kExec, "exec")                       \
  X(kMempool, "mempool")                 \
  X(kWorkload, "workload")               \
  X(kDetector, "security.detector")      \
  X(kTelemetry, "telemetry")

enum Layer : std::uint8_t {
#define PERFBENCH_ENUM(id, name) id,
  PERFBENCH_LAYERS(PERFBENCH_ENUM)
#undef PERFBENCH_ENUM
  kLayerCount
};

// Probes whose call count or inclusive time a metric or check needs; every
// other wrapper counts as kLayerCall.
enum Probe : std::uint8_t {
  kRoot,            // run_experiment
  kTask,            // one simulator event
  kLayerCall,
  kSystemBuild,     // system constructors
  kTraceGen,        // TraceGenerator calls
  kArrivalDraw,     // ArrivalProcess::next_delay
  kSubmit,          // system submit
  kOffer,           // IngressSet::offer
  kDetectorSample,  // the arrival observer
  kVmRun,           // Interpreter::run
  kExecBatch,       // non-empty Engine::run_batch
  kTriePut,         // MerkleTrie::put
  kProbeCount
};

struct TraceReport {
  double wall_s = 0;  // the root span: run_experiment in the traced process
  double layer_self_s[kLayerCount] = {};
  std::uint64_t layer_calls[kLayerCount] = {};
  double probe_total_s[kProbeCount] = {};
  std::uint64_t probe_calls[kProbeCount] = {};
  /// Σ layer self time − root duration, in ns.  Zero when every span
  /// closed inside its parent.
  std::int64_t residual_ns = 0;
  std::uint64_t depth_overflows = 0;
};

[[nodiscard]] const char* layer_name(Layer l);

#if JBENCH_TRACED
/// Starts layer tracing; `system_layer` receives the node handlers and BFT
/// application callbacks (kCore for Jenga kinds, kBaselines otherwise).
void trace_begin(Layer system_layer);
/// Stops tracing and returns the aggregates.
[[nodiscard]] TraceReport trace_end();

/// RAII root span around run_experiment.
class RootSpan {
 public:
  RootSpan();
  ~RootSpan();
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;
};
#endif

}  // namespace perfbench
