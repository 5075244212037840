// Phi-accrual failure detection over simulated message inter-arrival times
// (DESIGN.md §14).
//
// The detector is a passive sim::ArrivalObserver: every node-to-node delivery
// feeds one inter-arrival sample for the directed (peer -> observer) pair, and
// suspicion is computed lazily at query time — no timers, no rng, no scheduled
// events, so attaching the detector leaves a run's event stream bit-identical.
//
// phi(pair) = -log10 P(interval >= elapsed) under a normal fit of the pair's
// recent inter-arrival window (Hayashibara et al., "The phi accrual failure
// detector").  phi grows continuously as silence stretches: small phi means
// "probably just late", large phi means "statistically dead".  Consumers pick
// their own thresholds/actions; the one actuator is consensus, which shortens
// the view timeout toward a suspected leader.
//
// An attached detector acts.  This is the simulation-determinism compromise:
// inter-arrival statistics over bursty protocol traffic inevitably cross any
// finite threshold during legitimate quiet periods, and a spurious deviation
// in a clean run would break the bit-identity contract every subsystem here is
// held to.  So the harness attaches a detector only to runs with a fault plan,
// and the detect -> react loop is live precisely when there is something to
// react to.  A clean run has no detector and pays nothing for it (sampling
// every delivery cost about a fifth of a clean fig5a S=12 run's host time).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"

namespace jenga::security {

struct DetectorConfig {
  /// Inter-arrival samples kept per directed pair (ring buffer).
  std::size_t window = 32;
  /// No suspicion below this many samples: a pair we have barely heard from
  /// has no statistics worth acting on.
  std::size_t min_samples = 8;
  /// Suspicion threshold: phi >= 8 is P(still alive) <= 1e-8 under the fit.
  double phi_suspect = 8.0;
  /// Floor on a recorded interval; sub-millisecond bursts would otherwise
  /// collapse the variance and make phi explode on the next normal gap.
  SimTime min_interval = kMillisecond;
  /// Adaptive view timeout: a suspected-dead leader shrinks the timeout by
  /// this factor, floored at `view_floor`.
  double timeout_shrink = 0.4;
  SimTime view_floor = 2 * kSecond;
};

struct DetectorStats {
  std::uint64_t samples = 0;
  std::uint64_t suspicions = 0;   // pair transitions into suspected
  std::uint64_t recoveries = 0;   // suspected pairs cleared by an arrival
  SimTime first_suspicion_at = 0; // time-to-detect anchor for the gray bench
};

class FailureDetector final : public sim::ArrivalObserver {
 public:
  FailureDetector(sim::Simulator& sim, DetectorConfig config = {})
      : sim_(sim), config_(config) {}

  // sim::ArrivalObserver
  void on_arrival(NodeId from, NodeId to, SimTime now) override;

  /// Suspicion level of `peer` as seen by `observer` at the current sim time.
  /// 0 while below min_samples.
  [[nodiscard]] double phi(NodeId observer, NodeId peer) const;

  /// True when phi crosses the suspicion threshold.  Records the
  /// suspected -> cleared transitions for any_suspected()/stats.
  bool suspect(NodeId observer, NodeId peer);

  [[nodiscard]] bool any_suspected() const { return suspect_count_ > 0; }

  /// Adaptive BFT view timeout: exactly `base` unless `observer` suspects
  /// `leader`, in which case it is shrunk (floored).
  SimTime view_timeout(NodeId observer, NodeId leader, SimTime base);

  [[nodiscard]] const DetectorStats& stats() const { return stats_; }
  [[nodiscard]] const DetectorConfig& config() const { return config_; }

 private:
  struct PairState {
    std::vector<SimTime> intervals;  // ring buffer of size config.window
    std::size_t next = 0;            // ring write cursor
    std::size_t count = 0;
    double sum = 0;
    double sum_sq = 0;
    SimTime last_arrival = -1;
    bool suspected = false;
  };

  [[nodiscard]] static std::uint64_t pair_key(NodeId observer, NodeId peer) {
    return (static_cast<std::uint64_t>(observer.value) << 32) | peer.value;
  }
  [[nodiscard]] double phi_of(const PairState& p, SimTime now) const;

  sim::Simulator& sim_;
  DetectorConfig config_;
  std::unordered_map<std::uint64_t, PairState> pairs_;
  std::size_t suspect_count_ = 0;
  DetectorStats stats_;
};

}  // namespace jenga::security
