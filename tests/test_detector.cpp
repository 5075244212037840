// Phi-accrual failure detector unit tests (src/security/detector.hpp,
// DESIGN.md §14): suspicion grows with silence, arrivals clear it, and the
// adaptive view timeout shrinks only toward a suspected leader, never below
// its floor.
#include <gtest/gtest.h>

#include "security/detector.hpp"
#include "simnet/simulator.hpp"

namespace jenga::security {
namespace {

constexpr NodeId kObserver{0};
constexpr NodeId kPeer{1};

/// Feeds `n` arrivals from kPeer to kObserver spaced `gap` apart, advancing
/// the simulated clock alongside.
void feed(sim::Simulator& sim, FailureDetector& d, int n, SimTime gap,
          NodeId from = kPeer, NodeId to = kObserver) {
  for (int i = 0; i < n; ++i) {
    sim.run_until(sim.now() + gap);
    d.on_arrival(from, to, sim.now());
  }
}

TEST(FailureDetector, PhiGrowsWithSilence) {
  sim::Simulator sim;
  FailureDetector d(sim);
  feed(sim, d, 20, 100 * kMillisecond);

  // Right after an arrival there is nothing to suspect.
  EXPECT_EQ(d.phi(kObserver, kPeer), 0.0);

  // One missed heartbeat is barely suspicious; ten are damning.
  sim.run_until(sim.now() + 200 * kMillisecond);
  const double phi_2x = d.phi(kObserver, kPeer);
  sim.run_until(sim.now() + 800 * kMillisecond);
  const double phi_10x = d.phi(kObserver, kPeer);
  EXPECT_GT(phi_2x, 0.0);
  EXPECT_GT(phi_10x, phi_2x);
  EXPECT_GE(phi_10x, 8.0);

  // Direction matters: the reverse pair never heard anything.
  EXPECT_EQ(d.phi(kPeer, kObserver), 0.0);
}

TEST(FailureDetector, NoSuspicionBelowMinSamples) {
  sim::Simulator sim;
  DetectorConfig cfg;
  cfg.min_samples = 8;
  FailureDetector d(sim, cfg);
  feed(sim, d, 4, 100 * kMillisecond);  // 3 intervals < min_samples
  sim.run_until(sim.now() + 60 * kSecond);
  EXPECT_EQ(d.phi(kObserver, kPeer), 0.0);
  EXPECT_FALSE(d.suspect(kObserver, kPeer));
}

TEST(FailureDetector, SuspicionTransitionsAndArrivalClears) {
  sim::Simulator sim;
  FailureDetector d(sim);
  feed(sim, d, 20, 100 * kMillisecond);
  EXPECT_FALSE(d.suspect(kObserver, kPeer));

  sim.run_until(sim.now() + 10 * kSecond);
  EXPECT_TRUE(d.suspect(kObserver, kPeer));
  EXPECT_TRUE(d.any_suspected());
  EXPECT_EQ(d.stats().suspicions, 1u);
  EXPECT_EQ(d.stats().first_suspicion_at, sim.now());
  // Re-querying does not double count the transition.
  EXPECT_TRUE(d.suspect(kObserver, kPeer));
  EXPECT_EQ(d.stats().suspicions, 1u);

  // The peer speaks again: suspicion clears immediately.
  d.on_arrival(kPeer, kObserver, sim.now());
  EXPECT_FALSE(d.any_suspected());
  EXPECT_FALSE(d.suspect(kObserver, kPeer));
  EXPECT_EQ(d.stats().recoveries, 1u);
}

TEST(FailureDetector, AdaptiveViewTimeoutShrinksForSuspectAndRespectsFloor) {
  sim::Simulator sim;
  FailureDetector d(sim);
  feed(sim, d, 20, 100 * kMillisecond);
  sim.run_until(sim.now() + 10 * kSecond);
  ASSERT_TRUE(d.suspect(kObserver, kPeer));

  // Suspected leader: 120s * 0.4 = 48s.
  EXPECT_EQ(d.view_timeout(kObserver, kPeer, 120 * kSecond), 48 * kSecond);
  // Floor: 3s * 0.4 would be 1.2s, clamped to the 2s floor.
  EXPECT_EQ(d.view_timeout(kObserver, kPeer, 3 * kSecond), 2 * kSecond);
  // A different (unsuspected) leader keeps the base timeout.
  EXPECT_EQ(d.view_timeout(kObserver, NodeId{9}, 120 * kSecond), 120 * kSecond);

  // A network-wide slowdown with no suspect never lengthens it either.
  feed(sim, d, 60, 2 * kSecond, NodeId{9}, kObserver);
  EXPECT_EQ(d.view_timeout(kObserver, NodeId{9}, 120 * kSecond), 120 * kSecond);
}

}  // namespace
}  // namespace jenga::security
