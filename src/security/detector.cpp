#include "security/detector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace jenga::security {

void FailureDetector::on_arrival(NodeId from, NodeId to, SimTime now) {
  PairState& p = pairs_[pair_key(to, from)];
  if (p.intervals.empty()) p.intervals.resize(std::max<std::size_t>(1, config_.window), 0);
  if (p.last_arrival >= 0) {
    const SimTime raw = now - p.last_arrival;
    const double interval =
        static_cast<double>(std::max(raw, config_.min_interval));
    if (p.count == p.intervals.size()) {
      const double old = static_cast<double>(p.intervals[p.next]);
      p.sum -= old;
      p.sum_sq -= old * old;
    } else {
      ++p.count;
    }
    p.intervals[p.next] = static_cast<SimTime>(interval);
    p.next = (p.next + 1) % p.intervals.size();
    p.sum += interval;
    p.sum_sq += interval * interval;
    ++stats_.samples;
  }
  p.last_arrival = now;
  if (p.suspected) {
    // An arrival from a suspected peer clears the suspicion immediately.
    p.suspected = false;
    --suspect_count_;
    ++stats_.recoveries;
  }
}

double FailureDetector::phi_of(const PairState& p, SimTime now) const {
  if (p.count < config_.min_samples || p.last_arrival < 0) return 0;
  const double n = static_cast<double>(p.count);
  const double mean = p.sum / n;
  const double var = std::max(0.0, p.sum_sq / n - mean * mean);
  // Sigma floor keeps phi finite for pathologically regular streams.
  const double sigma =
      std::max({std::sqrt(var), mean / 8.0, static_cast<double>(config_.min_interval)});
  const double elapsed = static_cast<double>(now - p.last_arrival);
  if (elapsed <= mean) return 0;
  // P(interval >= elapsed) under N(mean, sigma^2); phi = -log10 of it.
  const double z = (elapsed - mean) / (sigma * std::numbers::sqrt2);
  const double tail = 0.5 * std::erfc(z);
  if (tail <= 0) return 40.0;  // erfc underflow: effectively certain death
  return -std::log10(tail);
}

double FailureDetector::phi(NodeId observer, NodeId peer) const {
  const auto it = pairs_.find(pair_key(observer, peer));
  if (it == pairs_.end()) return 0;
  return phi_of(it->second, sim_.now());
}

bool FailureDetector::suspect(NodeId observer, NodeId peer) {
  const auto it = pairs_.find(pair_key(observer, peer));
  if (it == pairs_.end()) return false;
  PairState& p = it->second;
  const bool over = phi_of(p, sim_.now()) >= config_.phi_suspect;
  if (over && !p.suspected) {
    p.suspected = true;
    ++suspect_count_;
    ++stats_.suspicions;
    if (stats_.first_suspicion_at == 0) stats_.first_suspicion_at = sim_.now();
  }
  // Clearing happens on the next arrival (phi is monotone between arrivals).
  return p.suspected;
}

SimTime FailureDetector::view_timeout(NodeId observer, NodeId leader, SimTime base) {
  if (!suspect(observer, leader)) return base;
  const auto shrunk = static_cast<SimTime>(static_cast<double>(base) * config_.timeout_shrink);
  return std::max(config_.view_floor, shrunk);
}

}  // namespace jenga::security
