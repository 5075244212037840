#include "security/fault_injector.hpp"

#include <sstream>

namespace jenga::security {

void FaultInjector::arm(FaultPlan plan) {
  plan_ = std::move(plan);

  for (const auto& assignment : plan_.byzantine) {
    sys_.set_node_byzantine(assignment.node, assignment.mode);
    ++events_armed_;
  }

  for (const auto& ramp : plan_.ramps) {
    sim_.schedule_at(ramp.at, [this, faults = ramp.faults] { net_.set_fault_profile(faults); });
    ++events_armed_;
  }

  for (const auto& window : plan_.partitions) {
    sim_.schedule_at(window.start, [this, nodes = window.isolated, group = window.group] {
      net_.partition(nodes, group);
    });
    sim_.schedule_at(window.end, [this, nodes = window.isolated] {
      // Restore only this window's nodes: heal_partitions() would tear down
      // any other window still open.
      for (NodeId n : nodes) net_.set_partition_group(n, 0);
    });
    ++events_armed_;
  }

  for (const auto& crash : plan_.crashes) {
    sim_.schedule_at(crash.crash_at,
                     [this, node = crash.node] { net_.set_node_down(node, true); });
    if (crash.recover_at > crash.crash_at) {
      sim_.schedule_at(crash.recover_at, [this, node = crash.node] {
        net_.set_node_down(node, false);
        sys_.on_node_recovered(node);
      });
    }
    ++events_armed_;
  }

  if (!plan_.epoch_churn.empty()) {
    // One hook dispatches every scheduled churn entry; it fires inside the
    // cutover, after the old lattice's replicas stopped and before the new
    // ones start, so departures/arrivals are atomic with the reshuffle.
    sys_.set_epoch_boundary_hook([this](std::uint64_t epoch) {
      for (const auto& churn : plan_.epoch_churn) {
        if (churn.epoch != epoch) continue;
        for (NodeId n : churn.crash) net_.set_node_down(n, true);
        // Revived nodes need no explicit catch-up here: the hook fires before
        // the new lattice's replicas are built, and every new replica starts
        // the epoch's consensus from height zero anyway.
        for (NodeId n : churn.revive) net_.set_node_down(n, false);
      }
    });
    events_armed_ += plan_.epoch_churn.size();
  }

  for (const auto& fault : plan_.storage) {
    sim_.schedule_at(fault.at, [this, fault] {
      switch (fault.kind) {
        case StorageFaultKind::kTornWrite:
          sys_.storage_torn_write(fault.shard, fault.param);
          break;
        case StorageFaultKind::kDroppedFsync:
          sys_.storage_drop_fsyncs(fault.shard, true);
          sim_.schedule_after(fault.window, [this, shard = fault.shard] {
            sys_.storage_drop_fsyncs(shard, false);
          });
          break;
        case StorageFaultKind::kBitFlip:
          sys_.storage_flip_bit(fault.shard, fault.param);
          break;
      }
    });
    ++events_armed_;
  }

  for (const auto& burst : plan_.overload) {
    sim_.schedule_at(burst.at, [this, mult = burst.rate_multiplier] {
      if (overload_hook_) overload_hook_(mult);
    });
    sim_.schedule_at(burst.at + burst.duration, [this] {
      if (overload_hook_) overload_hook_(1.0);
    });
    ++events_armed_;
  }

  for (const auto& g : plan_.gray) {
    switch (g.kind) {
      case GrayFaultKind::kLinkDegrade:
        sim_.schedule_at(g.at, [this, g] {
          net_.set_link_delay(g.node, g.peer, g.extra_delay);
          net_.set_link_delay(g.peer, g.node, g.extra_delay);
        });
        sim_.schedule_at(g.at + g.duration, [this, g] {
          net_.set_link_delay(g.node, g.peer, 0);
          net_.set_link_delay(g.peer, g.node, 0);
        });
        break;
      case GrayFaultKind::kLossyNic:
        sim_.schedule_at(g.at, [this, g] {
          sim::NodeGray prof = net_.node_gray(g.node);
          prof.ingress_drop_rate = g.drop_rate;
          net_.set_node_gray(g.node, prof);
        });
        sim_.schedule_at(g.at + g.duration, [this, node = g.node] {
          sim::NodeGray prof = net_.node_gray(node);
          prof.ingress_drop_rate = 0.0;
          net_.set_node_gray(node, prof);
        });
        break;
      case GrayFaultKind::kSlowNode:
        sim_.schedule_at(g.at, [this, g] {
          sim::NodeGray prof = net_.node_gray(g.node);
          prof.serialize_factor = g.serialize_factor;
          prof.proc_delay = g.proc_delay;
          net_.set_node_gray(g.node, prof);
        });
        sim_.schedule_at(g.at + g.duration, [this, node = g.node] {
          sim::NodeGray prof = net_.node_gray(node);
          prof.serialize_factor = 1.0;
          prof.proc_delay = 0;
          net_.set_node_gray(node, prof);
        });
        break;
    }
    ++events_armed_;
  }

  for (const auto& hit : plan_.assassinations) {
    sim_.schedule_at(hit.at, [this, shard = hit.shard, at = hit.at,
                              recover_at = hit.recover_at] {
      // Resolve the victim at fire time: view changes may have rotated the
      // leadership since the plan was written.
      const NodeId victim = sys_.shard_leader(shard);
      net_.set_node_down(victim, true);
      if (recover_at > at) {
        sim_.schedule_at(recover_at, [this, victim] {
          net_.set_node_down(victim, false);
          sys_.on_node_recovered(victim);
        });
      }
    });
    ++events_armed_;
  }
}

std::string InvariantReport::describe() const {
  std::ostringstream out;
  out << "leaked_locks=" << leaked_locks << (leaked_locks == 0 ? " (ok)" : " (VIOLATION)")
      << "\n";
  out << "balance expected=" << expected_balance << " actual=" << actual_balance
      << (balance_conserved() ? " (ok)" : " (VIOLATION)") << "\n";
  out << "divergent_decides=" << divergent_decides
      << (divergent_decides == 0 ? " (ok)" : " (VIOLATION)") << "\n";
  out << "limbo_txs=" << limbo_txs << (limbo_txs == 0 ? " (ok)" : " (VIOLATION)") << "\n";
  out << "boundary_lock_leaks=" << boundary_lock_leaks
      << (boundary_lock_leaks == 0 ? " (ok)" : " (VIOLATION)") << "\n";
  out << "boundary_balance_mismatches=" << boundary_balance_mismatches
      << (boundary_balance_mismatches == 0 ? " (ok)" : " (VIOLATION)") << "\n";
  out << "state_sync_root_mismatches=" << state_sync_root_mismatches
      << (state_sync_root_mismatches == 0 ? " (ok)" : " (VIOLATION)") << "\n";
  out << "epoch_transitions=" << epoch_transitions << " txs_requeued=" << txs_requeued
      << " (info)\n";
  out << "state_sync: proof_rejections=" << state_sync_proof_rejections
      << " full_syncs=" << state_sync_full_syncs
      << " recovery_refusals=" << storage_recovery_refusals << " (info)\n";
  out << "twopc_stuck=" << twopc_stuck << (twopc_stuck == 0 ? " (ok)" : " (VIOLATION)")
      << " total_flagged=" << twopc_stuck_total << " (info)\n";
  if (mempool_capacity == 0) {
    out << "mempool: not audited (info)";
  } else {
    out << "mempool: resident=" << mempool_resident << " peak=" << mempool_peak_resident
        << " capacity=" << mempool_capacity
        << (mempool_bounded() ? " (ok)" : " (VIOLATION)")
        << " unaccounted=" << mempool_unaccounted
        << (mempool_unaccounted == 0 ? " (ok)" : " (VIOLATION)");
  }
  return out.str();
}

InvariantReport check_invariants(const core::ShardedSystem& sys, std::uint64_t initial_balance,
                                 const mempool::IngressSet* ingress) {
  InvariantReport report;
  if (ingress != nullptr) {
    const mempool::IngressStats ms = ingress->stats();
    report.mempool_resident = ms.resident;
    report.mempool_peak_resident = ms.peak_resident;
    report.mempool_capacity =
        ingress->config().pool.capacity * ingress->config().num_shards;
    const std::uint64_t leavers =
        ms.totals.dispatched + ms.totals.evicted + ms.totals.expired + ms.resident;
    report.mempool_unaccounted = ms.totals.admitted >= leavers
                                     ? ms.totals.admitted - leavers
                                     : leavers - ms.totals.admitted;
  }
  report.leaked_locks = sys.held_locks();
  report.expected_balance = initial_balance - sys.stats().fees_charged;
  report.actual_balance = sys.total_account_balance();
  report.limbo_txs = sys.in_flight();
  return report;
}

InvariantReport check_invariants(const core::JengaSystem& sys, std::uint64_t initial_balance,
                                 const mempool::IngressSet* ingress) {
  InvariantReport report =
      check_invariants(static_cast<const core::ShardedSystem&>(sys), initial_balance, ingress);
  report.twopc_stuck = sys.twopc_stuck_now();
  report.twopc_stuck_total = sys.twopc_stuck_total();
  report.divergent_decides = sys.divergent_decides();
  const auto& epoch = sys.epoch_stats();
  report.boundary_lock_leaks = epoch.boundary_lock_leaks;
  report.boundary_balance_mismatches = epoch.boundary_balance_mismatches;
  report.epoch_transitions = epoch.transitions;
  report.txs_requeued = epoch.txs_requeued;
  const auto& sync = sys.state_sync_stats();
  report.state_sync_root_mismatches = sync.root_mismatches;
  report.state_sync_proof_rejections = sync.proof_rejections;
  report.state_sync_full_syncs = sync.full_syncs;
  report.storage_recovery_refusals = sync.recovery_refusals;
  return report;
}

}  // namespace jenga::security
