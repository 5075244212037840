// Resilience sweep: commit rate and latency of the full Jenga pipeline under
// a grid of message-drop rates x Byzantine nodes per shard, with the
// post-run invariant audit (no leaked locks, conserved balance, no divergent
// decides, no limbo transactions) as the safety verdict for every cell.
// Emits a machine-readable JSON report (stdout + bench_resilience.json) next
// to the usual table + shape checks.
//
// Every cell is traced: the phase tracer's breakdown shows *which* pipeline
// phase the faults inflate (checked against the clean cell below), and
// `--trace-out <file>.jsonl` exports the reference faulted cell's full
// telemetry (metrics, per-tx phase intervals, BFT spans, causal span DAG)
// for offline analysis / the CI trace linter.  A failed invariant audit
// additionally dumps the flight recorder's last-events window to
// flight_d<drop>_b<byz>-N.jsonl (DESIGN.md §11).  JENGA_RESILIENCE_QUICK=1
// shrinks the sweep to {clean, 10% drop} for smoke runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/jenga_system.hpp"
#include "harness/genesis.hpp"
#include "report.hpp"
#include "security/detector.hpp"
#include "security/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace {

using namespace jenga;

struct CellResult {
  double drop = 0.0;
  int byz_per_shard = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  double commit_rate = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double avg_s = 0.0;
  bool invariants_ok = false;
  telemetry::PhaseBreakdown breakdown;
  std::shared_ptr<telemetry::Telemetry> telemetry;
};

bool quick_mode() {
  const char* env = std::getenv("JENGA_RESILIENCE_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

bool gray_quick_mode() {
  const char* env = std::getenv("JENGA_GRAY_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

SimTime horizon() {
  // Drain horizon per cell.  The 20%-drop column is glacial (worst observed
  // commit lands around t=2800s) but not wedged; the horizon must cover it
  // or the "every transaction resolves" check reports false limbo.  Quick
  // mode only runs up to 10% drop, which settles far earlier.
  const char* env = std::getenv("JENGA_RESILIENCE_HORIZON_S");
  const long long secs = env != nullptr ? std::atoll(env) : 0;
  if (secs > 0) return secs * jenga::kSecond;  // garbage/unset -> default
  return (quick_mode() ? 1500 : 3000) * jenga::kSecond;
}

CellResult run_cell(double drop, int byz_per_shard) {
  constexpr std::uint32_t kShards = 2;
  const int kTxs = quick_mode() ? 24 : 40;

  core::JengaConfig cfg;
  cfg.num_shards = kShards;
  cfg.nodes_per_shard = 8;  // 16 nodes, quorum 5 of 8, f = 2 per group
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 300 * kSecond;

  workload::TraceConfig tc;
  tc.num_contracts = 150;
  tc.num_accounts = 200;
  tc.max_contracts_per_tx = 4;
  tc.max_steps = 8;
  workload::TraceGenerator gen(tc, Rng(7));

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(cfg.seed));
  core::JengaSystem system(sim, net, cfg, harness::make_genesis(gen));
  security::FaultInjector injector(sim, net, system);
  auto telemetry = std::make_shared<telemetry::Telemetry>();
  // Chaos cells run with the full observability layer on (it is passive):
  // the --trace-out export carries the causal span DAG, and any audit
  // failure dumps a flight-recorder window for post-mortem debugging.
  telemetry->causal.enable(true);
  telemetry->flight.configure(kShards * 8, 64);
  char dump_prefix[64];
  std::snprintf(dump_prefix, sizeof(dump_prefix), "flight_d%02d_b%d",
                static_cast<int>(drop * 100), byz_per_shard);
  telemetry->flight.set_dump_path(dump_prefix);
  net.set_telemetry(telemetry.get());
  system.set_telemetry(telemetry.get());
  const std::uint64_t initial_balance = system.total_account_balance();
  system.start();

  security::FaultPlan plan;
  if (drop > 0) {
    sim::LinkFaults faults;
    faults.drop_rate = drop;
    plan.ramps.push_back({0, faults});
  }
  // Spread the Byzantine nodes across channels via the lattice subgroups so
  // no group exceeds its f = floor((k-1)/3) tolerance: `byz_per_shard` nodes
  // per shard also means at most that many per channel.
  const auto& lat = system.lattice();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (int c = 0; c < byz_per_shard; ++c) {
      const NodeId node = lat.subgroup(ShardId{s}, ChannelId{(s + c) % kShards})[0];
      const auto mode = (s + c) % 2 == 0 ? consensus::ByzantineMode::kEquivocator
                                         : consensus::ByzantineMode::kSilent;
      plan.byzantine.push_back({node, mode});
    }
  }
  injector.arm(plan);

  for (int i = 0; i < kTxs; ++i) {
    sim.run_until(sim.now() + kSecond);
    auto tx = std::make_shared<ledger::Transaction>(gen.contract_tx(1'000'000, sim.now()));
    system.submit(tx);
  }
  sim.run_until(horizon());

  const TxStats& st = system.stats();
  const auto report = security::check_invariants(system, initial_balance);
  CellResult r;
  r.drop = drop;
  r.byz_per_shard = byz_per_shard;
  r.submitted = st.submitted;
  r.committed = st.committed;
  r.aborted = st.aborted;
  r.commit_rate = static_cast<double>(st.committed) / static_cast<double>(st.submitted);
  const auto q = st.latency_quantiles_seconds({0.5, 0.99});
  r.p50_s = q[0];
  r.p99_s = q[1];
  r.avg_s = st.avg_latency_seconds();
  r.invariants_ok = report.ok();
  r.breakdown = telemetry->tracer.breakdown();
  // Fold the network fault counters in so the exported trace is
  // self-describing about what the cell endured.
  auto& reg = telemetry->registry;
  reg.counter("net.faults.dropped").set(net.fault_stats().dropped);
  reg.counter("net.faults.duplicated").set(net.fault_stats().duplicated);
  reg.counter("tx.submitted").set(st.submitted);
  r.telemetry = telemetry;
  if (!report.ok()) {
    std::printf("%s\n", report.describe().c_str());
    // Capture the post-mortem window (also written to <dump_prefix>-N.jsonl).
    telemetry->flight.trigger("invariant.violation");
  }
  // Detach before net/system go out of scope (the telemetry outlives them
  // through the shared_ptr in the result).
  net.set_telemetry(nullptr);
  system.set_telemetry(nullptr);
  return r;
}

// ---------------------------------------------------------------------------
// Gray-failure sweep (DESIGN.md §14): degraded-but-alive victims under the
// self-healing stack — phi-accrual detection, the view timeout that shrinks
// toward a suspected leader, and the stuck-2PC recovery ladder.  Each cell
// runs a transfer burst THROUGH the fault window (feeding the watchdog wedged
// rounds to settle), then a measured batch after the window heals; the
// post-heal p99 against the clean cell's is the "did it actually recover"
// verdict.

struct GrayCellResult {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  bool invariants_ok = false;
  std::uint64_t stuck_flagged = 0;   // watchdog flags over the run
  std::uint64_t stuck_at_end = 0;    // wedged rounds left (must be 0)
  std::uint64_t gray_dropped = 0;
  security::DetectorStats detector;
  core::RecoveryStats recovery;
  double detect_s = 0.0;   // window start -> first suspicion (0 = none raised)
  double recover_s = 0.0;  // window start -> last ladder resolution (0 = none)
  double postheal_p99_s = 0.0;
};

GrayCellResult run_gray_cell(const std::string& name,
                             const std::vector<security::GrayFault>& gray) {
  constexpr std::uint32_t kShards = 2;
  constexpr SimTime kWindowStart = 5 * kSecond;
  constexpr SimTime kWindowLen = 30 * kSecond;

  core::JengaConfig cfg;
  cfg.num_shards = kShards;
  cfg.nodes_per_shard = 8;
  cfg.view_timeout = 15 * kSecond;
  cfg.pending_timeout = 600 * kSecond;
  cfg.twopc_stuck_timeout = 10 * kSecond;
  cfg.recovery.backoff = 8 * kSecond;

  workload::TraceConfig tc;
  tc.num_contracts = 150;
  tc.num_accounts = 200;
  workload::TraceGenerator gen(tc, Rng(7));

  sim::Simulator sim;
  sim::Network net(sim, sim::NetConfig{}, Rng(cfg.seed));
  core::JengaSystem system(sim, net, cfg, harness::make_genesis(gen));
  security::FaultInjector injector(sim, net, system);
  security::FaultPlan plan;
  for (security::GrayFault g : gray) {
    g.at = kWindowStart;
    g.duration = kWindowLen;
    plan.gray.push_back(g);
  }
  // As in the harness runner, only a faulted cell gets a failure detector.
  std::unique_ptr<security::FailureDetector> detector;
  if (plan.event_count() > 0) {
    detector = std::make_unique<security::FailureDetector>(sim);
    net.set_arrival_observer(detector.get());
    system.set_failure_detector(detector.get());
  }
  auto telemetry = std::make_shared<telemetry::Telemetry>();
  telemetry->flight.configure(kShards * 8, 64);
  telemetry->flight.set_dump_path(("flight_gray_" + name).c_str());
  net.set_telemetry(telemetry.get());
  system.set_telemetry(telemetry.get());
  const std::uint64_t initial_balance = system.total_account_balance();
  system.start();
  injector.arm(plan);

  // Burst phase: transfers submitted into the fault window, so 2PC legs die
  // on the degraded paths and the watchdog has rounds to settle.
  for (int i = 0; i < 24; ++i) {
    sim.run_until(sim.now() + 750 * kMillisecond);
    auto tx = std::make_shared<ledger::Transaction>(gen.transfer_tx(sim.now()));
    system.submit(tx);
  }
  // Heal + settle: the window closes at 35 s; the ladder finishes its work.
  sim.run_until(70 * kSecond);
  const std::size_t preheal_samples = system.stats().commit_latencies.size();

  // Measured phase: the post-heal batch whose tail the gate compares.
  for (int i = 0; i < 30; ++i) {
    sim.run_until(sim.now() + kSecond);
    auto tx = std::make_shared<ledger::Transaction>(gen.transfer_tx(sim.now()));
    system.submit(tx);
  }
  sim.run_until(300 * kSecond);

  const TxStats& st = system.stats();
  const auto report = security::check_invariants(system, initial_balance);
  GrayCellResult r;
  r.name = name;
  r.submitted = st.submitted;
  r.committed = st.committed;
  r.aborted = st.aborted;
  r.invariants_ok = report.ok();
  r.stuck_flagged = system.twopc_stuck_total();
  r.stuck_at_end = system.twopc_stuck_now();
  r.gray_dropped = net.fault_stats().gray_dropped;
  if (detector) r.detector = detector->stats();
  r.recovery = system.recovery_stats();
  if (r.detector.first_suspicion_at > 0)
    r.detect_s = static_cast<double>(r.detector.first_suspicion_at - kWindowStart) /
                 static_cast<double>(kSecond);
  if (r.recovery.last_resolved_at > 0)
    r.recover_s = static_cast<double>(r.recovery.last_resolved_at - kWindowStart) /
                  static_cast<double>(kSecond);
  std::vector<SimTime> tail(st.commit_latencies.begin() +
                                static_cast<std::ptrdiff_t>(
                                    std::min(preheal_samples, st.commit_latencies.size())),
                            st.commit_latencies.end());
  if (!tail.empty()) {
    std::sort(tail.begin(), tail.end());
    const std::size_t idx =
        static_cast<std::size_t>(0.99 * static_cast<double>(tail.size() - 1));
    r.postheal_p99_s = static_cast<double>(tail[idx]) / static_cast<double>(kSecond);
  }
  if (!report.ok()) {
    std::printf("%s\n", report.describe().c_str());
    telemetry->flight.trigger("invariant.violation");
  }
  net.set_telemetry(nullptr);
  system.set_telemetry(nullptr);
  net.set_arrival_observer(nullptr);
  system.set_failure_detector(nullptr);
  return r;
}

std::string gray_to_json(const std::vector<GrayCellResult>& cells) {
  std::ostringstream out;
  out << "{\"bench\":\"gray\",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GrayCellResult& c = cells[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"cell\":\"%s\",\"submitted\":%llu,\"committed\":%llu,\"aborted\":%llu,"
        "\"invariants_ok\":%s,\"stuck_flagged\":%llu,\"stuck_at_end\":%llu,"
        "\"gray_dropped\":%llu,\"detector_samples\":%llu,\"suspicions\":%llu,"
        "\"time_to_detect_s\":%.2f,\"probes\":%llu,\"abort_queries\":%llu,"
        "\"refunds\":%llu,\"retries\":%llu,\"resolved\":%llu,"
        "\"time_to_recover_s\":%.2f,\"postheal_p99_s\":%.3f}",
        c.name.c_str(), static_cast<unsigned long long>(c.submitted),
        static_cast<unsigned long long>(c.committed),
        static_cast<unsigned long long>(c.aborted), c.invariants_ok ? "true" : "false",
        static_cast<unsigned long long>(c.stuck_flagged),
        static_cast<unsigned long long>(c.stuck_at_end),
        static_cast<unsigned long long>(c.gray_dropped),
        static_cast<unsigned long long>(c.detector.samples),
        static_cast<unsigned long long>(c.detector.suspicions), c.detect_s,
        static_cast<unsigned long long>(c.recovery.probes_sent),
        static_cast<unsigned long long>(c.recovery.abort_queries),
        static_cast<unsigned long long>(c.recovery.refunds),
        static_cast<unsigned long long>(c.recovery.retries),
        static_cast<unsigned long long>(c.recovery.resolved), c.recover_s,
        c.postheal_p99_s);
    out << (i ? "," : "") << buf;
  }
  out << "]}";
  return out.str();
}

void run_gray_sweep(jenga::bench::ShapeReporter& rep) {
  using security::GrayFault;
  using security::GrayFaultKind;
  std::printf("\nGray-failure sweep — self-healing under degraded-but-alive victims\n");

  // Victims by initial lattice position: shard 0 holds nodes 0..7, shard 1
  // holds 8..15 (epoch 0 assignment is identity at this scale).
  GrayFault slow_a;  // one slow node per shard
  slow_a.kind = GrayFaultKind::kSlowNode;
  slow_a.node = NodeId{1};
  slow_a.serialize_factor = 12.0;
  slow_a.proc_delay = 3 * kMillisecond;
  GrayFault slow_b = slow_a;
  slow_b.node = NodeId{9};
  GrayFault link;  // a degraded cross-shard link pair
  link.kind = GrayFaultKind::kLinkDegrade;
  link.node = NodeId{2};
  link.peer = NodeId{10};
  link.extra_delay = 80 * kMillisecond;
  GrayFault link2 = link;
  link2.node = NodeId{3};
  link2.peer = NodeId{11};
  // Severely lossy NICs on a minority of shard 1: 2PC legs landing on these
  // contacts mostly vanish — the wedge generator for the recovery ladder.
  GrayFault lossy_a;
  lossy_a.kind = GrayFaultKind::kLossyNic;
  lossy_a.node = NodeId{8};
  lossy_a.drop_rate = 0.95;
  GrayFault lossy_b = lossy_a;
  lossy_b.node = NodeId{10};
  GrayFault lossy_c = lossy_a;
  lossy_c.node = NodeId{12};

  struct CellSpec {
    const char* name;
    std::vector<GrayFault> gray;
  };
  std::vector<CellSpec> specs = {
      {"clean", {}},
      {"latency_inflation", {link, link2}},
      {"slow_node", {slow_a, slow_b}},
      {"lossy_nic", {lossy_a, lossy_b, lossy_c}},
      {"combined", {slow_a, link, lossy_a, lossy_b, lossy_c}},
  };
  if (gray_quick_mode()) {
    std::printf("(JENGA_GRAY_QUICK=1: clean + lossy_nic only)\n");
    specs = {{"clean", {}}, {"lossy_nic", {lossy_a, lossy_b, lossy_c}}};
  }

  std::vector<GrayCellResult> cells;
  std::printf("%-18s %-10s %-8s %-8s %-8s %-9s %-9s %-12s %-10s\n", "cell", "committed",
              "stuck", "probes", "aborts", "detect(s)", "recov(s)", "postp99(s)",
              "invariants");
  for (const CellSpec& spec : specs) {
    GrayCellResult r = run_gray_cell(spec.name, spec.gray);
    std::printf("%-18s %-10llu %-8llu %-8llu %-8llu %-9.2f %-9.2f %-12.3f %-10s\n",
                r.name.c_str(), static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.stuck_flagged),
                static_cast<unsigned long long>(r.recovery.probes_sent),
                static_cast<unsigned long long>(r.recovery.abort_queries), r.detect_s,
                r.recover_s, r.postheal_p99_s, r.invariants_ok ? "ok" : "VIOLATION");
    std::fflush(stdout);
    cells.push_back(std::move(r));
  }

  const GrayCellResult* clean = nullptr;
  for (const GrayCellResult& c : cells)
    if (c.name == "clean") clean = &c;
  bool all_ok = true;
  bool all_resolved = true;
  bool all_settled = true;
  std::uint64_t total_flagged = 0;
  for (const GrayCellResult& c : cells) {
    all_ok = all_ok && c.invariants_ok;
    all_resolved = all_resolved && (c.committed + c.aborted == c.submitted);
    all_settled = all_settled && c.stuck_at_end == 0;
    total_flagged += c.stuck_flagged;
  }
  rep.check(all_ok, "gray sweep: safety invariants hold in every cell");
  rep.check(all_resolved, "gray sweep: every transaction resolves (no limbo)");
  rep.check(total_flagged > 0, "gray sweep: the wedge generator flagged stuck rounds");
  rep.check(all_settled, "gray sweep: every flagged stuck round settled by the ladder");
  if (clean != nullptr && clean->postheal_p99_s > 0) {
    bool p99_ok = true;
    for (const GrayCellResult& c : cells) {
      if (c.postheal_p99_s > 1.5 * clean->postheal_p99_s) {
        std::printf("post-heal p99 regression: %s %.3fs vs clean %.3fs\n", c.name.c_str(),
                    c.postheal_p99_s, clean->postheal_p99_s);
        p99_ok = false;
      }
    }
    rep.check(p99_ok, "gray sweep: post-heal commit p99 within 1.5x of the clean cell");
  }

  const std::string json = gray_to_json(cells);
  std::printf("\nJSON: %s\n", json.c_str());
  std::ofstream("BENCH_gray.json") << json << "\n";
  std::printf("wrote BENCH_gray.json\n");
}

std::string to_json(const std::vector<CellResult>& cells) {
  std::ostringstream out;
  out << "{\"bench\":\"resilience\",\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"drop\":%.2f,\"byz_per_shard\":%d,\"submitted\":%llu,"
                  "\"committed\":%llu,\"aborted\":%llu,\"commit_rate\":%.4f,"
                  "\"p50_s\":%.3f,\"p99_s\":%.3f,\"avg_s\":%.3f,"
                  "\"dominant_phase\":\"%s\",\"invariants_ok\":%s}",
                  c.drop, c.byz_per_shard,
                  static_cast<unsigned long long>(c.submitted),
                  static_cast<unsigned long long>(c.committed),
                  static_cast<unsigned long long>(c.aborted), c.commit_rate,
                  c.p50_s, c.p99_s, c.avg_s,
                  telemetry::interval_name(c.breakdown.dominant_interval()),
                  c.invariants_ok ? "true" : "false");
    out << (i ? "," : "") << buf;
  }
  out << "]}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jenga::bench;

  header("Resilience — commit rate under drop rate x Byzantine fraction",
         "fault-tolerance claims, paper SSIV/SSVI");
  const std::string trace_out = trace_out_from_args(argc, argv);
  ShapeReporter rep;

  std::vector<double> drops = {0.0, 0.05, 0.10, 0.20};
  std::vector<int> byz_counts = {0, 1, 2};
  if (quick_mode()) {
    std::printf("(JENGA_RESILIENCE_QUICK=1: clean + 10%% drop only)\n");
    drops = {0.0, 0.10};
    byz_counts = {0};
  }

  std::vector<CellResult> cells;
  std::printf("%-8s %-6s %-10s %-8s %-8s %-8s %-8s %-8s %-10s\n", "drop", "byz",
              "committed", "aborted", "rate", "p50(s)", "p99(s)", "avg(s)", "invariants");
  for (int byz : byz_counts) {
    for (double drop : drops) {
      const CellResult r = run_cell(drop, byz);
      std::printf("%-8.2f %-6d %-10llu %-8llu %-8.3f %-8.2f %-8.2f %-8.2f %-10s\n", r.drop,
                  r.byz_per_shard, static_cast<unsigned long long>(r.committed),
                  static_cast<unsigned long long>(r.aborted), r.commit_rate, r.p50_s,
                  r.p99_s, r.avg_s, r.invariants_ok ? "ok" : "VIOLATION");
      std::fflush(stdout);
      cells.push_back(r);
    }
  }
  std::printf("\n");

  bool all_invariants = true;
  bool all_resolved = true;
  const CellResult* clean = nullptr;
  const CellResult* faulted = nullptr;  // reference faulted cell: 10% drop, 0 byz
  for (const CellResult& c : cells) {
    all_invariants = all_invariants && c.invariants_ok;
    all_resolved = all_resolved && (c.committed + c.aborted == c.submitted);
    if (c.drop == 0.0 && c.byz_per_shard == 0) clean = &c;
    if (c.drop == 0.10 && c.byz_per_shard == 0) faulted = &c;
  }

  // Clean-vs-faulted phase attribution: the tracer localises the fault's
  // latency cost to a specific phase instead of smearing it over the mean.
  if (clean != nullptr && faulted != nullptr && clean->breakdown.committed > 0 &&
      faulted->breakdown.committed > 0) {
    std::printf("phase means, clean vs 10%% drop (s): fault-inflated phase from the tracer\n");
    std::size_t worst = 0;
    double worst_ratio = 0.0;
    for (std::size_t p = 0; p < telemetry::kIntervalCount; ++p) {
      const double base = clean->breakdown.mean_interval_seconds(p);
      const double hit = faulted->breakdown.mean_interval_seconds(p);
      const double ratio = base > 0 ? hit / base : (hit > 0 ? 1e9 : 1.0);
      std::printf("  %-12s %8.3f -> %8.3f  (x%.2f)\n", telemetry::interval_name(p), base, hit,
                  ratio);
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        worst = p;
      }
    }
    std::printf("  fault-inflated phase: %s (x%.2f)\n\n", telemetry::interval_name(worst),
                worst_ratio);
    rep.check(worst_ratio >= 1.3,
              "tracer identifies the fault-inflated phase (>= 1.3x vs clean run)");
  }

  rep.check(all_invariants, "safety invariants hold in every cell of the sweep");
  rep.check(all_resolved, "every transaction resolves (no limbo) in every cell");
  rep.check(clean != nullptr && clean->commit_rate == 1.0, "fault-free cell commits 100%");
  bool faulted_ok = true;
  for (const CellResult& c : cells)
    if (c.drop <= 0.10 && c.byz_per_shard <= 1) faulted_ok = faulted_ok && c.commit_rate >= 0.9;
  rep.check(faulted_ok, "commit rate stays >= 90% up to 10% drop + 1 Byzantine/shard");

  if (!trace_out.empty() && faulted != nullptr && faulted->telemetry) {
    std::ofstream out(trace_out);
    if (out) {
      faulted->telemetry->export_jsonl(out);
      std::printf("wrote %s (telemetry of the 10%% drop cell)\n", trace_out.c_str());
    }
  }

  const std::string json = to_json(cells);
  std::printf("\nJSON: %s\n", json.c_str());
  std::ofstream("bench_resilience.json") << json << "\n";
  std::printf("wrote bench_resilience.json\n");

  run_gray_sweep(rep);
  return rep.finish("bench_resilience");
}
