// One benchmark run: builds one workload from its seed, drives it through
// harness::run_experiment, checks the outcome, and prints one JSON object.
//
//   jbench --workload <name> --seed <n> [--setup-only]
//
// --setup-only stops at the first event-loop slice and reports setup time
// and memory only.  The traced build (jbench_traced) additionally reports
// per-layer host time.  run.py drives both; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "harness/runner.hpp"
#include "probes.hpp"

using namespace jenga;  // NOLINT

namespace {

// --- Workloads ---------------------------------------------------------------
// Why each exists is recorded in BENCHMARK.json and README.md.

// The paper's Fig. 5a S=12 cell: committees at 1/4 of Table I (60 nodes per
// shard), 600 contract txs per shard, a closed loop of 250 outstanding per
// shard.  Mirrors bench/bench_config.hpp::perf_config without its
// environment overrides, so the benchmark input never depends on the shell.
harness::RunConfig fig5a(harness::SystemKind kind) {
  harness::RunConfig cfg;
  cfg.kind = kind;
  cfg.num_shards = 12;
  cfg.scale = 0.25;
  cfg.contract_txs = 600 * 12;
  cfg.closed_loop_window = 250 * 12;
  cfg.max_block_items = 256;
  cfg.max_sim_time = 1800 * kSecond;
  cfg.trace.num_contracts = 100'000;
  cfg.trace.num_accounts = 100'000;
  return cfg;
}

// S=4 with 8 nodes per shard under open-loop Poisson arrivals at 15 tx/s.
harness::RunConfig open_loop_s4() {
  harness::RunConfig cfg;
  cfg.kind = harness::SystemKind::kJenga;
  cfg.num_shards = 4;
  cfg.nodes_per_shard = 8;
  cfg.contract_txs = 3000;
  cfg.transfer_txs = 1000;
  cfg.trace.num_contracts = 2000;
  cfg.trace.num_accounts = 20'000;
  cfg.arrival.mode = workload::ArrivalMode::kPoisson;
  cfg.arrival.rate_tps = 15.0;
  return cfg;
}

bool make_config(const std::string& name, harness::RunConfig* cfg) {
  if (name == "fig5a-jenga-s12") {
    *cfg = fig5a(harness::SystemKind::kJenga);
  } else if (name == "fig5a-pyramid-s12") {
    *cfg = fig5a(harness::SystemKind::kPyramid);
  } else if (name == "rumor-wal-openloop") {
    *cfg = open_loop_s4();
    cfg->net.set_all_transports(sim::Transport::kRumor);  // relay batching rides along
    cfg->storage_backend = core::StorageBackendKind::kDurable;
  } else if (name == "gray-heal") {
    *cfg = open_loop_s4();
    security::GrayFault lossy;
    lossy.kind = security::GrayFaultKind::kLossyNic;
    lossy.at = 120 * kSecond;
    lossy.duration = 40 * kSecond;
    lossy.node = NodeId{8};
    lossy.drop_rate = 0.20;
    cfg->faults_plan.gray.push_back(lossy);
  } else {
    return false;
  }
  return true;
}

// --- JSON output -------------------------------------------------------------

class Json {
 public:
  void num(const char* key, double v) { field(key) += fmt("%.17g", v); }
  void u64(const char* key, std::uint64_t v) { field(key) += fmt("%" PRIu64, v); }
  void str(const char* key, const std::string& v) { field(key) += "\"" + v + "\""; }
  void boolean(const char* key, bool v) { field(key) += v ? "true" : "false"; }
  void raw(const char* key, const std::string& json) { field(key) += json; }
  void nums(const char* key, const std::map<std::string, double>& values) {
    Json inner;
    for (const auto& [k, v] : values) inner.num(k.c_str(), v);
    raw(key, inner.done());
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  static std::string fmt(const char* f, auto v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
  }
  std::string& field(const char* key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    return body_;
  }
  std::string body_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

// FNV-1a: a cheap digest of the metrics snapshot that calls no probed code.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(i);
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < failed.size(); ++i) out += (i ? ",\"" : "\"") + failed[i] + "\"";
    return out + "]";
  }
};

std::string u64s(std::uint64_t v) { return std::to_string(v); }

// --- The run -----------------------------------------------------------------

struct Outcome {
  std::uint64_t generated = 0;
  std::uint64_t committed = 0;
  std::uint64_t committed_contracts = 0;
  std::uint64_t failed = 0;  // aborted + rejected + expired + not terminal
  std::vector<double> latencies_s;  // arrival → commit, committed txs
};

// Joins each committed tx's finish instant (the phase tracer) with its
// arrival (Transaction::created_at, logged at submission), so open-loop
// latency counts mempool wait and retry backoff.
Outcome join_outcome(const harness::RunConfig& cfg, const harness::RunResult& r, Checks& checks) {
  Outcome o;
  o.generated = cfg.contract_txs + cfg.transfer_txs;
  const auto& log = perfbench::run_log();
  for (const auto& [hash, trace] : r.telemetry->tracer.traces()) {
    if (!trace.done || !trace.committed) continue;
    ++o.committed;
    const auto it = log.txs.find(hash);
    if (it == log.txs.end()) {
      checks.expect(false, "committed tx " + to_hex(hash).substr(0, 16) + " was never submitted");
      continue;
    }
    checks.expect(trace.finish >= it->second.created_at, "commit precedes arrival");
    o.committed_contracts += it->second.contract ? 1 : 0;
    o.latencies_s.push_back(static_cast<double>(trace.finish - it->second.created_at) /
                            static_cast<double>(kSecond));
  }
  std::sort(o.latencies_s.begin(), o.latencies_s.end());
  const TxStats& s = r.stats;
  const std::uint64_t terminal = s.committed + s.aborted + s.rejected + s.expired;
  o.failed = o.generated - std::min(o.generated, s.committed);
  checks.expect(o.committed == s.committed,
                "tracer commits " + u64s(o.committed) + " != system commits " + u64s(s.committed));
  checks.expect(terminal == o.generated, "only " + u64s(terminal) + " of " + u64s(o.generated) +
                                             " txs reached a terminal state");
  checks.expect(s.committed + s.aborted == s.submitted, "submitted txs still in flight");
  if (r.ingress.enabled) {
    checks.expect(r.ingress.client.generated == o.generated, "generator stopped early");
    std::string report = r.ingress.invariants.describe();
    std::replace(report.begin(), report.end(), '\n', ';');
    std::replace(report.begin(), report.end(), '"', '\'');
    checks.expect(r.ingress.invariants_audited && r.ingress.invariants.ok(),
                  "post-drain invariants failed: " + report);
  }
  return o;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

using LayerMetrics = std::map<std::string, double>;

// Per-layer metrics read from the program's own counters.
LayerMetrics counted_layers(const harness::RunResult& r, const Outcome& o) {
  const auto& reg = r.telemetry->registry;
  auto counter = [&](const char* n) -> std::uint64_t {
    const auto* c = reg.find_counter(n);
    return c != nullptr ? c->value() : 0;
  };
  auto hist = [&](const char* n) -> const telemetry::Histogram* { return reg.find_histogram(n); };
  const double us = static_cast<double>(kSecond);
  LayerMetrics m;

  std::uint64_t msgs = 0, bytes = 0;
  for (int c = 0; c < 3; ++c) {
    msgs += r.traffic.messages[c];
    bytes += r.traffic.bytes[c];
  }
  m["simnet.events"] = static_cast<double>(r.sim_events);
  m["simnet.msgs_per_commit"] = ratio(static_cast<double>(msgs), static_cast<double>(o.committed));
  m["simnet.bytes_per_commit"] =
      ratio(static_cast<double>(bytes), static_cast<double>(o.committed));

  m["consensus.rounds"] = static_cast<double>(counter("bft.rounds"));
  m["consensus.view_changes"] = static_cast<double>(counter("bft.view_changes"));
  if (const auto* h = hist("bft.round_us")) m["consensus.round_p50_s"] = h->quantile(0.5) / us;
  if (const auto* h = hist("bft.view_change_us"))
    m["consensus.view_change_max_s"] = static_cast<double>(h->max()) / us;

  static constexpr const char* kPhase[] = {"state_lock", "grant_relay", "execute", "commit"};
  for (std::size_t i = 0; i < telemetry::kIntervalCount; ++i)
    m[std::string("core.phase.") + kPhase[i] + "_s"] = r.breakdown.mean_interval_seconds(i);
  const core::CertVerifyStats& cc = r.cert_checks;
  m["core.relay.cert_checks"] = static_cast<double>(cc.individual_checks + cc.batch_passes);
  m["core.relay.certs_per_verify_pass"] =
      ratio(static_cast<double>(cc.individual_checks + cc.batch_certs),
            static_cast<double>(cc.individual_checks + cc.batch_passes));
  m["core.recovery.probes"] = static_cast<double>(r.recovery.probes_sent);
  m["core.recovery.refunds"] = static_cast<double>(r.recovery.refunds);
  m["core.recovery.terminal_aborts"] = static_cast<double>(r.recovery.terminal_aborts);
  m["core.recovery.hedged_sends"] = static_cast<double>(r.recovery.hedged_sends);

  const gossip::RumorStats& rs = r.rumor;
  m["gossip.pushes_per_rumor"] =
      ratio(static_cast<double>(rs.pushes_sent), static_cast<double>(rs.rumors_started));
  m["gossip.dup_share"] = ratio(static_cast<double>(rs.dups_dropped),
                                static_cast<double>(rs.delivered + rs.dups_dropped));
  m["gossip.pull_requests"] = static_cast<double>(rs.pull_requests);
  {
    std::vector<double> rounds(rs.coverage_rounds.begin(), rs.coverage_rounds.end());
    std::sort(rounds.begin(), rounds.end());
    m["gossip.coverage_rounds_p99"] = quantile_sorted(rounds, 0.99);
  }
  m["gossip.items_per_frame"] = ratio(static_cast<double>(r.relay_batches.items_enqueued),
                                      static_cast<double>(r.relay_batches.frames_sent));

  m["ledger.wal_bytes"] = static_cast<double>(counter("storage.wal_bytes"));
  m["ledger.snapshots"] = static_cast<double>(counter("storage.snapshots_written"));

  const std::uint64_t batches = counter("exec.batches");
  m["exec.batches"] = static_cast<double>(batches);
  m["exec.tasks_per_batch"] =
      ratio(static_cast<double>(counter("exec.tasks")), static_cast<double>(batches));
  if (const auto* h = hist("exec.batch.util_bound_pct")) m["exec.parallel_bound_pct"] = h->mean();

  const mempool::MempoolStats& ms = r.ingress.pools.totals;
  m["mempool.admitted"] = static_cast<double>(ms.admitted);
  m["mempool.rejected"] =
      static_cast<double>(ms.rejected_full + ms.rejected_duplicate + ms.rejected_expired);
  m["mempool.evicted"] = static_cast<double>(ms.evicted);
  m["mempool.expired"] = static_cast<double>(ms.expired);
  {
    telemetry::Histogram wait;
    for (const auto& [name, h] : reg.histograms())
      if (name.rfind("mempool.wait_us.tier", 0) == 0) wait.merge(h);
    m["mempool.wait_p99_s"] = wait.quantile(0.99) / us;
  }
  const auto& log = perfbench::run_log();
  m["workload.arrival_lag_s"] = (log.drawn_gaps_us - log.nominal_gaps_us) / us;
  m["workload.retries"] = static_cast<double>(r.ingress.client.retries);

  m["security.detector.samples"] = static_cast<double>(r.detector.samples);
  m["security.detector.suspicions"] = static_cast<double>(r.detector.suspicions);
  m["tx.committed"] = static_cast<double>(o.committed);
  m["tx.failed"] = static_cast<double>(o.failed);
  return m;
}

#if JBENCH_TRACED
// Per-layer host time from the traced binary's spans, and the reconciliation
// of span counts with the program's counters.
void traced_layers(LayerMetrics& m, const harness::RunConfig& cfg, const harness::RunResult& r,
                   const Outcome& o, const perfbench::TraceReport& t, Checks& checks) {
  using namespace perfbench;
  const double us = static_cast<double>(kSecond);
  const auto& log = run_log();
  const auto* batches = r.telemetry->registry.find_counter("exec.batches");
  for (int l = 1; l < kLayerCount; ++l)
    m[std::string(layer_name(static_cast<Layer>(l))) + ".self_s"] = t.layer_self_s[l];
  m["trace.wall_s"] = t.wall_s;
  m["trace.unattributed_share"] = ratio(t.layer_self_s[kUnattributed], t.wall_s);
  m["simnet.ns_per_event"] =
      ratio(t.layer_self_s[kSimnet] * 1e9, static_cast<double>(r.sim_events));
  m["crypto.sha256.calls"] = static_cast<double>(t.layer_calls[kSha256]);
  m["crypto.sha256.ns_per_call"] =
      ratio(t.layer_self_s[kSha256] * 1e9, static_cast<double>(t.layer_calls[kSha256]));
  m["crypto.multisig.calls"] = static_cast<double>(t.layer_calls[kMultisig]);
  m["ledger.trie_puts"] = static_cast<double>(t.probe_calls[kTriePut]);
  m["vm.runs"] = static_cast<double>(t.probe_calls[kVmRun]);
  m["vm.us_per_run"] =
      ratio(t.probe_total_s[kVmRun] * 1e6, static_cast<double>(t.probe_calls[kVmRun]));
  m["security.detector.ns_per_sample"] = ratio(t.probe_total_s[kDetectorSample] * 1e9,
                                               static_cast<double>(t.probe_calls[kDetectorSample]));
  m["security.detector.time_to_detect_s"] =
      log.detected_at >= 0 ? static_cast<double>(log.detected_at - log.fault_at) / us : 0.0;
  m["workload.tracegen_s"] = t.probe_total_s[kTraceGen];
  m["harness.system_build_s"] = t.probe_total_s[kSystemBuild];

  // Reconciliation: the spans partition the traced wall time, and span counts
  // agree with the program's own counters wherever both exist.
  checks.expect(t.depth_overflows == 0, "span stack overflowed");
  checks.expect(t.residual_ns == 0,
                "layer self times miss the traced wall by " + std::to_string(t.residual_ns) + " ns");
  checks.expect(t.probe_calls[kTask] == r.sim_events,
                "event spans " + u64s(t.probe_calls[kTask]) + " != events " + u64s(r.sim_events));
  checks.expect(t.probe_calls[kSubmit] == r.stats.submitted, "submit spans != submitted txs");
  checks.expect(t.probe_calls[kExecBatch] == (batches != nullptr ? batches->value() : 0),
                "exec batch spans != exec.batches");
  // The detector samples an interval from the second arrival of each
  // (observer, peer) pair on, so arrivals exceed samples by at most one per
  // ordered pair.
  const std::uint64_t pairs = std::uint64_t{r.total_nodes} * r.total_nodes;
  checks.expect(t.probe_calls[kDetectorSample] >= r.detector.samples &&
                    t.probe_calls[kDetectorSample] <= r.detector.samples + pairs,
                "detector arrivals " + u64s(t.probe_calls[kDetectorSample]) +
                    " do not fit samples " + u64s(r.detector.samples));
  // Fault-free Jenga executes each committed contract tx exactly once, at its
  // execution channel.  Under faults an executed tx can still abort, and the
  // baselines re-run a call chain per visited shard.
  const bool once =
      cfg.kind != harness::SystemKind::kPyramid && cfg.faults_plan.event_count() == 0;
  checks.expect(once ? t.probe_calls[kVmRun] == o.committed_contracts
                     : t.probe_calls[kVmRun] >= o.committed_contracts,
                "vm runs " + u64s(t.probe_calls[kVmRun]) + " vs committed contract txs " +
                    u64s(o.committed_contracts));
  if (r.ingress.enabled) {
    checks.expect(t.probe_calls[kOffer] == r.ingress.client.offers, "offer spans != offers");
    checks.expect(t.probe_calls[kArrivalDraw] == r.ingress.client.generated,
                  "arrival draws != generated txs");
  }
}
#endif

int usage() {
  std::fprintf(stderr, "usage: jbench --workload <name> --seed <n> [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  bool have_seed = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  harness::RunConfig cfg;
  if (!have_seed || !make_config(name, &cfg)) return usage();
  cfg.seed = seed;

  perfbench::RunLog& log = perfbench::run_log();
  if (!cfg.faults_plan.gray.empty()) {
    log.fault_node = cfg.faults_plan.gray.front().node;
    log.fault_at = cfg.faults_plan.gray.front().at;
  }
  if (setup_only) {
    log.at_setup = [&] {
      Json out;
      out.str("workload", name);
      out.u64("seed", seed);
      out.num("setup_s", log.setup_s);
      out.num("peak_rss_mb", peak_rss_mb());
      std::printf("%s\n", out.done().c_str());
      std::fflush(stdout);
      std::_Exit(0);
    };
  }

#if JBENCH_TRACED
  perfbench::trace_begin(cfg.kind == harness::SystemKind::kPyramid ? perfbench::kBaselines
                                                                  : perfbench::kCore);
#endif
  log.start = perfbench::Clock::now();
  harness::RunResult r;
  {
#if JBENCH_TRACED
    perfbench::RootSpan root;
#endif
    r = harness::run_experiment(cfg);
  }
  const double wall_s = perfbench::seconds_since(log.start);
#if JBENCH_TRACED
  const perfbench::TraceReport trace = perfbench::trace_end();
#endif
  const double rss = peak_rss_mb();

  Checks checks;
  const Outcome o = join_outcome(cfg, r, checks);
  LayerMetrics layers = counted_layers(r, o);
#if JBENCH_TRACED
  traced_layers(layers, cfg, r, o, trace, checks);
#endif

  Json out;
  out.str("workload", name);
  out.u64("seed", seed);
  out.boolean("traced", JBENCH_TRACED != 0);
  out.num("wall_s", wall_s);
  out.num("setup_s", log.setup_s);
  out.num("peak_rss_mb", rss);
  out.num("goodput_tps", r.tps);
  out.num("commit_p50_s", quantile_sorted(o.latencies_s, 0.50));
  out.num("commit_p99_s", quantile_sorted(o.latencies_s, 0.99));
  out.num("committed_share", static_cast<double>(o.committed) / static_cast<double>(o.generated));
  // What run.py needs to pool several sub-seeds into one longer run.
  out.num("commit_span_s", static_cast<double>(r.stats.last_commit_time - r.stats.first_submit_time) /
                               static_cast<double>(kSecond));
  {
    std::string lat = "[";
    for (const double v : o.latencies_s)
      lat += (lat.size() > 1 ? "," : "") + std::to_string(std::llround(v * 1e6));
    out.raw("latencies_us", lat + "]");
  }
  out.u64("generated", o.generated);
  out.u64("committed", o.committed);
  out.u64("aborted", r.stats.aborted);
  out.u64("rejected", r.stats.rejected);
  out.u64("expired", r.stats.expired);
  out.u64("sim_events", r.sim_events);
  out.str("ledger_digest", to_hex(r.ledger_digest));
  out.str("state_digest", to_hex(r.state_digest));
  out.str("admission_digest", to_hex(r.ingress.admission_digest));
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, fnv1a(r.telemetry->registry.to_json()));
  out.str("metrics_digest", digest);
  out.nums("layers", layers);
  out.raw("failed_checks", checks.json());
  std::printf("%s\n", out.done().c_str());
  return checks.failed.empty() ? 0 : 1;
}
