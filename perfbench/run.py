#!/usr/bin/env python3
"""Host- and simulated-clock benchmark of the Jenga simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then measures
the workload for about --seconds, one process per repetition.

A workload runs on a fixed list of sub-seeds derived from --seed (seed*1000+i,
SUB_SEEDS[workload] of them), so the same seed always gives the same inputs.
Every sub-seed runs once; leftover time repeats them in order, and in an
untraced run whatever is left after that goes to setup-only repetitions.

  --trace 0  untraced; prints the end-to-end metrics.  The simulated-clock
             ones pool the sub-seeds as one longer run: latency quantiles over
             every commit, goodput = commits / summed commit spans, committed
             share = commits / generated.  wall_s and peak_rss_mb are the
             median over sub-seeds of each sub-seed's median repetition, and
             setup_s the median over every set-up made.
  --trace 1  profiles the first sub-seed only, in untraced/traced pairs;
             prints the per-layer metrics of the traced runs (medians) and
             the tracing overhead.

Correctness: each repetition checks its own outcome (jbench.cpp).  All
repetitions of one sub-seed, traced or not, must agree bit for bit on the
simulated results and digests, and so must every earlier run of the same
build (recorded under the build directory).  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; an operation is one
repetition, and a failed check fails them all and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARD_LIMIT_S = 170  # every run must end well inside 180 s

# Sub-seeds per run: as many as fit the 30 s window, since commit_p99_s varies
# by 10-15% from one seed to the next.  gray-heal's outcome is multimodal
# across seeds: about one fault episode in five heals early, with half the
# tail latency and more goodput, and the rest split between mempool expiries
# and aborts, so a run pools sixteen episodes.
SUB_SEEDS = {
    "fig5a-jenga-s12": 1,
    "fig5a-pyramid-s12": 2,
    "rumor-wal-openloop": 2,
    "gray-heal": 16,
}

# Fields that must repeat exactly for one sub-seed: simulated clock + digests.
DETERMINISTIC = ("goodput_tps", "commit_p50_s", "commit_p99_s", "committed_share", "generated",
                 "committed", "aborted", "rejected", "expired", "sim_events", "ledger_digest",
                 "state_digest", "admission_digest", "metrics_digest")
HOST_PER_RUN = ("wall_s", "peak_rss_mb")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "jbench", out / "jbench_traced"


def run_rep(binary, workload, seed, hard_deadline, setup_only=False):
    """One repetition in its own process; returns (record, elapsed_s)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=max(1.0, hard_deadline - t0))
    except subprocess.TimeoutExpired:
        return {"failed_checks": ["repetition timed out"]}, time.monotonic() - t0
    elapsed = time.monotonic() - t0
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failed_checks": [f"no result (exit {p.returncode})"]}, elapsed
    if p.returncode != 0 and not rec.get("failed_checks"):
        rec["failed_checks"] = [f"exit {p.returncode}"]
    return rec, elapsed


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_seed_records(binary, workload, refs, problems):
    """Compares each sub-seed's outcome with earlier runs of this exact build."""
    build_id = hashlib.sha256(Path(binary).read_bytes()).hexdigest()[:16]
    path = build_dir() / "seed_records.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        known = {}
    for seed, rec in refs.items():
        key = f"{build_id}/{workload}/{seed}"
        current = {k: rec[k] for k in DETERMINISTIC}
        if key not in known:
            known[key] = current
            continue
        diff = [k for k in DETERMINISTIC if known[key].get(k) != current[k]]
        if diff:
            problems.append(f"seed {seed} differs from an earlier run in {', '.join(diff)}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)


def quantile(sorted_vals, q):
    """Linear interpolation between order statistics, as in jbench.cpp."""
    pos = q * (len(sorted_vals) - 1)
    i = int(pos)
    if i + 1 >= len(sorted_vals):
        return sorted_vals[-1]
    return sorted_vals[i] + (sorted_vals[i + 1] - sorted_vals[i]) * (pos - i)


def pooled_simulated(refs):
    """The simulated-clock metrics of all sub-seeds taken as one run."""
    recs = list(refs.values())
    committed = sum(r["committed"] for r in recs)
    latencies = sorted(v for r in recs for v in r["latencies_us"])
    return {
        "goodput_tps": committed / sum(r["commit_span_s"] for r in recs),
        "commit_p50_s": quantile(latencies, 0.50) / 1e6,
        "commit_p99_s": quantile(latencies, 0.99) / 1e6,
        "committed_share": committed / sum(r["generated"] for r in recs),
    }


def per_seed_median(recs_by_seed, key):
    """Median over each sub-seed's repetitions, one value per sub-seed."""
    return [statistics.median(r[key] for r in recs) for recs in recs_by_seed.values()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True, choices=sorted(SUB_SEEDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**50:
        fail("--seed must be in [0, 2^50)")
    e2e_units, layer_units = load_units()
    jbench, jbench_traced = build()

    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    seeds = [args.seed * 1000 + i for i in range(SUB_SEEDS[args.workload])]
    if args.trace:
        seeds = seeds[:1]  # a profile needs one input, repeated, not a pool

    problems = []
    attempted = 0
    untraced = {s: [] for s in seeds}
    traced = {s: [] for s in seeds}
    setups = []

    def rep(binary, seed, setup_only=False):
        nonlocal attempted
        attempted += 1
        rec, elapsed = run_rep(binary, args.workload, seed, hard_deadline, setup_only)
        tag = "traced " if binary == jbench_traced else ""
        problems.extend(f"{tag}seed {seed}: {msg}" for msg in rec.get("failed_checks", []))
        return rec, elapsed

    # Every sub-seed once, then repeat them in order while one more fits.
    cost = {}
    i = 0
    while not problems:
        seed = seeds[i % len(seeds)]
        if i >= len(seeds) and time.monotonic() + cost[seed] > deadline:
            break
        rec, elapsed = rep(jbench, seed)
        untraced[seed].append(rec)
        if args.trace and not problems:
            rec, elapsed_t = rep(jbench_traced, seed)
            traced[seed].append(rec)
            elapsed += elapsed_t
        cost[seed] = max(cost.get(seed, 0.0), elapsed)
        i += 1
    # Untraced: spend what is left on extra set-ups.
    setup_cost = 0.0
    while not args.trace and not problems and time.monotonic() + setup_cost < deadline:
        rec, elapsed = rep(jbench, seeds[len(setups) % len(seeds)], setup_only=True)
        setup_cost = max(setup_cost, elapsed)
        if "setup_s" in rec:
            setups.append(rec["setup_s"])

    metrics = {}
    if not problems:
        # One sub-seed, one outcome: every repetition, traced or not, and every
        # earlier run of this build must agree bit for bit.
        refs = {s: recs[0] for s, recs in untraced.items()}
        for seed, recs in list(untraced.items()) + list(traced.items()):
            for rec in recs:
                diff = [k for k in DETERMINISTIC if rec.get(k) != refs[seed].get(k)]
                if diff:
                    problems.append(f"repetitions of seed {seed} differ in {', '.join(diff)}")
        check_seed_records(jbench, args.workload, refs, problems)

    if not problems and args.trace:
        (plain,), (profiled,) = untraced.values(), traced.values()
        for name, unit in layer_units.items():
            if name == "trace.overhead_share":
                value = (statistics.median(r["wall_s"] for r in profiled) /
                         statistics.median(r["wall_s"] for r in plain) - 1.0)
            elif all(name in r["layers"] for r in profiled):
                value = statistics.median(r["layers"][name] for r in profiled)
            else:
                problems.append(f"layer metric {name} missing")
                continue
            metrics[name] = {"value": value, "unit": unit}
    elif not problems:
        setups.extend(r["setup_s"] for recs in untraced.values() for r in recs)
        simulated = pooled_simulated(refs)
        for name, unit in e2e_units.items():
            if name == "setup_s":
                value = statistics.median(setups)
            elif name in HOST_PER_RUN:
                value = statistics.median(per_seed_median(untraced, name))
            elif name in simulated:
                value = simulated[name]
            else:
                fail(f"BENCHMARK.json names an end-to-end metric run.py does not know: {name}")
            metrics[name] = {"value": value, "unit": unit}
        for seed in seeds:
            walls = ", ".join(f"{r['wall_s']:.3f}" for r in untraced[seed])
            ref = refs[seed]
            log(f"seed {seed}: wall_s [{walls}]; committed {ref['committed']} of "
                f"{ref['generated']}, p50 {ref['commit_p50_s']:.3f} s, "
                f"p99 {ref['commit_p99_s']:.3f} s (sim)")
        log(f"setup_s median of {len(setups)} set-ups")

    correct = not problems
    for msg in problems:
        log(f"check failed: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
