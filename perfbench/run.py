#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seconds S]

Workloads: paper_models, overload_farm, daemon_edit_loop (perfbench/NOTES.md
says why each exists and what each metric means). The build goes to
$CARGO_TARGET_DIR, or .bench_build when that is unset.

The last line of standard output is the summary JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it is the
full result record, stamped with nproc, compiler, build type, git commit,
the seed and the generated input parameters; it is also written under
<build>/results/. Traced runs write a Chrome trace-event file under
<build>/traces/.

--self-check runs every workload twice with the default seed and once with
the held-out seed, and checks that the named counts repeat exactly and that
a different seed changes the generated inputs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_models", "overload_farm", "daemon_edit_loop")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20040609

# Extra processes that only set up, so setup_s is a median over several
# set-ups (the measuring process is one more).
SETUP_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "compile_ms_min": "ms",
    "latency_ms_min": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "lss.parse_ms": "ms",
    "lss.source_kb": "KiB",
    "lss.kb_per_ms": "KiB/ms",
    "lss.self_ms": "ms",
    "interp.elaborate_ms": "ms",
    "interp.instances": "count",
    "interp.us_per_instance": "us",
    "interp.self_ms": "ms",
    "infer.ms": "ms",
    "infer.constraints": "count",
    "infer.unify_steps": "count",
    "infer.branch_points": "count",
    "infer.groups": "count",
    "infer.groups_unsolved": "count",
    "infer.threads_used": "count",
    "infer.self_ms": "ms",
    "sim.build_ms": "ms",
    "sim.step_ms": "ms",
    "sim.kernel_ops": "count",
    "sim.generic_op_share": "ratio",
    "sim.leaf_evals": "count",
    "sim.ns_per_leaf_eval": "ns",
    "sim.net_writes": "count",
    "sim.net_change_ratio": "ratio",
    "sim.runtime_errors": "count",
    "sim.self_ms": "ms",
    "driver.rtt_ms": "ms",
    "driver.queue_ms": "ms",
    "driver.service_ms": "ms",
    "driver.transport_ms": "ms",
    "driver.recompile_ms_p50": "ms",
    "driver.elab_hit_ratio": "ratio",
    "driver.solve_hit_ratio": "ratio",
    "driver.cache_bytes_in_memory": "bytes",
    "driver.evictions": "count",
    "driver.queue_full": "count",
    "driver.client_retries": "count",
    "driver.incr_modules_reelaborated": "count",
    "driver.incr_groups_resolved": "count",
    "driver.incr_groups_spliced": "count",
    "driver.incr_fallbacks": "count",
    "driver.self_ms": "ms",
    "unaccounted_ms": "ms",
    "trace_overhead_pct": "%",
}

# Counts that must repeat exactly for a seed (the determinism self-check).
DETERMINISTIC = {
    "paper_models": ["infer.constraints", "infer.unify_steps",
                     "infer.branch_points", "interp.instances",
                     "sim.leaf_evals", "sim.net_writes"],
    "overload_farm": ["infer.constraints", "infer.unify_steps",
                      "infer.branch_points", "interp.instances"],
    "daemon_edit_loop": ["driver.incr_groups_resolved",
                         "driver.incr_modules_reelaborated"],
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def child_env(bdir):
    """The environment for every child: temporary files stay in the build tree."""
    tmp = os.path.abspath(os.path.join(bdir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(bdir):
    """Configures (once) and builds perfbench and lssd; False on failure."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench", "lssd"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, timeout=870,
                          env=child_env(bdir)).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(cmd, timeout, bdir):
    """Runs perfbench; returns (exit code, last JSON line or None)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                           text=True, env=child_env(bdir))
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1, None
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        return p.returncode, None
    try:
        return p.returncode, json.loads(lines[-1])
    except ValueError:
        return p.returncode, None


def git_commit():
    # The ceiling keeps git from looking above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, env=env)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, bdir):
    """Runs one workload; returns the stamped record or None on failure."""
    exe = os.path.join(bdir, "perfbench")
    run_dir = os.path.join(bdir, "run", str(os.getpid()))
    trace_out = os.path.join(bdir, "traces",
                             "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    common = [exe, "--workload", workload, "--seed", str(seed),
              "--models-dir", "models", "--lssd", os.path.join(bdir, "lssd"),
              "--run-dir", run_dir]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            rc, rec = run_binary(common + ["--setup-only", "--seconds", "1"],
                                 timeout=60, bdir=bdir)
            if rc != 0 or rec is None:
                log("set-up probe failed")
                return None
            setups.append(rec["setup_s"])
        rc, rec = run_binary(common + ["--seconds", str(seconds), "--trace",
                                       "1" if trace else "0",
                                       "--trace-out", trace_out],
                             timeout=seconds + 120, bdir=bdir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if rec is None:
        log("workload %s produced no result (exit %d)" % (workload, rc))
        return None
    setups.append(rec["setup_s"])
    rec["setup_s_samples"] = setups
    rec["end_to_end"]["setup_s"] = statistics.median(setups)
    rec["git_commit"] = git_commit()
    rec["exit_code"] = rc
    if trace:
        rec["trace_file"] = trace_out
    return rec


def summary(rec, trace):
    names = PER_LAYER if trace else END_TO_END
    values = rec["per_layer"] if trace else rec["end_to_end"]
    # A layer the workload does not reach reports 0.
    metrics = {n: {"value": values.get(n, 0), "unit": u}
               for n, u in names.items()}
    correct = rec["failed"] == 0 and rec["exit_code"] == 0
    return {"correct": correct, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def self_check(seconds, bdir):
    ok = True
    for w in WORKLOADS:
        recs = [run_workload(w, s, seconds, True, bdir)
                for s in (DEFAULT_SEED, DEFAULT_SEED, HELD_OUT_SEED)]
        if any(r is None or r["failed"] for r in recs):
            log("%s: a run failed" % w)
            ok = False
            continue
        a, b, c = recs
        for name in DETERMINISTIC[w]:
            va, vb = a["per_layer"].get(name), b["per_layer"].get(name)
            same = va is not None and va == vb
            log("%s: %s = %s / %s (same seed) -> %s" % (
                w, name, va, vb, "repeats" if same else "DIFFERS"))
            ok = ok and same
        if a["params"] == c["params"]:
            log("%s: seeds %d and %d generated the same inputs" % (
                w, DEFAULT_SEED, HELD_OUT_SEED))
            ok = False
    log("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isdir("models"):
        log("run from the root of a checkout (no models/ directory here)")
        return 1
    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.self_check:
        return self_check(args.seconds, bdir)

    rec = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), bdir)
    if rec is None:
        return 1
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(rec, f, indent=1)
    for p in rec["problems"]:
        log("check failed: " + p)
    print(json.dumps({"record": rec}))
    print(json.dumps(summary(rec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
