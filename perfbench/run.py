#!/usr/bin/env python3
"""Benchmark runner for the TFMCC simulator.

Builds perfbench/ (which compiles the simulator from ../src), then repeats one
workload in fresh harness processes for --seconds and prints every metric by
name and unit, ending with one JSON line:

    python3 perfbench/run.py --workload fanout_1000rx --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics from untraced runs.  --trace 1
alternates untraced and traced runs and reports the per-layer table plus the
tracing overhead.  Every run checks its own outcome; a run also fails when its
exact work counts or output digest differ from the first run of the same seed.

    python3 perfbench/run.py --baseline OUT.json [--seconds 20]

runs every workload of BENCHMARK.json once per seed in BASELINE_SEEDS through
the mode above, plus one traced run and one run of HELD_OUT_SEED, checks the
metric names against BENCHMARK.json, prints median and quartiles of each
metric with its spread against the bound, and writes them with the work
counts and a machine fingerprint to OUT.json.  --seconds defaults to
BENCHMARK.json's run_seconds in both modes.

    python3 perfbench/run.py --selftest

builds everything and runs the benchmark's own tests (shim transparency).
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

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
RESULTS_DIR = ROOT / ".bench_build" / "results"

# One run cycles through this many input sets derived from its seed, so a
# run's medians do not hinge on the protocol dynamics of a single input
# (work per input varies by up to ~30% between seeds on churn_2000rx).
INPUTS_PER_RUN = 8
# --baseline measures these seeds, and records the counts of one held-out
# seed that a later claim of unchanged work counts must re-check.
BASELINE_SEEDS = list(range(1, 11))
HELD_OUT_SEED = 9001
RUN_TIMEOUT_S = 150   # one harness process
HARD_STOP_S = 160     # stop starting new repetitions after this


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(msg):
    log("error: " + msg)
    sys.exit(2)


# --- build -------------------------------------------------------------------

def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("simulator sources not found at %s" % (ROOT / "src"))
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)]
    for t in targets:
        cmd += ["--target", t]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


# --- fingerprint ---------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the simulator and benchmark code (the checkout the
    benchmark runs in need not be a git repository).  The benchmark's docs and
    recorded baseline are left out, so the baseline can carry the digest of
    the code it measured."""
    h = hashlib.sha256()
    files = [BENCH_DIR / "CMakeLists.txt", BENCH_DIR / "run.py"]
    for top in (ROOT / "src", BENCH_DIR / "src", BENCH_DIR / "tests"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def fingerprint(build_info):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- one measured run ------------------------------------------------------------

def run_harness(workload, seed, traced):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    try:
        rec = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "exit %d without a result: %s" % (p.returncode,
                                                       p.stderr.strip()[-300:])
    if p.returncode != 0 or not rec.get("ok"):
        return rec, "exit %d: %s" % (p.returncode, "; ".join(rec.get("failures", [])))
    return rec, None


def compare_counts(ref, rec):
    """Work counts both records carry must match exactly."""
    bad = [k for k in ref["counts"]
           if k in rec["counts"] and rec["counts"][k] != ref["counts"][k]]
    if bad:
        return "work counts differ from the first run: " + ", ".join(
            "%s %d != %d" % (k, rec["counts"][k], ref["counts"][k]) for k in bad)
    if rec["digest"] != ref["digest"]:
        return "output digest %s != %s" % (rec["digest"], ref["digest"])
    return None


def input_seeds(seed):
    """The harness seeds one run measures: INPUTS_PER_RUN input sets derived
    from --seed, disjoint between seeds."""
    return [seed * 256 + j for j in range(INPUTS_PER_RUN)]


def measure(workload, seed, seconds, traced):
    modes = (False, True) if traced else (False,)
    cycle = [(s, m) for s in input_seeds(seed) for m in modes]
    start = time.monotonic()
    durations = []
    ok = {m: [] for m in modes}
    failures = []
    ref = {}  # first good record per (input seed, mode)
    attempted = 0
    while True:
        elapsed = time.monotonic() - start
        est = statistics.median(durations) if durations else 0.0
        if (attempted >= len(cycle) and elapsed + est > seconds) or \
                elapsed > HARD_STOP_S:
            break
        sub, mode = cycle[attempted % len(cycle)]
        t0 = time.monotonic()
        rec, err = run_harness(workload, sub, mode)
        durations.append(time.monotonic() - t0)
        attempted += 1
        # Untraced records anchor traced ones: tracing must not move a count.
        for anchor in (ref.get((sub, False)), ref.get((sub, mode))):
            if err is None and anchor is not None:
                err = compare_counts(anchor, rec)
        if err is not None:
            failures.append("input seed %d: %s" % (sub, err))
            continue
        ref.setdefault((sub, mode), rec)
        ok[mode].append(rec)
    counts = {}  # per input seed; traced runs add the shim and equation counts
    for (sub, _), rec in sorted(ref.items()):
        counts.setdefault(str(sub), {}).update(rec["counts"])
    return attempted, failures, ok, counts


def median_of(recs, fn):
    vals = [fn(r) for r in recs]
    return statistics.median(vals) if vals else 0.0


def end_to_end_metrics(recs):
    return {
        "wall_s": median_of(recs, lambda r: r["wall_s"]),
        "setup_s": median_of(recs, lambda r: r["setup_s"]),
        "deliveries_per_s": median_of(recs, lambda r: r["deliveries"] / r["run_s"]),
        "runs_per_s": median_of(recs, lambda r: r["runs"] / r["wall_s"]),
        "peak_rss_mb": median_of(recs, lambda r: r["peak_rss_mb"]),
    }


def per_layer_metrics(plain, traced):
    names = sorted(traced[0]["layers"]) if traced else []
    m = {k: median_of(traced, lambda r, k=k: r["layers"][k]) for k in names}
    base = median_of(plain, lambda r: r["wall_s"])
    m["trace.overhead_s"] = median_of(traced, lambda r: r["wall_s"]) - base
    m["trace.overhead_frac"] = m["trace.overhead_s"] / base if base > 0 else 0.0
    return m


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found at %s" % path)
    return json.loads(path.read_text())


def single_run_mode(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload '%s' (known: %s)" % (args.workload, ", ".join(names)))
    build(["perfbench_harness"])
    traced = args.trace == 1
    attempted, failures, ok, counts = measure(args.workload, args.seed,
                                              args.seconds, traced)
    good = ok[False] + ok.get(True, [])
    if traced:
        metrics = per_layer_metrics(ok[False], ok[True])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end_metrics(ok[False])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    spec_ok = set(metrics) == set(units)
    if not spec_ok:
        print("ERROR: metrics do not match BENCHMARK.json: reported only %s, "
              "declared only %s" % (sorted(set(metrics) - set(units)),
                                    sorted(set(units) - set(metrics))))
    fp = fingerprint(good[0]["build"] if good else {})
    for f in failures:
        print("FAILED run: " + f)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print("work counts by input seed: " + json.dumps(counts, sort_keys=True))
    print("%s seed %d: %d runs, %d failed, fail_frac %.3f" % (
        args.workload, args.seed, attempted, len(failures),
        len(failures) / attempted))
    for k in sorted(units):
        print("  %-28s %16.6g %s" % (k, metrics.get(k, 0.0), units[k]))

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fp, "counts": counts, "metrics": metrics,
        "attempted": attempted, "failures": failures, "runs": good,
    }, indent=1, sort_keys=True))

    result = {
        "correct": not failures and spec_ok and bool(ok[False]),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0


# --- baseline over many seeds -------------------------------------------------------

def run_self(workload, seed, seconds, trace):
    """One run through the command-line interface; returns its result line and the
    record it wrote."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("%s seed %d trace %d: exit %d\n%s" % (workload, seed, trace,
                                                 p.returncode, p.stderr[-2000:]))
    record = RESULTS_DIR / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    return json.loads(lines[-1]), json.loads(record.read_text())


def quartiles(vals):
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"q1": q[0], "median": statistics.median(vals), "q3": q[2],
            "spread": (q[2] - q[0]) / statistics.median(vals)
            if statistics.median(vals) else 0.0}


def dump_json(obj, indent=""):
    """Indented JSON that keeps each flat object (e.g. one input's work
    counts) on a single line."""
    if isinstance(obj, dict) and any(isinstance(v, (dict, list)) for v in obj.values()):
        inner = indent + " "
        items = ",\n".join("%s%s: %s" % (inner, json.dumps(k), dump_json(v, inner))
                           for k, v in sorted(obj.items()))
        return "{\n%s\n%s}" % (items, indent)
    return json.dumps(obj, sort_keys=True)


def baseline_mode(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    seconds = args.seconds
    seeds = BASELINE_SEEDS
    build(["perfbench_harness"])
    report = {"run_seconds": seconds, "seeds": seeds, "held_out_seed": HELD_OUT_SEED,
              "workloads": {}}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        per_seed = {}
        for s in seeds:
            res, rec = run_self(w, s, seconds, 0)
            report["fingerprint"] = rec["fingerprint"]
            ok &= res["correct"] and set(res["metrics"]) == set(bounds)
            per_seed[s] = {"metrics": {k: v["value"] for k, v in res["metrics"].items()},
                           "counts": rec["counts"], "attempted": res["attempted"],
                           "failed": res["failed"]}
            log("%s seed %d: %s" % (w, s, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))))
        summary = {}
        print("%s (%d seeds x %d s)" % (w, len(seeds), seconds))
        for name in sorted(bounds):
            q = quartiles([per_seed[s]["metrics"][name] for s in seeds])
            q["unit"] = bounds[name]["unit"]
            summary[name] = q
            steady = q["spread"] < bounds[name]["bound"] / 3
            print("  %-18s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %.3f "
                  "(bound %.2f)%s" % (name, q["median"], q["unit"], q["q1"], q["q3"],
                                      q["spread"], bounds[name]["bound"],
                                      "" if steady else "  NOT STEADY"))
        traced, _ = run_self(w, seeds[0], seconds, 1)
        ok &= traced["correct"] and set(traced["metrics"]) == layer_names
        held, held_rec = run_self(w, HELD_OUT_SEED, seconds, 0)
        ok &= held["correct"]
        report["workloads"][w] = {
            "end_to_end": summary,
            "fail_frac": sum(p["failed"] for p in per_seed.values()) /
            sum(p["attempted"] for p in per_seed.values()),
            "counts_by_seed": {str(s): per_seed[s]["counts"] for s in seeds},
            "held_out_counts": held_rec["counts"],
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.baseline).write_text(dump_json(report) + "\n")
    print("all runs correct and metric names match BENCHMARK.json" if ok else
          "FAILED: a run was incorrect or its metrics do not match BENCHMARK.json")
    return 0 if ok else 1


def selftest_mode():
    build([])
    return subprocess.run(["ctest", "--test-dir", str(BUILD_DIR),
                           "--output-on-failure"]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", metavar="OUT")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest_mode()
    if not args.baseline and not args.workload:
        ap.error("--workload, --baseline or --selftest is required")
    if args.seconds <= 0:
        args.seconds = load_spec()["run_seconds"]
    if args.baseline:
        return baseline_mode(args)
    return single_run_mode(args)


if __name__ == "__main__":
    sys.exit(main())
