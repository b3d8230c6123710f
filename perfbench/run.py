#!/usr/bin/env python3
"""Serving benchmark for the PIM kd-tree (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload knn_read --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs the benchmark binary with PIMKD_THREADS set to
nproc - 1 and PIMKD_TRACE unset, checks that the modeled metrics repeat
exactly for a (workload, seed) pair already run on identical sources in this
checkout, and prints
a metadata line followed by the result as the last stdout line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced replay. --workload all runs every workload and prints each metric
by name with its unit. Any failed check exits non-zero without a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["knn_read", "update_wal", "scan_router"]
# Counts the modeled metrics are computed from; equal for equal seeds.
MODEL_KEYS = ["epochs", "communication", "comm_time", "rounds",
              "storage_words", "live"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no pimkd sources under {ROOT}/src; run from a full checkout")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(usable_cpus())
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def usable_cpus():
    """CPUs this process may run on, as `nproc` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def check_exact(workload, seed, model, digest):
    """For fixed sources the modeled counts are a pure function of (workload,
    seed): a run that disagrees with an earlier run of the same pair on the
    same sources is a failure, not noise. Other sources may legitimately
    change them, so the cache is keyed by the source digest too."""
    path = os.path.join(OUT, f"model-{workload}-seed{seed}-{digest}.json")
    now = {k: model[k] for k in MODEL_KEYS}
    if os.path.isfile(path):
        with open(path) as fh:
            before = json.load(fh)
        if before != now:
            log(f"CHECK FAILED: modeled counts for {workload} seed {seed} "
                f"changed between runs: {before} vs {now}")
            return False
        return True
    with open(path, "w") as fh:
        json.dump(now, fh)
    return True


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("PIMKD_TRACE", None)  # the cost trace would add file I/O per round
    env["PIMKD_THREADS"] = str(max(1, usable_cpus() - 1))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"{workload}: benchmark binary exited with {r.returncode}")
        return None
    res = json.loads(lines[-1])
    if not res.get("correct"):
        return None
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    if got != declared_metrics(trace):
        log(f"{workload}: reported metrics do not match BENCHMARK.json")
        return None
    digest = source_digest()
    if trace == 0 and not check_exact(workload, seed, res["model"], digest):
        return None
    res["meta"].update(git_commit=git_commit(), source_sha256=digest)
    with open(os.path.join(OUT, f"result-{workload}-trace{trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not build():
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for w in names:
        res = run_one(w, a.seed, a.seconds, a.trace)
        if res is None:
            return 1
        results[w] = res
        print("perfbench meta " + json.dumps(res["meta"], sort_keys=True))
        for name, m in res["metrics"].items():
            print(f"perfbench {w} {name} = {m['value']:.6g} {m['unit']}")

    if a.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[a.workload]["metrics"]
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
