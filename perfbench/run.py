#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs its workloads.

Run from the repository root:

  python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0
      One run. Prints every end-to-end metric (--trace 0) or every per-layer
      metric (--trace 1) of BENCHMARK.json with unit and sample count, then,
      as the last line, {"correct", "attempted", "failed", "metrics"}.
      Exits 1 on a wrong answer.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload untraced, then a summary table.
  python3 perfbench/run.py --compare BASE.json NEW.json
      Compares two full results (written to .bench_out/), refusing when
      their hardware or build fields differ.

The build goes to .bench_build/perfbench, results and span files to
.bench_out/. Nothing is read or written outside the repository.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["cold", "frontdoor", "ingest_live"]
# Fields that must match before two results may be compared.
HARDWARE_FIELDS = ["nproc", "cpu_model", "compiler", "build_type", "workload",
                   "seconds"]
RUN_TIMEOUT_S = 170
# Per-layer metrics off a workload's path, by name prefix: the layer or the
# operation is not there (no shards outside frontdoor, no feed outside
# ingest_live, frontdoor's searches run inside the shards' executors, ...).
# A traced run prints them as 0; any other missing metric is a benchmark bug.
OFF_PATH = {
    "cold": ("gen.feed_late_", "exec.", "shard.", "ingest."),
    "frontdoor": ("gen.feed_late_", "index.build_s", "core.search_ms",
                  "ingest."),
    "ingest_live": ("index.build_s", "exec.", "shard."),
}
# Compiler and program temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources missing under {ROOT / 'src'}; cannot build")
        sys.exit(2)
    Path(ENV["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            log("cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr, env=ENV).returncode != 0:
        log("build failed")
        sys.exit(2)
    if subprocess.run([str(BUILD_DIR / "percentile_test")],
                      stdout=sys.stderr, env=ENV).returncode != 0:
        log("percentile_test failed")
        sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def load_benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_determinism(result, key):
    """Per-query counts of a seed must repeat across runs of the same code;
    a drift is a benchmark bug, not noise."""
    digest = result["env"].get("determinism_digest")
    if digest is None:
        return
    path = OUT_DIR / "determinism.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if key in seen and seen[key] != digest:
        result["correct"] = False
        result["errors"].append(
            f"benchmark bug: determinism digest {digest} differs from an "
            f"earlier run's {seen[key]} ({key})")
    seen[key] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (full result dict, binary exit code)."""
    cmd = [str(BUILD_DIR / "mst_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S}s")
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload} printed no result (exit {proc.returncode})")
        sys.exit(3)
    result = json.loads(lines[-1])
    src = source_digest()
    result["env"]["git_rev"] = git_rev()
    result["env"]["source_digest"] = src
    check_determinism(result, f"{workload}:{seed}:{src}")
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    return result, proc.returncode


def selected_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def print_run(result, spec, trace):
    """Human-readable metrics with sample counts, then the contract line."""
    env = result["env"]
    print(f"# {env['workload']} seed {env['seed']}: nproc {env['nproc']}, "
          f"{env['cpu_model']}, {env['compiler']} {env.get('build_type')}, "
          f"rev {env['git_rev']}, src {env['source_digest']}, "
          f"segments {env.get('segments')}, index {env.get('index_nodes')} "
          f"nodes / {env.get('index_bytes')} B, node cache "
          f"{env.get('node_cache_capacity_bytes')} B, buffer "
          f"{env.get('buffer_capacity_bytes')} B")
    metrics = {}
    for m in selected_metrics(spec, trace):
        got = result["metrics"].get(m["name"])
        if (got is None and trace and
                m["name"].startswith(OFF_PATH[env["workload"]])):
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got is None or got["unit"] != m["unit"]:
            log(f"benchmark bug: metric {m['name']} missing or mis-united")
            sys.exit(3)
        print(f"{m['name']:34s} {got['value']:16.6f} {m['unit']:8s} "
              f"n={got['samples']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for err in result["errors"]:
        print(f"# ERROR {err}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)


def compare(base_path, new_path):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for field in HARDWARE_FIELDS:
        if base["env"].get(field) != new["env"].get(field):
            log(f"refusing to compare: {field} differs "
                f"({base['env'].get(field)!r} vs {new['env'].get(field)!r})")
            return 2
    bounds = {m["name"]: m for m in load_benchmark_spec()["end_to_end"]}
    worse = 0
    for name, b in sorted(base["metrics"].items()):
        n = new["metrics"].get(name)
        if n is None or b["value"] == 0:
            continue
        change = n["value"] / b["value"] - 1.0
        note = ""
        if name in bounds:
            m = bounds[name]
            regress = -change if m["better"] == "higher" else change
            if regress > m["bound"]:
                note = f"  WORSE than bound {m['bound']}"
                worse += 1
        print(f"{name:34s} {b['value']:14.6g} -> {n['value']:14.6g} "
              f"{b['unit']:6s} {change:+8.2%}{note}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    spec = load_benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    build()
    OUT_DIR.mkdir(exist_ok=True)

    if args.all:
        rows = []
        status = 0
        for workload in WORKLOADS:
            t0 = time.time()
            result, code = run_workload(workload, args.seed, seconds, False)
            print_run(result, spec, False)
            rows.append((workload, result, time.time() - t0))
            status = status or code or (0 if result["correct"] else 1)
        print("\nworkload      " + " ".join(
            f"{m['name']}[{m['unit']}]" for m in spec["end_to_end"]))
        for workload, result, wall in rows:
            cells = []
            for m in spec["end_to_end"]:
                got = result["metrics"][m["name"]]
                cells.append(f"{got['value']:.4g} (n={got['samples']})")
            print(f"{workload:13s} " + "  ".join(cells) +
                  f"  correct={result['correct']} wall={wall:.0f}s")
        return status

    if args.workload is None:
        ap.error("--workload is required (or --all / --compare)")
    result, code = run_workload(args.workload, args.seed, seconds,
                                bool(args.trace))
    print_run(result, spec, bool(args.trace))
    if code != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
