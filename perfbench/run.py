"""Benchmark of the robust-recourse package: four workloads, one worker process each.

Run from the repository root:

    python3 perfbench/run.py --workload pareto --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Prints every metric by name and unit, then, as the last stdout line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The full record of a run (provenance, output
fingerprint, failures, spans) goes to ``.perfbench_out/`` under the root.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pareto", "validity", "certify", "queries")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7  # re-check a claim on this seed; do not tune on it
DEFAULT_SECONDS = 25
SETUP_RUNS = 3  # set-up time is the median over this many fresh workers
TIME_LIMIT_S = 170.0  # every worker of one run together
BLAS_THREADS = "1"  # per worker: steadier timings, and never more threads than cores

END_TO_END = (  # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
COUNT_SUFFIXES = ("calls", "interior_calls", "moves", "saturated", "grid_points", "rows", "points")


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in COUNT_SUFFIXES:
        return "count"
    if suffix == "bytes_computed" or suffix == "output_bytes":
        return "bytes"
    if suffix == "overhead_ratio":
        return "ratio"
    return suffix.rsplit("_", 1)[1]  # self_s -> s, p50_us -> us, total_s -> s


def provenance() -> dict:
    """Machine, versions and source state the numbers belong to."""

    src = os.path.join(ROOT, "src")
    src_lines = 0
    for dirpath, _, files in os.walk(src):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def cache_sizes() -> dict:
    """CPU 0's cache sizes by level, as the kernel reports them ({} if unreadable)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                sizes[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    return sizes


def git_sha() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run_worker(args, out_dir: str, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE,
        env=env,
        timeout=max(1.0, deadline - spawned_at),
        check=False,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    """All workers of one run; returns the result object for the last line."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    setups = [
        run_worker(args, os.path.join(out_dir, f"setup{i}"), deadline, True)["setup_s"]
        for i in range(SETUP_RUNS - 1)
    ]
    main = run_worker(args, out_dir, deadline, False)
    setups.append(main["setup_s"])

    correct = all(main["checks"].values())
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in main["layers"].items()}
    else:
        main["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": main[name], "unit": unit} for name, unit, _ in END_TO_END}
    result = {
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    record = dict(main, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_runs_s=setups, provenance=provenance(), result=result)
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print_report(record)
    return result


def print_report(record: dict) -> None:
    res = record["result"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  ops/pass {record['ops_per_pass']}")
    better = {name: b for name, _, b in END_TO_END}
    for name, m in res["metrics"].items():
        direction = f"{better[name]} is better" if name in better else ""
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']:<6} {direction}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<48} {ratio:>16.6g} {'ratio':<6} lower is better "
          f"({res['failed']}/{res['attempted']})")
    for reason in record["failures"][:5]:
        print(f"    failed: {reason}")
    print(f"  checks: {record['checks']}  correct: {res['correct']}")
    for name, digest in sorted(record["fingerprint"].items()):
        print(f"  sha256 {digest[:16]}  {name}")
    prov = record["provenance"]
    caches = " ".join(f"{k} {v}" for k, v in prov["caches"].items() if k in ("L2", "L3"))
    print(f"  nproc {prov['nproc']}  {caches}  "
          f"python {record['versions']['python']}  numpy {record['versions']['numpy']}  "
          f"BLAS threads {prov['blas_threads']}  git {prov['git_sha']}  src lines {prov['src_lines']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "robust_recourse", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
            print(json.dumps(result))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
