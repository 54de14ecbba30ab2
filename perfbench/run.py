"""Run one coldgraph benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The workloads are ``train``, ``serve`` and ``repro`` (see workloads.py);
``all`` runs the three one after another, each in its own process so that
each reports its own peak RSS.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.

Exit status: 0 when every correctness check passed, 1 when one failed
(the result line is still printed), 2 when the repository's sources or
configs are not found (no result line).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train", "serve", "repro")
BLAS_THREADS = 1  # at most nproc; one thread keeps timings steady on a shared host
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_ROOT = Path(".perfbench_out")
# glibc mallopt: M_TRIM_THRESHOLD 1 GiB, M_MMAP_THRESHOLD 32 MiB (its maximum).
MALLOC_OPTIONS = ((-1, 1 << 30), (-3, 32 << 20))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def keep_freed_memory() -> str:
    """Have malloc keep freed memory in the process instead of unmapping it.

    Every request and batch allocates arrays of several MiB; by default
    glibc maps and unmaps each, and the page faults that follow cost a
    virtual machine a time that swings with the host's load.  Returns how
    the allocator is set, for the machine block.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return "default"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if all(mallopt(option, value) == 1 for option, value in MALLOC_OPTIONS):
        return "glibc trim_threshold=1GiB mmap_threshold=32MiB"
    return "default"


def machine_block(seed: int, config_hash: str, allocator: str = "default") -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "allocator": allocator,
        "seed": seed,
        "config_sha256": config_hash,
    }


def _finite_or_none(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def report_lines(result, machine: dict) -> list:
    import workloads

    lines = [f"perfbench workload={result.workload}",
             "machine " + json.dumps(machine, sort_keys=True),
             "notes " + json.dumps(result.notes, sort_keys=True)]
    for name, ok, detail in result.checks:
        lines.append(f"check  {'ok  ' if ok else 'FAIL'}  {name}  {detail}")
    for name, (value, unit) in result.metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")
    e2e = result.end_to_end
    for alias, name, scale, unit in workloads.ALIASES[result.workload]:
        lines.append(f"as     {alias} {e2e[name] * scale:.6g} {unit}")
    share = result.failed / result.attempted
    lines.append(f"as     failed_share {share:.6g} ratio "
                 f"({result.failed} of {result.attempted} operations)")
    return lines


def run_one(args, root: Path) -> int:
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    allocator = keep_freed_memory()
    sys.path.insert(0, str(root / "src"))
    import coldgraph
    import workloads

    if Path(coldgraph.__file__).resolve().parent != (root / "src" / "coldgraph").resolve():
        print(f"perfbench: imported coldgraph from {coldgraph.__file__}", file=sys.stderr)
        return 2
    out_dir = OUT_ROOT / f"{args.workload}-s{args.seed}"
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           root / "configs", out_dir)
    machine = machine_block(args.seed, result.config_hash, allocator)
    lines = report_lines(result, machine)
    (out_dir / "result.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": _finite_or_none(v), "unit": u}
                    for k, (v, u) in result.metrics.items()},
    }), flush=True)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Each workload in its own process; the result merges their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            part = json.loads(out[-1])
        except json.JSONDecodeError:
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return max(status, 2)
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    needed = [root / "src" / "coldgraph" / "__init__.py",
              root / "configs" / "default.json", root / "configs" / "small.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
