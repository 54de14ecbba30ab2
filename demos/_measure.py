"""
Measuring helpers of the BENCH demos 06, 07 and 08
==================================================

A run is measured in a fresh interpreter at one BLAS thread, with numpy's
huge-page advice off: where transparent huge pages are in ``madvise`` mode,
which arrays get 2 MiB pages depends on the host's free memory, and with
the advice on a repro's peak RSS moved by up to 35 MiB between runs.  A
``--source NAME=SRC`` child imports ``coldgraph`` from ``SRC`` (an older
checkout's ``src``, say), so nothing here imports ``coldgraph``; results go
into ``--out`` under ``NAME``, next to the sources already recorded there.
"""

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = {**{v: "1" for v in BLAS_VARS}, "NUMPY_MADVISE_HUGEPAGE": "0"}


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "numpy_hugepage_advice": False,
    }


def run_child(script, src, *args) -> dict:
    """``script`` with ``args`` in a fresh interpreter that imports
    ``coldgraph`` from ``src``; its last stdout line, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(src), **CHILD_ENV)
    out = subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def traced_peak_mib(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, in MiB above the memory
    traced when the call starts."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def parse_sources(specs: list) -> dict:
    """``--source NAME=SRC`` values as ``{NAME: SRC}``, each ``SRC``
    resolved; this checkout's ``src`` when there is none."""
    return ({name: Path(src).resolve() for name, src in (s.split("=", 1) for s in specs)}
            or {"src": ROOT / "src"})


def read_doc(out) -> dict:
    """The document already at ``out`` (empty if none), with this host's
    ``machine`` block."""
    doc = json.loads(out.read_text()) if out and out.exists() else {}
    doc["machine"] = machine_block()
    return doc


def write_doc(out, doc: dict) -> None:
    if out:
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
