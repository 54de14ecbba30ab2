"""
Measuring helpers of the BENCH demos 06, 07 and 08
==================================================

A run is measured in a fresh interpreter at one BLAS thread, with numpy's
huge-page advice off: where transparent huge pages are in ``madvise`` mode,
which arrays get 2 MiB pages depends on the host's free memory, and with
the advice on a repro's peak RSS moved by up to 35 MiB between runs.  A
``--source NAME=SRC`` child imports ``coldgraph`` from ``SRC`` (an older
checkout's ``src``, say), so nothing here imports ``coldgraph`` at module
level: :func:`scaled_graph`, which runs in a child, imports it inside.
Results go into ``--out`` under ``NAME``, next to the sources already
recorded there.

Two or more sources are compared in alternating rounds
(:func:`alternating_rounds`): a round runs every source once, each in a
fresh process, and the order of the sources turns round every other
round, so a drift of the host's speed slower than a round cancels in a
ratio taken within one round.
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


def alternating_rounds(script, sources: dict, rounds: int, *args) -> dict:
    """Per source name, the results of ``rounds`` children that run
    ``script`` with ``args`` on that source; each round runs every source
    once, in the order of ``sources`` or, every other round, its reverse."""
    names = list(sources)
    results = {name: [] for name in names}
    for i in range(rounds):
        for name in names if i % 2 == 0 else names[::-1]:
            results[name].append(run_child(script, sources[name], *args))
    return results


def scaled_graph(scale: int):
    """The graph of the default generator config with its sellers, products
    and communities scaled together by ``scale``, so the edges grow in step."""
    import dataclasses

    import coldgraph as cg
    from coldgraph.simulate import GeneratorConfig

    base = GeneratorConfig()
    return cg.generate_synthetic_graph(dataclasses.replace(
        base, n_sellers=scale * base.n_sellers, n_products=scale * base.n_products,
        n_communities=scale * base.n_communities))


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
