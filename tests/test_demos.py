"""Each demo script runs to completion as its own process.

``05_scaling.py`` is a long timing run and is left out;
``06_bulk_scoring.py`` runs its short default (the two 1x runs),
``07_train_memory.py`` its quick one (``edge_gnn``, ``rgcn_expanded`` and
``sign`` on the small config) and ``08_request_cost.py`` its quick one
(one round of the 1x requests and the 1x hub request).  The BENCH demos'
shared child runner, ``demos/_measure.py``, is checked on its own.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4678]_*.py"))


def test_demo_set_is_complete():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_measure_child_runs_at_one_blas_thread_without_hugepage_advice(tmp_path):
    spec = importlib.util.spec_from_file_location("_measure", ROOT / "demos" / "_measure.py")
    measure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measure)
    script = tmp_path / "env.py"
    script.write_text("import json, os\nprint('ready')\nprint(json.dumps(dict(os.environ)))\n")
    src = tmp_path / "src"
    env = measure.run_child(script, src)
    assert [env[v] for v in measure.BLAS_VARS] == ["1", "1", "1"]
    assert env["NUMPY_MADVISE_HUGEPAGE"] == "0"
    assert env["PYTHONPATH"] == str(src)
