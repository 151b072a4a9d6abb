"""SciPy loads only on the paths that use it.

``scipy.optimize`` (HiGHS) and ``scipy.sparse`` (the annealing CSR fast
path) used to load with ``import repro``, so every CLI call and every
service runner paid for them.  These checks are deterministic module
sets in a fresh interpreter, not wall-clock budgets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

_REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def _scipy_modules_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["repro", "repro.service.runner"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}") == []


def test_serve_help_loads_no_scipy():
    code = (
        "import contextlib, io, runpy, sys\n"
        "sys.argv = ['qmkp', 'serve', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
    )
    assert _scipy_modules_after(code) == []


def test_qmkp_solve_through_the_auto_tier_loads_no_scipy():
    """Resolving the compiled tier runs its self-check, SciPy-free."""
    from repro.perf import available_backends

    if "cext" not in available_backends():
        pytest.skip("no C compiler: the auto tier is the NumPy reference")
    code = (
        "import os\n"
        "os.environ.pop('REPRO_KERNEL', None)\n"
        "from repro.core import qmkp\n"
        "from repro.graphs import gnm_random_graph\n"
        "from repro.perf.kernels import resolve\n"
        "assert resolve().name == 'cext', resolve().name\n"
        "qmkp(gnm_random_graph(12, 30, seed=1), 2, rng=3)\n"
    )
    assert _scipy_modules_after(code) == []


def test_cli_qmkp_solve_loads_no_scipy(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("1 2\n1 3\n2 3\n2 4\n3 4\n1 4\n4 5\n5 6\n")
    code = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['qmkp', 'solve', {str(edges)!r}, '-k', '2',"
        " '--solver', 'qmkp']\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "assert 'maximum 2-plex size: 4' in out.getvalue(), out.getvalue()\n"
    )
    assert _scipy_modules_after(code) == []


_QAMKP_CELL = (
    "import os\n"
    "os.environ.pop('REPRO_KERNEL', None)\n"
    "from repro.core import qamkp\n"
    "from repro.datasets.paper_instances import ANNEALING_INSTANCES\n"
    "from repro.perf.kernels import resolve\n"
    "assert resolve().name == 'cext', resolve().name\n"
    "graph = ANNEALING_INSTANCES['D_20_100'].build()\n"
)


@pytest.mark.parametrize(
    "cell",
    [
        "qamkp(graph, 3, penalty=2.0, runtime_us=100.0, solver='qpu', seed=5)",
        "qamkp(graph, 3, penalty=2.0, runtime_us=1e4, solver='sa', seed=5)",
    ],
    ids=["qpu", "sa"],
)
def test_qamkp_cell_through_the_auto_tier_loads_no_scipy(cell):
    """The compiled tier sweeps, refreshes and prices without SciPy, and
    a dense QUBO's embedding never reaches the SciPy-backed router."""
    from repro.perf import available_backends

    if "cext" not in available_backends():
        pytest.skip("no C compiler: the auto tier is the NumPy reference")
    assert _scipy_modules_after(_QAMKP_CELL + cell + "\n") == []


def test_simulated_annealing_takes_the_sparse_path():
    """The NumPy reference tier builds its sweep products with SciPy."""
    code = (
        "import os\n"
        "os.environ['REPRO_KERNEL'] = 'numpy'\n"
        "from repro.core import qamkp\n"
        "from repro.graphs import gnm_random_graph\n"
        "qamkp(gnm_random_graph(8, 16, seed=1), 2, solver='sa', seed=3,"
        " runtime_us=100)\n"
    )
    assert "scipy.sparse" in _scipy_modules_after(code)


def test_highs_path_loads_scipy_optimize():
    code = (
        "from repro.core import build_mkp_qubo\n"
        "from repro.graphs import gnm_random_graph\n"
        "from repro.milp import solve_qubo_milp\n"
        "bqm = build_mkp_qubo(gnm_random_graph(6, 9, seed=2), 2).bqm\n"
        "assert solve_qubo_milp(bqm, backend='highs').backend == 'highs'\n"
    )
    assert "scipy.optimize" in _scipy_modules_after(code)
