"""scipy stays out of the process unless graph shortest paths or the
interleaving check need it.

Each check runs in a fresh interpreter: other tests in the session
import scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import sparsenerve

SRC = str(Path(sparsenerve.__file__).resolve().parent.parent)

# scipy is blocked: every import of it raises ImportError.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None

import json
from pathlib import Path

import numpy as np

from sparsenerve import (
    TranslationFunction,
    ambient_cech_nerve,
    compute_persistence,
    distance_matrix,
    full_dowker_nerve,
    sample_clifford_torus,
    sparse_dowker_nerve,
)
from sparsenerve.cli import main

points = sample_clifford_torus(24, 0).points
alpha = TranslationFunction.multiplicative(1.5)
dd = distance_matrix(points)
sparse = sparse_dowker_nerve(dd, alpha, 1).complex
full = full_dowker_nerve(dd.values, 1)
assert len(sparse) <= len(full)
assert compute_persistence(sparse, 1).in_dimension(0)
assert compute_persistence(full, 1).in_dimension(0)
assert compute_persistence(ambient_cech_nerve(points, alpha, 1), 1).in_dimension(0)

tmp = Path(sys.argv[1])
np.savetxt(tmp / "points.txt", points)
np.savetxt(tmp / "matrix.txt", dd.values)
(tmp / "cycle.txt").write_text("".join(f"{i} {(i + 1) % 6} 1.0\\n" for i in range(6)))
runs = {
    "points": ["--input", str(tmp / "points.txt")],
    "matrix": ["--input", str(tmp / "matrix.txt"), "--format", "matrix"],
    "ambient": ["--input", str(tmp / "points.txt"), "--mode", "ambient"],
    "raw-weight": ["--input", str(tmp / "cycle.txt"), "--format", "graph",
                   "--mode", "network", "--network-mode", "raw-weight"],
}
for name, args in runs.items():
    stats, plot = tmp / f"{name}.stats.json", tmp / f"{name}.plot.json"
    argv = ["ph", *args, "--out-stats", str(stats), "--out-plot", str(plot)]
    assert main(argv) == 0, name
    assert json.loads(stats.read_text())["nerve_size"] > 0, name
    assert json.loads(plot.read_text())["points"], name
"""

# scipy is available and loaded on first use.
LAZY_SCIPY = """
import sys

import numpy as np

import sparsenerve.cli
from sparsenerve import (
    PersistenceDiagram,
    TranslationFunction,
    diagram_interleaving_check,
    generate_graph,
    shortest_path_matrix,
)

assert "scipy" not in sys.modules, "importing sparsenerve loaded scipy"

hops = np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
dm = shortest_path_matrix(generate_graph("cycle", nodes=6)).values
assert np.array_equal(dm, np.minimum(hops, 6 - hops)), dm
assert "scipy" in sys.modules

alpha = TranslationFunction.multiplicative(3)
exact = PersistenceDiagram(points=((1, 1.0, 10.0),))
assert diagram_interleaving_check(exact, exact, alpha).passed
near = PersistenceDiagram(points=((1, 2.0, 12.0),))
assert diagram_interleaving_check(exact, near, alpha).passed
far = PersistenceDiagram(points=((1, 4.0, 30.0),))
assert not diagram_interleaving_check(exact, far, alpha).passed
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_pipelines_and_cli_run_without_scipy(tmp_path):
    _run(WITHOUT_SCIPY, tmp_path)


def test_scipy_loads_only_for_shortest_paths_and_the_interleaving_check():
    _run(LAZY_SCIPY)
