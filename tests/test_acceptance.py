"""Acceptance checks, one per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from sparsenerve.cli import main
from sparsenerve.cover import cover_matrix
from sparsenerve.ingest import (
    distance_matrix,
    generate_graph,
    sample_clifford_torus,
    shortest_path_matrix,
    write_point_cloud,
)
from sparsenerve.model import DowkerDissimilarity, TranslationFunction
from sparsenerve.nerve import (
    ambient_cech_nerve,
    full_ambient_cech,
    full_dowker_nerve,
    filtration_values,
    skeleton_size,
    sparse_dowker_nerve,
)
from sparsenerve.persistence import compute_persistence, diagram_interleaving_check
from sparsenerve.truncation import truncation_result

from conftest import random_dissimilarity, values_of

GRAPH_PARAMS = {
    "cycle": dict(nodes=100),
    "star": dict(nodes=100),
    "wheel": dict(nodes=100),
    "ladder": dict(rungs=50),
    "circular_ladder": dict(rungs=50),
    "grid": dict(rows=10, cols=10),
    "complete_multipartite": dict(groups=5, group_size=20),
}

ID = TranslationFunction.identity()
MULT3 = TranslationFunction.multiplicative(3)


def graph_metric(kind):
    return shortest_path_matrix(generate_graph(kind, **GRAPH_PARAMS[kind]))


def nerve_size(kind, alpha, d):
    return len(sparse_dowker_nerve(graph_metric(kind), alpha, d).complex)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_01_exact_graph_sizes(self):
        cells = [
            ("star", MULT3, 1),
            ("star", ID, 1),
            ("star", MULT3, 10),
            ("wheel", MULT3, 1),
        ]
        sizes = []
        ok = True
        for kind, alpha, d in cells:
            start = time.perf_counter()
            size = nerve_size(kind, alpha, d)
            elapsed = time.perf_counter() - start
            sizes.append(size)
            ok = ok and size == 199 and elapsed < 10.0
        report(1, ok, f"star/wheel sizes {sizes}, expected 199 each")

    def test_criterion_02_skeleton_counts(self):
        s1 = skeleton_size(100, 1)
        s10 = skeleton_size(100, 10)
        ok = s1 == 166750 and abs(s10 - 1.2e15) <= 0.05 * 1.2e15
        report(2, ok, f"full skeleton d=1: {s1} (expect 166750), d=10: {s10:.3e} (expect ~1.2e15)")

    def test_criterion_03_heuristic_sensitive_sizes(self):
        targets = {
            "cycle": 297,
            "circular_ladder": 324,
            "ladder": 316,
            "grid": 484,
        }
        start = time.perf_counter()
        parts = []
        ok = True
        for kind, ref in targets.items():
            size = nerve_size(kind, MULT3, 1)
            dev = (size - ref) / ref
            parts.append(f"{kind} {size} vs {ref} ({dev:+.1%})")
            ok = ok and abs(dev) <= 0.15
        multi = nerve_size("complete_multipartite", MULT3, 1)
        parts.append(f"multipartite {multi} vs 199 (exact)")
        ok = ok and multi == 199
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 60.0
        report(3, ok, "; ".join(parts) + f"; {elapsed:.1f}s")

    def test_criterion_04_identity_exactness(self):
        rng = np.random.default_rng(41)
        start = time.perf_counter()
        failures = 0
        for _ in range(200):
            lam = random_dissimilarity(rng)
            sparse = compute_persistence(
                sparse_dowker_nerve(DowkerDissimilarity(lam), ID, 2).complex, 2
            )
            full = compute_persistence(full_dowker_nerve(lam, 2), 2)
            if sparse.points != full.points:
                failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 120.0
        report(4, ok, f"identity exactness {200 - failures}/200 in {elapsed:.1f}s")

    def test_criterion_05_interleaving(self):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        failures = 0
        for _ in range(100):
            lam = random_dissimilarity(rng)
            approx = compute_persistence(
                sparse_dowker_nerve(DowkerDissimilarity(lam), MULT3, 2).complex, 2
            )
            exact = compute_persistence(full_dowker_nerve(lam, 2), 2)
            if not diagram_interleaving_check(exact, approx, MULT3).passed:
                failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 120.0
        report(5, ok, f"interleaving {100 - failures}/100 in {elapsed:.1f}s")

    def test_criterion_06_sandwich_invariant(self):
        rng = np.random.default_rng(43)
        ok = True
        for _ in range(100):
            lam = random_dissimilarity(rng)
            gamma = truncation_result(DowkerDissimilarity(lam), MULT3).gamma.values
            ok = ok and np.all(lam <= gamma) and np.all(gamma <= MULT3(lam))
            ok = ok and np.array_equal(
                truncation_result(DowkerDissimilarity(lam), ID).gamma.values, lam
            )
        for kind in GRAPH_PARAMS:
            dd = graph_metric(kind)
            gamma = truncation_result(dd, MULT3).gamma.values
            ok = ok and np.all(dd.values <= gamma)
            ok = ok and np.all(gamma <= MULT3(dd.values))
            ok = ok and np.array_equal(truncation_result(dd, ID).gamma.values, dd.values)
        report(6, ok, "Lambda <= Gamma <= alpha(Lambda) on 100 random + 7 graphs; Gamma = Lambda at id")

    def test_criterion_07_ambient_sandwich(self):
        rng = np.random.default_rng(44)
        start = time.perf_counter()
        failures = 0
        for _ in range(50):
            X = rng.normal(size=(int(rng.integers(2, 7)), 2))
            K = ambient_cech_nerve(X, ID, 1)
            dm = distance_matrix(X).values
            intrinsic = filtration_values(dm, [np.array([s]) for s in K.simplices])
            good = np.all(K.values <= intrinsic + 1e-9)
            full = values_of(full_ambient_cech(X, 1))
            for s, v in values_of(K).items():
                good = good and s in full and abs(full[s] - v) <= 1e-9
            if not good:
                failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 60.0
        report(7, ok, f"ambient sandwich {50 - failures}/50 clouds in {elapsed:.1f}s")

    def test_criterion_08_cover_matrix_timing(self):
        rng = np.random.default_rng(45)
        small = rng.uniform(0, 10, size=(300, 300))
        big = rng.uniform(0, 10, size=(600, 300))

        def timed(lam):
            start = time.perf_counter()
            cover_matrix(lam)
            return time.perf_counter() - start

        # Interleaved pairs see the same host load; the median ratio over
        # seven of them does not hang on one noisy sample.
        pairs = [(timed(small), timed(big)) for _ in range(7)]
        t_small = float(np.median([s for s, _ in pairs]))
        ratio = float(np.median([b / s for s, b in pairs]))
        ok = t_small < 5.0 and ratio <= 5.0
        report(8, ok, f"cover 300x300 {t_small:.3f}s, doubling |L| ratio {ratio:.2f}x (limit 5x)")

    def test_criterion_09_torus_workflow(self, tmp_path):
        cloud = sample_clifford_torus(100, seed=9)
        points_file = tmp_path / "torus.txt"
        write_point_cloud(points_file, cloud)
        diagram = tmp_path / "dgm.csv"
        plot = tmp_path / "plot.json"
        rc = main(
            [
                "ph",
                "--input", str(points_file),
                "--mode", "ambient",
                "--interleaving", "poly:0.3,1,0,0.5",
                "--dim", "2",
                "--out-diagram", str(diagram),
                "--out-plot", str(plot),
            ]
        )
        ok = rc == 0 and diagram.exists() and plot.exists()
        alpha = TranslationFunction.parse("poly:0.3,1,0,0.5")
        empty = {"points": [], "interleaving_line": {"t": [], "alpha_t": []}}
        pdata = json.loads(plot.read_text()) if ok else empty
        # alpha is no bound in the ambient mode (tests/test_nerve.py keeps
        # counterexamples), so no point may be flagged guaranteed; the plot
        # still carries the sampled line alpha.
        n_guaranteed = sum(p["guaranteed"] for p in pdata["points"])
        line = pdata["interleaving_line"]
        ok = ok and n_guaranteed == 0 and len(pdata["points"]) > 0
        ok = ok and np.array_equal(alpha(np.array(line["t"])), line["alpha_t"])
        report(
            9,
            ok,
            f"torus workflow: {len(pdata['points'])} diagram points, "
            f"{n_guaranteed} guaranteed (ambient mode), line alpha written",
        )

    def test_criterion_10_external_datasets_not_reproduced(self):
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        ok = "external" in text.lower() and "not" in text.lower()
        report(10, ok, "README states external real-world datasets are out of scope")
