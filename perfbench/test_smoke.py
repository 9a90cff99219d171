"""Smoke test of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench
"""

import json

import pytest

import run

run.load_library()

import spans  # noqa: E402
import workloads  # noqa: E402
from sparsenerve import cover, ingest, miniball, model, nerve, persistence, sparsify, truncation  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "torus": workloads.TorusWorkload(
        "torus_small", n=40, cloud_seed=0, interleaving="mult:1.5", d=1
    ),
    "ambient": workloads.TorusWorkload(
        "ambient_small", n=16, cloud_seed=9, interleaving="poly:0.3,1,0,0.5", d=2,
        ambient=True,
    ),
    "graphs": workloads.GraphTableWorkload(
        "graph_small", params={"cycle": dict(nodes=12), "grid": dict(rows=3, cols=4)}
    ),
}


def reference(workload):
    return workloads.reference_of(workload.run(workload.build(0)))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", SMALL)
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    workload = SMALL[name]
    result, lines = run.measure(workload, 3, 0.0, trace, reference(workload))
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate 0 ratio" in lines[0]


def test_traced_self_times_add_up_to_the_operation():
    result, _ = run.measure(SMALL["torus"], 0, 0.0, True, None)
    share = result["metrics"]["trace.self_sum_share"]["value"]
    assert 0.95 <= share <= 1.0 + 1e-9


def _with_extra_point(compute, every):
    """Add a spurious dimension-0 point to every ``every``-th diagram."""
    calls = []

    def wrong(K, max_dim, *args, **kwargs):
        dg = compute(K, max_dim, *args, **kwargs)
        calls.append(K)
        if (len(calls) - 1) % every:
            return dg
        return persistence.PersistenceDiagram(
            points=dg.points + ((0, 0.0, 1e-3),), n_zero_length=dg.n_zero_length
        )

    return wrong


# Without a reference, graph cells are checked by interleaving against their
# family's alpha = id cell, so only the first cell (mult:3) of each family of
# three is made wrong.
@pytest.mark.parametrize(
    "name, seed, with_reference, every",
    [("torus", 0, True, 1), ("ambient", 5, True, 1), ("graphs", 1, False, 3)],
)
def test_injected_wrong_diagram_raises_error_rate(monkeypatch, name, seed, with_reference, every):
    workload = SMALL[name]
    ref = reference(workload) if with_reference else None
    monkeypatch.setattr(
        persistence, "compute_persistence",
        _with_extra_point(persistence.compute_persistence, every),
    )
    result, lines = run.measure(workload, seed, 0.0, False, ref)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "error_rate 1 ratio" in lines[0]


def test_exception_counts_as_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(nerve, "expand_skeleton", broken)
    result, _ = run.measure(SMALL["torus"], 0, 0.0, False, None)
    assert result["failed"] == result["attempted"] >= 1


def _snapshot():
    owners = [cover, ingest, miniball, model, nerve, persistence, sparsify, truncation]
    owners += [
        model.DowkerDissimilarity, model.ParentFunction, model.RestrictionTimes,
        model.TranslationFunction, nerve.FilteredComplex,
    ]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def test_traced_run_leaves_library_attributes_unchanged():
    before = _snapshot()
    run.measure(SMALL["graphs"], 0, 0.0, True, None)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_target_yields_absent_spans_not_a_crash():
    targets = spans.TARGETS + (
        ("nerve", "sparsenerve.nerve", "no_such_function", None),
        ("nerve", "sparsenerve.no_such_module", "anything", None),
    )
    workload = SMALL["torus"]
    tracer = spans.Tracer()
    with spans.traced(tracer, targets) as patched:
        workload.run(workload.build(0))
    names = {s.name for s in tracer.spans}
    assert "cover.cover_matrix" in names and "cover.cover_matrix" in patched
    assert not any("no_such" in n or "anything" in n for n in names | patched)
    assert not hasattr(nerve.cover_matrix, "__wrapped__")


def test_metrics_of_a_missing_target_are_absent_not_zero(monkeypatch):
    targets = tuple(t for t in spans.TARGETS if t[2] != "_reduce_twist")
    monkeypatch.setattr(spans, "TARGETS", targets)
    result, lines = run.measure(SMALL["torus"], 0, 0.0, True, None)
    metrics = result["metrics"]
    assert metrics["persistence.reduce_s"]["value"] is None
    assert "  persistence.reduce_s absent s" in lines
    assert metrics["persistence.boundary_s"]["value"] > 0
    assert metrics["miniball.calls"]["value"] == 0
