import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsenerve
from sparsenerve.cli import FORMATS, MODES, main
from sparsenerve.model import TranslationFunction
from sparsenerve.nerve import skeleton_size


SRC = str(Path(sparsenerve.__file__).resolve().parent.parent)

# Runs ph on a graph file and prints the process's peak RSS in KiB (Linux).
PEAK_RSS = """
import resource, sys
from sparsenerve.cli import main
argv = ["ph", "--input", sys.argv[1], "--format", "graph", "--mode", "network",
        "--out-diagram", sys.argv[2]]
assert main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# Runs ph on a graph file with the address space capped at 3 GiB, so that an
# allocation beyond it fails at once instead of taking the machine's memory.
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from sparsenerve.cli import main
sys.exit(main(["ph", "--input", sys.argv[1], "--format", "graph", "--mode", "network"]))
"""


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("0 0\n1 0\n1 1\n0 1\n")
    return path


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "cycle.txt"
    edges = [(i, (i + 1) % 6) for i in range(6)]
    path.write_text("".join(f"{u} {v} 1.0\n" for u, v in edges))
    return path


class TestPh:
    def test_points_intrinsic_outputs(self, tmp_path, square_file):
        diagram = tmp_path / "dgm.csv"
        stats = tmp_path / "stats.json"
        plot = tmp_path / "plot.json"
        rc = main(
            [
                "ph",
                "--input", str(square_file),
                "--dim", "1",
                "--out-diagram", str(diagram),
                "--out-stats", str(stats),
                "--out-plot", str(plot),
            ]
        )
        assert rc == 0
        lines = diagram.read_text().strip().splitlines()
        assert all(len(line.split(",")) == 3 for line in lines)
        data = json.loads(stats.read_text())
        assert data["landmarks"] == 4
        assert data["full_skeleton_size"] == skeleton_size(4, 1)
        assert data["nerve_size"] >= 4
        assert data["diagram_points"] == len(lines)
        assert set(data["timings_seconds"]) == {"ingest", "nerve", "persistence"}
        pdata = json.loads(plot.read_text())
        assert len(pdata["points"]) == len(lines)
        assert all("guaranteed" in p for p in pdata["points"])
        assert len(pdata["interleaving_line"]["t"]) == len(
            pdata["interleaving_line"]["alpha_t"]
        )

    def test_six_cycle_h1_class(self, tmp_path, graph_file):
        diagram = tmp_path / "dgm.csv"
        rc = main(
            ["ph", "--input", str(graph_file), "--format", "graph",
             "--mode", "network", "--dim", "1", "--out-diagram", str(diagram)]
        )
        assert rc == 0
        h1 = [l for l in diagram.read_text().splitlines() if l.startswith("1,")]
        assert len(h1) == 1
        _, b, d = h1[0].split(",")
        assert (float(b), float(d)) == (1.0, 2.0)

    def test_matrix_format(self, tmp_path):
        path = tmp_path / "dm.txt"
        path.write_text("0 1 2\n1 0 1\n2 1 0\n")
        rc = main(["ph", "--input", str(path), "--format", "matrix"])
        assert rc == 0

    def test_ambient_mode(self, tmp_path, square_file):
        stats = tmp_path / "stats.json"
        rc = main(
            ["ph", "--input", str(square_file), "--mode", "ambient",
             "--out-stats", str(stats)]
        )
        assert rc == 0
        data = json.loads(stats.read_text())
        assert data["witnesses"] is None

    def test_ambient_plot_marks_nothing_guaranteed(self, tmp_path, square_file):
        # alpha bounds the intrinsic diagram only: there a point is flagged
        # iff death > alpha(birth); in the ambient mode no point is.
        alpha = TranslationFunction.parse("mult:1.5")
        flags = {}
        for mode in ("intrinsic", "ambient"):
            plot = tmp_path / f"{mode}.json"
            rc = main(
                ["ph", "--input", str(square_file), "--mode", mode,
                 "--interleaving", "mult:1.5", "--out-plot", str(plot)]
            )
            assert rc == 0
            pdata = json.loads(plot.read_text())
            assert pdata["points"] and pdata["interleaving_line"]["t"]
            flags[mode] = []
            for p in pdata["points"]:
                death = np.inf if p["death"] is None else p["death"]
                flags[mode].append((p["guaranteed"], death > alpha(p["birth"])))
        assert all(flag == expect for flag, expect in flags["intrinsic"])
        assert any(expect for _, expect in flags["ambient"])
        assert not any(flag for flag, _ in flags["ambient"])

    def test_network_modes(self, tmp_path, graph_file):
        for mode in ("shortest-path", "raw-weight"):
            rc = main(
                ["ph", "--input", str(graph_file), "--format", "graph",
                 "--mode", "network", "--network-mode", mode]
            )
            assert rc == 0

    def test_interleaving_flag(self, tmp_path, square_file):
        rc = main(
            ["ph", "--input", str(square_file), "--interleaving", "poly:0.3,1,0,0.5"]
        )
        assert rc == 0

    def test_determinism(self, tmp_path, square_file):
        out = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main(["ph", "--input", str(square_file), "--out-diagram", str(path)])
            out.append(path.read_text())
        assert out[0] == out[1]

    def test_missing_input_exit_1(self, tmp_path):
        assert main(["ph", "--input", str(tmp_path / "nope.txt")]) == 1

    def test_bad_content_exit_1(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b c\n")
        assert main(["ph", "--input", str(path)]) == 1

    @pytest.mark.parametrize("flags", [[], ["--format", "graph", "--mode", "network"]])
    def test_binary_file_exit_1(self, tmp_path, capsys, flags):
        path = tmp_path / "bin.dat"
        path.write_bytes(bytes(np.random.default_rng(0).integers(0, 256, 200, dtype=np.uint8)))
        assert main(["ph", "--input", str(path), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not a text file")

    @pytest.mark.parametrize("mode", ["intrinsic", "ambient"])
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_out_of_range_cloud_exit_1(self, tmp_path, capsys, mode, scale):
        path = tmp_path / "pts.txt"
        np.savetxt(path, scale * np.random.default_rng(0).normal(size=(30, 2)))
        assert main(["ph", "--input", str(path), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coordinate spread") and "rescale" in err

    def test_huge_node_id_exit_2(self, tmp_path):
        # The node count exceeds the budget before the n x n matrix is built.
        path = tmp_path / "g.txt"
        path.write_text("0 1e300\n")
        assert main(["ph", "--input", str(path), "--format", "graph", "--mode", "network"]) == 2

    def test_out_of_memory_exit_1(self, tmp_path):
        # 800,000 isolated nodes pass the budget check, but their dense
        # shortest-path matrix would take 4.66 TiB.
        path = tmp_path / "g.txt"
        path.write_text("0 799999\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_matrix_beyond_physical_memory_exit_1(self, tmp_path, capsys, monkeypatch):
        # The same 4.66 TiB matrix, refused before scipy is called, with no
        # address-space cap.
        import scipy.sparse.csgraph

        def shortest_path(*args, **kwargs):
            raise AssertionError("scipy called")

        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", shortest_path)
        path = tmp_path / "g.txt"
        path.write_text("0 799999\n")
        assert main(["ph", "--input", str(path), "--format", "graph", "--mode", "network"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a distance matrix on 800000 points needs 4,768.4 GiB;")
        assert err.count("\n") == 1

    def test_isolated_nodes_stay_small(self, tmp_path):
        # Nodes 1..798 have no edge, so they and node 0 are never
        # restricted: 799 landmarks share R = inf.  Emitting each face once
        # per (R, witness) keeps the packed face rows at one per witness;
        # one block per landmark took 273 MiB here.  The peak is the
        # process's own, so the run gets a fresh interpreter.
        path = tmp_path / "g.txt"
        path.write_text("0 799\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, str(path), str(tmp_path / "dgm.csv")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        peak_mib = int(done.stdout.split()[-1]) / 1024
        assert peak_mib < 160

    def test_huge_multiplier_warns_nothing(self, tmp_path, square_file):
        # mult:1e308 overflows to inf, the value alpha takes on the extended
        # half line.
        for mode in ("intrinsic", "ambient"):
            argv = ["ph", "--input", str(square_file), "--mode", mode,
                    "--interleaving", "mult:1e308", "--out-diagram", str(tmp_path / "d.csv")]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0

    def test_mode_format_mismatch_exit_1(self, square_file):
        rc = main(
            ["ph", "--input", str(square_file), "--mode", "network"]
        )
        assert rc == 1

    def test_size_limit_exit_2(self, tmp_path):
        path = tmp_path / "pts.txt"
        rng = np.random.default_rng(0)
        path.write_text(
            "".join(f"{x} {y}\n" for x, y in rng.normal(size=(25, 2)))
        )
        rc = main(
            ["ph", "--input", str(path), "--dim", "5", "--max-simplices", "50"]
        )
        assert rc == 2

    def test_env_override(self, tmp_path, square_file, monkeypatch):
        stats = tmp_path / "stats.json"
        monkeypatch.setenv("SPARSENERVE_INPUT", str(square_file))
        monkeypatch.setenv("SPARSENERVE_OUT_STATS", str(stats))
        assert main(["ph"]) == 0
        assert json.loads(stats.read_text())["landmarks"] == 4

    def test_seed_picks_valid_initial_point(self, square_file):
        assert main(["ph", "--input", str(square_file), "--seed", "11"]) == 0

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("0 1 2\n1 0 1\n2 1 0\n")
        argv = ["ph", "--format", "matrix", "--input", str(path), "--seed", "-3"]
        assert main(argv) == 1
        assert "error: seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, side",
        [pytest.param(s, 1, id=s) for s in ("mult:abc", "add:inf", "mult:nan", "poly:0.3,inf")]
        # The first decreases on (0, 0.24), the second dips below the
        # diagonal on (0, 1): rejected whatever the data's scale.
        + [
            pytest.param(s, 1000, id=f"{s}-side1000")
            for s in ("poly:0.977,-0.355,0.748", "poly:0,0.64,0,0,0.362")
        ],
    )
    def test_bad_interleaving_exit_1(self, tmp_path, capsys, spec, side):
        path = tmp_path / "square.txt"
        path.write_text(f"0 0\n{side} 0\n{side} {side}\n0 {side}\n")
        rc = main(["ph", "--input", str(path), "--interleaving", spec])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("error:") == 1

    @pytest.mark.parametrize("var", ["SPARSENERVE_DIM", "SPARSENERVE_MAX_SIMPLICES"])
    def test_malformed_env_int_exit_1(self, square_file, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "x")
        assert main(["ph", "--input", str(square_file)]) == 1
        assert var in capsys.readouterr().err

    @pytest.mark.parametrize(
        "var", ["SPARSENERVE_MODE", "SPARSENERVE_FORMAT", "SPARSENERVE_NETWORK_MODE"]
    )
    def test_env_choice_outside_choices_exit_1(self, square_file, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "bogus")
        assert main(["ph", "--input", str(square_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and var in err and "bogus" in err

    def test_env_choice_default_and_flag_override(self, square_file, monkeypatch):
        monkeypatch.setenv("SPARSENERVE_MODE", "network")
        assert main(["ph", "--input", str(square_file)]) == 1  # network needs a graph
        assert main(["ph", "--input", str(square_file), "--mode", "intrinsic"]) == 0

    def test_negative_budget_exit_1(self, square_file, capsys):
        for argv in (["ph", "--input", str(square_file)], ["benchmark"]):
            assert main(argv + ["--max-simplices", "-3"]) == 1
            assert "error: simplex budget must be >= 0" in capsys.readouterr().err

    def test_negative_budget_from_env_exit_1(self, square_file, capsys, monkeypatch):
        monkeypatch.setenv("SPARSENERVE_MAX_SIMPLICES", "-3")
        assert main(["ph", "--input", str(square_file)]) == 1
        assert "error: simplex budget must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ph", "--mode", "bogus"],
            ["ph", "--dim", "x"],
            ["ph", "--no-such-flag"],
            ["bogus"],
            [],
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "\nerror: " in err

    def test_env_int_defaults(self, tmp_path, square_file, monkeypatch):
        monkeypatch.setenv("SPARSENERVE_MAX_SIMPLICES", "5")
        assert main(["ph", "--input", str(square_file)]) == 2
        assert main(["ph", "--input", str(square_file), "--max-simplices", "1000"]) == 0


class TestHostileFiles:
    # A small budget keeps every accepted input cheap: at most 500 nodes
    # for a graph's dense matrix, and small nerves for the rest.
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        content=st.one_of(
            st.binary(max_size=200),
            st.text(alphabet="0123456789 \t\n,.-+eEinfa#", max_size=200).map(str.encode),
        )
    )
    def test_any_file_exits_cleanly(self, tmp_path, content):
        path = tmp_path / "input.dat"
        path.write_bytes(content)
        runs = [["--format", f, "--mode", m] for f in FORMATS for m in MODES]
        runs += [["--format", "graph", "--mode", "network", "--network-mode", "raw-weight"]]
        for flags in runs:
            argv = ["ph", "--input", str(path), *flags, "--max-simplices", "500"]
            assert main(argv) in (0, 1, 2)


class TestBenchmark:
    def test_smoke_with_budget(self, capsys):
        # tight budget keeps the identity cells from running long; the
        # mult:3 cells still report real sizes
        rc = main(["benchmark", "--max-simplices", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith(("graph", "-"))]
        assert len(lines) == 21  # 7 graphs x 3 cells
        star = [l for l in lines if l.startswith("star")]
        assert all(" 199 " in l + " " for l in star)
