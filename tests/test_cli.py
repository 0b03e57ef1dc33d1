import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chanfactor.channel import rbsc
from chanfactor.cli import build_parser, main
from chanfactor.qfactor import advantage_grid, qfactorization_from_json, verify_qfactorization


@pytest.fixture()
def rbsc_file(tmp_path):
    path = tmp_path / "rbsc.json"
    path.write_text(json.dumps(rbsc(0.3).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorize:
    def test_rbsc_report(self, capsys, rbsc_file):
        code, out, _ = run(capsys, "factorize", rbsc_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["partition"] == [["0", "2"], ["1", "3"]]
        assert doc["cardinality"] == 2
        assert doc["reduced_channel"]["rows"] == [[0.7, 0.3], [0.3, 0.7]]

    def test_single_input_channel(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"inputs": ["a"], "outputs": ["0", "1"], "rows": [[0.4, 0.6]]}))
        code, out, _ = run(capsys, "factorize", str(path))
        assert code == 0
        assert json.loads(out)["partition"] == [["a"]]

    def test_planted_class_count(self, capsys, tmp_path):
        rng = np.random.default_rng(311)
        base = rng.dirichlet(np.ones(3), size=4)
        rows = base[[0, 1, 2, 3, 0, 1, 2, 3]]
        doc = {
            "inputs": [f"x{i}" for i in range(8)],
            "outputs": ["a", "b", "c"],
            "rows": rows.tolist(),
        }
        path = tmp_path / "planted.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "factorize", str(path))
        assert code == 0
        assert json.loads(out)["cardinality"] == 4

    def test_entropies_with_distribution(self, capsys, rbsc_file, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([0.2, 0.3, 0.2, 0.3]))
        code, out, _ = run(capsys, "factorize", rbsc_file, "--dist", str(dist))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["entropy_z"] - (-(0.4 * math.log2(0.4) + 0.6 * math.log2(0.6)))) <= 1e-12
        assert doc["entropy_x"] > doc["entropy_z"]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "factorize", str(bad))
        assert code == 3
        assert "parse error" in err

    def test_deeply_nested_document_exit_code(self, capsys, tmp_path):
        # The JSON decoder's RecursionError used to escape as a traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "factorize", str(path))
        assert code == 3
        assert "parse error" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run(capsys, "factorize", "/nonexistent/chan.json")
        assert code == 3

    def test_unhashable_label_exit_code(self, capsys, tmp_path):
        # A dict label used to escape set() as a TypeError traceback.
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"inputs": [{"a": 1}, "b"], "outputs": ["0"], "rows": [[1.0], [1.0]]}))
        code, out, err = run(capsys, "factorize", str(path))
        assert code == 2 and out == ""
        assert "validation error" in err

    def test_probabilities_object_distribution(self, capsys, rbsc_file, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"probabilities": [0.2, 0.3, 0.2, 0.3]}))
        _, by_object, _ = run(capsys, "factorize", rbsc_file, "--dist", str(dist))
        dist.write_text(json.dumps([0.2, 0.3, 0.2, 0.3]))
        _, by_array, _ = run(capsys, "factorize", rbsc_file, "--dist", str(dist))
        assert json.loads(by_object)["entropy_z"] == json.loads(by_array)["entropy_z"]
        dist.write_text(json.dumps({"probs": [0.2, 0.3, 0.2, 0.3]}))
        code, _, _ = run(capsys, "factorize", rbsc_file, "--dist", str(dist))
        assert code == 3

    def test_invalid_channel_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "rows.json"
        bad.write_text(json.dumps({"inputs": ["a"], "outputs": ["0", "1"], "rows": [[0.9, 0.9]]}))
        code, _, err = run(capsys, "factorize", str(bad))
        assert code == 2
        assert "validation error" in err


class TestQFactorize:
    def test_report_and_round_trip(self, capsys, rbsc_file):
        code, out, _ = run(capsys, "qfactorize", rbsc_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verified"] is True
        assert doc["report"]["cardinality"] == 2
        assert abs(doc["report"]["entropy_z"] - 1.0) <= 1e-12
        assert doc["report"]["advantage"] > 0.7
        for pair in doc["report"]["fidelity_pairs"]:
            assert pair["saturated"] is True
        c = rbsc(0.3)
        q = qfactorization_from_json(doc["qfactorization"], c)
        assert verify_qfactorization(c, q, 1e-12)

    def test_deterministic_channel_zero_advantage(self, capsys, tmp_path):
        path = tmp_path / "det.json"
        path.write_text(
            json.dumps({
                "inputs": ["a", "b", "c"],
                "outputs": ["0", "1"],
                "rows": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
            })
        )
        code, out, _ = run(capsys, "qfactorize", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["report"]["advantage"]) <= 1e-9

    def test_half_noise_gives_full_advantage(self, capsys, tmp_path):
        # p = 0.5 with the fixed two-class split: classes coincide, S = 0
        path = tmp_path / "half.json"
        path.write_text(json.dumps(rbsc(0.5).to_json()))
        code, out, _ = run(capsys, "qfactorize", str(path))
        doc = json.loads(out)
        # at p = 0.5 all four rows agree, so the causal reduction is a single class
        assert doc["report"]["cardinality"] == 1
        assert abs(doc["report"]["advantage"]) <= 1e-9

    def test_nan_channel_exit_code(self, capsys, tmp_path):
        # NaN slipped past every min/max check and came out "verified".
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps({"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[math.nan, 0.5], [0.5, 0.5]]})
        )
        code, out, err = run(capsys, "qfactorize", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_nan_distribution_exit_code(self, capsys, rbsc_file, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([math.nan, 0.5, 0.25, 0.25]))
        code, out, _ = run(capsys, "qfactorize", rbsc_file, "--dist", str(dist))
        assert code == 2 and out == ""

    def test_tol_sets_fidelity_saturation(self, capsys, tmp_path):
        # sqrt(p)**2 == p for every entry, so the factorization verifies at
        # any tol, while F_Q and F_C of the pair differ by 2.2e-16 round-off.
        path = tmp_path / "roundoff.json"
        path.write_text(
            json.dumps({"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[0.69, 1 - 0.69], [0.46, 1 - 0.46]]})
        )
        saturated = {}
        for tol in ("1e-16", "1e-9"):
            code, out, _ = run(capsys, "qfactorize", str(path), "--tol", tol)
            assert code == 0
            (pair,) = json.loads(out)["report"]["fidelity_pairs"]
            assert pair["slack"] != 0.0
            saturated[tol] = pair["saturated"]
        assert saturated == {"1e-16": False, "1e-9": True}

    def test_round_off_row_sum_verifies(self, capsys, tmp_path):
        # The first row's sum is inside SUM_TOL, but the norm of its square
        # roots was beyond STATE_TOL, so qfactorize exited 2 where factorize
        # exits 0.
        path = tmp_path / "sum.json"
        path.write_text(
            json.dumps({"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[0.5000000006, 0.5], [0.2, 0.8]]})
        )
        code, out, err = run(capsys, "qfactorize", str(path))
        assert code == 0, err
        assert json.loads(out)["report"]["verified"] is True

    def test_output_file(self, capsys, rbsc_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "qfactorize", rbsc_file, "--out", str(out_path))
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["report"]["verified"] is True


class TestHeatmap:
    def test_grid_properties(self):
        ps = np.linspace(0, 1, 21)
        alphas = np.linspace(0, 1, 21)
        grid = advantage_grid(ps, alphas)
        assert grid.min() >= -1e-9
        assert np.abs(grid[0, :]).max() <= 1e-9      # p = 0 edge
        assert np.abs(grid[-1, :]).max() <= 1e-9     # p = 1 edge
        assert np.abs(grid[:, 0]).max() <= 1e-9      # alpha = 0 edge
        assert np.abs(grid[:, -1]).max() <= 1e-9     # alpha = 1 edge
        assert abs(grid[10, 10] - 1.0) <= 1e-9       # p = alpha = 1/2
        assert abs(grid.max() - 1.0) <= 1e-9

    def test_symmetries(self):
        ps = np.linspace(0, 1, 11)
        alphas = np.linspace(0, 1, 11)
        grid = advantage_grid(ps, alphas)
        assert np.abs(grid - grid[::-1, :]).max() <= 1e-12
        assert np.abs(grid - grid[:, ::-1]).max() <= 1e-12

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "heatmap", "--points", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,alpha,advantage"
        assert len(lines) == 1 + 25
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "0.0"

    def test_alpha_points_override(self, capsys):
        code, out, _ = run(capsys, "heatmap", "--points", "3", "--alpha-points", "4")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 12

    def test_rejects_tiny_grid(self, capsys):
        code, _, _ = run(capsys, "heatmap", "--points", "1")
        assert code == 2

    def test_rejects_zero_alpha_points(self, capsys):
        # 0 used to fall back to --points.
        code, out, _ = run(capsys, "heatmap", "--points", "2", "--alpha-points", "0")
        assert code == 2 and out == ""


class TestPhaseScan:
    def write_spec(self, tmp_path, weights, a, b):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"weights": weights, "a": a, "b": b}))
        return str(path)

    def test_two_state_scan_passes(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [0.5, 0.5], [0.8, 0.6], [0.6, 0.8])
        code, out, _ = run(capsys, "phase-scan", spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["grid_resolution"] == 360
        assert doc["phases"] == [0.0, 0.0]
        assert doc["entropy"] <= doc["grid_min_entropy"] + 1e-9

    def test_three_state_scan_passes(self, capsys, tmp_path):
        rng = np.random.default_rng(313)
        a = np.sqrt(rng.uniform(0.1, 0.9, size=3))
        b = np.sqrt(1 - a**2)
        spec = self.write_spec(tmp_path, [0.3, 0.3, 0.4], a.tolist(), b.tolist())
        code, out, _ = run(capsys, "phase-scan", spec)
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert doc["grid_resolution"] == 72

    def test_single_state_trivial(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [1.0], [0.6], [0.8])
        code, out, _ = run(capsys, "phase-scan", spec)
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert abs(doc["entropy"]) <= 1e-12

    def test_five_state_sign_enumeration(self, capsys, tmp_path):
        rng = np.random.default_rng(317)
        a = np.sqrt(rng.uniform(0.1, 0.9, size=5))
        b = np.sqrt(1 - a**2)
        spec = self.write_spec(tmp_path, [0.2] * 5, a.tolist(), b.tolist())
        code, out, _ = run(capsys, "phase-scan", spec)
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True
        assert doc["grid_resolution"] == 2

    def test_degenerate_magnitudes_exit_code(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [0.5, 0.5], [1.0, 0.6], [0.0, 0.8])
        code, _, err = run(capsys, "phase-scan", spec)
        assert code == 2

    def test_non_finite_result_exit_code(self, capsys, tmp_path):
        # A NaN weight must fail validation rather than reach the report
        # as a non-standard NaN token.
        spec = tmp_path / "nan.json"
        spec.write_text(json.dumps({"weights": [math.nan, 0.5], "a": [0.6, 0.8], "b": [0.8, 0.6]}))
        code, out, err = run(capsys, "phase-scan", str(spec))
        assert code == 2
        assert out == ""
        assert "validation error" in err

    def test_rejects_zero_points(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [0.5, 0.5], [0.8, 0.6], [0.6, 0.8])
        code, out, _ = run(capsys, "phase-scan", spec, "--points", "0")
        assert code == 2 and out == ""

    def test_rejects_points_beyond_three_states(self, capsys, tmp_path):
        # The sign-pattern scan has no grid, so --points used to be ignored.
        rng = np.random.default_rng(331)
        a = np.sqrt(rng.uniform(0.1, 0.9, size=4))
        spec = self.write_spec(tmp_path, [0.25] * 4, a.tolist(), np.sqrt(1 - a**2).tolist())
        for points in ("0", "72"):
            code, out, err = run(capsys, "phase-scan", spec, "--points", points)
            assert code == 2 and out == ""
            assert "validation error" in err and "--points" in err
        code, _, _ = run(capsys, "phase-scan", spec)
        assert code == 0

    def test_malformed_spec_exit_code(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"weights": [1.0]}))
        code, _, _ = run(capsys, "phase-scan", str(path))
        assert code == 3


class TestCasestudyCommand:
    def test_csv_shape_and_endpoints(self, capsys):
        code, out, err = run(capsys, "casestudy", "--points", "11")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,entropy_rho_t,purity_rho_t,entropy_rho_At"
        assert len(lines) == 12
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[0] == -0.5 and last[0] == 1.0
        h_quarter = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert abs(first[1] - h_quarter) <= 1e-9
        assert abs(first[2] - 0.625) <= 1e-9
        assert abs(last[1] - 1.0) <= 1e-9
        assert "global minimum: t = -0.5" in err

    def test_default_points(self, capsys):
        code, out, _ = run(capsys, "casestudy")
        assert code == 0
        assert len(out.strip().split("\n")) == 152

    def test_rejects_zero_points(self, capsys):
        # 0 used to fall back to the default of 151.
        code, out, _ = run(capsys, "casestudy", "--points", "0")
        assert code == 2 and out == ""


class TestMergeDemo:
    def test_reports_worked_values(self, capsys):
        code, out, _ = run(capsys, "merge-demo")
        assert code == 0
        doc = json.loads(out)
        pure = doc["pure_states"]
        assert abs(pure["entropy"] - 0.9595) <= 5e-4
        assert abs(pure["merge"]["B->C"] - 0.6009) <= 5e-4
        assert abs(pure["merge"]["C->B"] - 1.0) <= 5e-4
        assert pure["min_direction"] == "B->C"
        mixed = doc["mixed_states"]
        assert abs(mixed["entropy"] - (math.log2(3) - 2 / 3)) <= 1e-9
        assert abs(mixed["merge"]["mixed2->pure"] - (math.log2(6) - 5 / 6 * math.log2(5))) <= 1e-9
        assert abs(mixed["merge"]["pure->mixed2"] - 1.0) <= 1e-9


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, rbsc_file, tmp_path):
        for argv in (
            ["factorize", rbsc_file],
            ["qfactorize", rbsc_file],
            ["heatmap", "--points", "7"],
            ["casestudy", "--points", "9"],
            ["merge-demo"],
        ):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2

    def test_golden_digests(self, capsys, tmp_path, monkeypatch):
        # sha256 of (stdout, stderr) at fixed small sizes. The JSON digests
        # were taken before --seed was removed, with config.seed (and
        # config.tol for merge-demo) deleted from the document. The 6-state
        # phase-scan and the 5x4 heatmap digests were taken from the per-state
        # loops, before the sweeps were batched.
        monkeypatch.chdir(tmp_path)
        Path("rbsc.json").write_text(json.dumps(rbsc(0.3).to_json()))
        Path("ens3.json").write_text(
            json.dumps({"weights": [0.3, 0.3, 0.4], "a": [0.6, 0.8, 0.96], "b": [0.8, 0.6, 0.28]})
        )
        Path("ens6.json").write_text(
            json.dumps({
                "weights": [0.1, 0.15, 0.2, 0.25, 0.2, 0.1],
                "a": [0.6, 0.8, 0.96, 0.28, 5 / 13, 8 / 17],
                "b": [0.8, 0.6, 0.28, 0.96, 12 / 13, 15 / 17],
            })
        )
        for argv, digests in GOLDEN.items():
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert (sha256(out), sha256(err)) == digests, argv


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = sha256("")
GOLDEN = {
    ("heatmap", "--points", "7"): (
        "1d22e477f2f62626361c6082164644e3212c891644702ff31b67bee933d463f4", EMPTY),
    ("heatmap", "--points", "5", "--alpha-points", "4"): (
        "45a35e12f0fe09bedd4a191fecd950be7a00cf7c320c29c8a0dd5f45509dc4ec", EMPTY),
    ("casestudy", "--points", "9"): (
        "f605a70ebee9bf420f1d049bd090bfe6c5f6bfdb8d62a4e7a00620e5a3c529e8",
        "4fdd5d1cd1c3d1ce43c61bef4c630a8b1e492c20414768a8a5a5fef5e382e0ae"),
    ("merge-demo",): (
        "afc6ef36ee9f05051b475cc6d139760df20db785e2f20c60ce8bfc585511b748", EMPTY),
    ("phase-scan", "ens3.json"): (
        "d138c58414ec09c302bdb91f38b7dd56c024325260dd30042d0cf5cd82848901", EMPTY),
    ("phase-scan", "ens6.json"): (
        "e628e14d9b53acbf9a15fdbf7fad979dcd1d61db34c45b41df45d36793252ffd", EMPTY),
    ("factorize", "rbsc.json"): (
        "5e3fa8130a41b1ab3b25be147523fbac3e1042166c5d79e416b1b970f8ce2804", EMPTY),
    ("qfactorize", "rbsc.json"): (
        "1222676fda11c87fa2325a8c5e790e06436e8ccc25abe4a0dba60163ffcf3976", EMPTY),
}


class TestOptions:
    def test_each_command_has_only_its_options(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {s for a in p._actions for s in a.option_strings if s != "-h" and s != "--help"}
            for name, p in sub.choices.items()
        }
        assert options == {
            "factorize": {"--out", "--dist", "--tol"},
            "qfactorize": {"--out", "--dist", "--tol"},
            "heatmap": {"--out", "--points", "--alpha-points"},
            "phase-scan": {"--out", "--points"},
            "casestudy": {"--out", "--points"},
            "merge-demo": {"--out"},
        }

    def test_removed_seed_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["merge-demo", "--seed", "1"])
        assert exc.value.code == 2


def _refuse_constant(token):
    raise AssertionError(f"non-standard JSON constant {token} in a report")


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]),
    st.sampled_from(["a", "b", "0.5"]),
)
_labels = st.one_of(_scalars, st.lists(_scalars, max_size=2), st.dictionaries(st.sampled_from("ab"), _scalars))
_rows = st.lists(st.one_of(st.lists(_scalars, max_size=3), _scalars), max_size=3)
_documents = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "inputs": st.one_of(st.lists(_labels, max_size=3), _scalars),
            "outputs": st.one_of(st.lists(_labels, max_size=3), _scalars),
            "rows": st.one_of(_rows, _scalars),
        },
    ),
    # Mostly well-formed channels: two or three labels, entries in {0, 1/2, 1}.
    st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries({
            "inputs": st.lists(st.sampled_from(["a", "b", "c", 1, None]), min_size=n, max_size=n),
            "outputs": st.just(["0", "1"]),
            "rows": st.lists(
                st.sampled_from([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [math.nan, 0.5], [0.5, math.inf]]),
                min_size=n, max_size=n,
            ),
        })
    ),
    st.lists(_scalars, max_size=2),
    _scalars,
)


class TestFuzzChannelDocuments:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_documents, command=st.sampled_from(["factorize", "qfactorize"]))
    def test_exit_codes_and_standard_json(self, capsys, tmp_path, doc, command):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path))
        assert code in (0, 2, 3), err
        if code == 0:
            report = json.loads(out, parse_constant=_refuse_constant)
            if command == "qfactorize":
                assert report["report"]["verified"] is True
        else:
            assert out == ""
