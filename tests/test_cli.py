import argparse
import ast
import errno
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chanfactor
from chanfactor import cli, phase
from chanfactor.channel import Channel, rbsc
from chanfactor._entry import build_parser
from chanfactor.cli import main
from chanfactor.phase import MAX_SIGN_STATES
from chanfactor.qfactor import (
    advantage_grid,
    fidelity_bound_check,
    g0_construct,
    qfactorization_from_json,
    verify_qfactorization,
)


@pytest.fixture()
def rbsc_file(tmp_path):
    path = tmp_path / "rbsc.json"
    path.write_text(json.dumps(rbsc(0.3).to_json()))
    return str(path)


def child_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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
        assert run(capsys, "factorize", rbsc_file, "--dist", str(dist)) == (
            2, "", "validation error: expected a JSON object with key 'probabilities'\n"
        )

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

    @pytest.mark.parametrize("command", ["factorize", "qfactorize"])
    def test_non_finite_label_fails_the_report(self, capsys, monkeypatch, tmp_path, command):
        # JSON's NaN literal parses to a float label, which no report can hold:
        # it used to be refused by the writer, after the whole factorization ran.
        def refuse(*args):
            raise AssertionError("the factorization ran before the labels were read")

        monkeypatch.setattr(cli, "causal_factorization", refuse)
        monkeypatch.setattr(cli, "g0_construct", refuse)
        path = tmp_path / "nan-label.json"
        path.write_text(json.dumps({"inputs": [math.nan, "b"], "outputs": ["0", "1"], "rows": [[0.5, 0.5], [0.2, 0.8]]}))
        assert run(capsys, command, str(path)) == (
            2, "", "validation error: inputs must be an array of strings, finite numbers, booleans or nulls\n"
        )

    def test_nan_distribution_exit_code(self, capsys, rbsc_file, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([math.nan, 0.5, 0.25, 0.25]))
        code, out, _ = run(capsys, "qfactorize", rbsc_file, "--dist", str(dist))
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([-0.1, 0.6, 0.25, 0.25], "probabilities must be finite and nonnegative, got min -0.1"),
            ([0.5, 0.6, 0.25, 0.25], "probabilities must be finite and sum to 1, got 1.6"),
        ],
        ids=["negative", "sum"],
    )
    def test_refused_distribution_prints_plain_numbers(self, capsys, rbsc_file, tmp_path, probs, message):
        # numpy 2 printed the repr of its scalar: "got min np.float64(-0.1)".
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(probs))
        assert run(capsys, "qfactorize", rbsc_file, "--dist", str(dist)) == (2, "", f"validation error: {message}\n")

    @pytest.fixture
    def no_factorization(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the factorization ran before --dist was read and checked")

        monkeypatch.setattr(cli, "causal_factorization", refuse)
        monkeypatch.setattr(cli, "g0_construct", refuse)

    @pytest.mark.parametrize("command", ["factorize", "qfactorize"])
    def test_distribution_is_read_before_any_work(self, capsys, no_factorization, rbsc_file, tmp_path, command):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"probs": [0.2, 0.3, 0.2, 0.3]}))
        assert run(capsys, command, rbsc_file, "--dist", str(dist)) == (
            2, "", "validation error: expected a JSON object with key 'probabilities'\n"
        )

    @pytest.mark.parametrize("command", ["factorize", "qfactorize"])
    def test_distribution_length_is_checked_before_any_work(
        self, capsys, no_factorization, rbsc_file, tmp_path, command
    ):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([0.5, 0.5]))
        assert run(capsys, command, rbsc_file, "--dist", str(dist)) == (
            2, "", "validation error: distribution over 2 elements, channel has 4 inputs\n"
        )

    @pytest.mark.parametrize("command", ["factorize", "qfactorize"])
    def test_empty_distribution_path_is_read(self, capsys, rbsc_file, command):
        # factorize took an empty --dist for no --dist, and exited 0 without entropies.
        code, out, err = run(capsys, command, rbsc_file, "--dist", "")
        assert (code, out) == (3, "")
        assert err.startswith("parse error: cannot read : [Errno 2] ") and err.count("\n") == 1
        assert err == run(capsys, "qfactorize", rbsc_file, "--dist", "")[2]

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

    @pytest.mark.parametrize(
        "command,tol",
        [("factorize", t) for t in ("nan", "inf", "-inf", "0", "-0", "-1")] + [("qfactorize", "nan")],
    )
    def test_bad_tol_exits_2_before_any_work(self, rbsc_file, command, tol):
        # --tol nan used to hang the partition sweep, so each call runs in a
        # child process under a deadline.
        done = subprocess.run(
            [sys.executable, "-m", "chanfactor.cli", command, rbsc_file, f"--tol={tol}"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert f"tol must be positive and finite, got {float(tol)!r}" in done.stderr

    @pytest.mark.parametrize("tol", ["-inf", "-nan", "-1e-3"])
    def test_option_like_tol_written_with_a_space_exits_2(self, rbsc_file, tol):
        # argparse takes an argument for a negative number only when it
        # matches ^-\d+$|^-\d*\.\d+$; other values starting with "-" read
        # as an option and leave --tol without its argument.
        done = subprocess.run(
            [sys.executable, "-m", "chanfactor.cli", "factorize", rbsc_file, "--tol", tol],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert "--tol" in done.stderr

    def test_output_file(self, capsys, rbsc_file, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "qfactorize", rbsc_file, "--out", str(out_path))
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["report"]["verified"] is True

    def test_unverified_report_is_written_in_full(self, capsys, tmp_path):
        # sqrt(0.1)**2 misses 0.1 by 1.4e-17, beyond --tol=1e-17: exit 2, and
        # the report still goes out whole, the same bytes to stdout and --out.
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[0.1, 0.9], [0.7, 0.3]]}))
        code, out, err = run(capsys, "qfactorize", str(path), "--tol=1e-17")
        assert (code, err) == (2, "")
        assert json.loads(out)["report"]["verified"] is False
        out_path = tmp_path / "report.json"
        assert run(capsys, "qfactorize", str(path), "--tol=1e-17", "--out", str(out_path)) == (2, "", "")
        assert out_path.read_bytes() == out.encode()


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
        code, out, err = run(capsys, "heatmap", "--points", "1")
        assert (code, out, err) == (2, "", "validation error: heatmap needs at least 2 steps per axis\n")
        # No channel is involved, so the refusal is a plain ValueError.
        with pytest.raises(ValueError) as refused:
            cli.cmd_heatmap(build_parser().parse_args(["heatmap", "--points", "1"]))
        assert type(refused.value) is ValueError

    def test_unallocatable_grid_exit_code(self, capsys, monkeypatch):
        # The grid is faked: a real 200000^2 request would be real memory on
        # a host that overcommits.
        def too_large(ps, alphas):
            raise MemoryError("Unable to allocate 1.16 TiB for an array")

        monkeypatch.setattr(cli, "advantage_grid", too_large)
        code, out, err = run(capsys, "heatmap", "--points", "200000")
        assert code == 2 and out == ""
        assert "validation error: Unable to allocate" in err

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

    @pytest.mark.parametrize("n", [MAX_SIGN_STATES + 1, 40])
    def test_refuses_sign_scan_beyond_limit(self, capsys, tmp_path, n):
        # 40 states would need 2^39 patterns (4 TiB); the limit is checked
        # before anything is allocated.
        rng = np.random.default_rng(337 + n)
        a = np.sqrt(rng.uniform(0.1, 0.9, size=n))
        spec = self.write_spec(tmp_path, [1 / n] * n, a.tolist(), np.sqrt(1 - a**2).tolist())
        code, out, err = run(capsys, "phase-scan", spec)
        assert code == 2 and out == ""
        assert f"at most {MAX_SIGN_STATES} states" in err

    @pytest.mark.parametrize(
        "weights, a, b",
        [([1.0], [[0.6]], [[0.8]]), ([0.5, 0.5], [[0.6], [0.8]], [[0.8], [0.6]]), ([1.0], 0.6, 0.8)],
        ids=["one-state", "two-states", "scalars"],
    )
    def test_rejects_magnitudes_that_are_not_vectors(self, capsys, tmp_path, weights, a, b):
        # One nested state or bare numbers gave a full report; two nested
        # states failed with numpy's "non-broadcastable output operand".
        spec = self.write_spec(tmp_path, weights, a, b)
        code, out, err = run(capsys, "phase-scan", spec)
        assert code == 2 and out == ""
        assert "validation error: a must form a nonempty vector" in err

    def test_malformed_spec_exit_code(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"weights": [1.0]}))
        assert run(capsys, "phase-scan", str(path)) == (2, "", "validation error: expected a JSON object with key 'a'\n")


_CHANNEL = '{"inputs": %s, "outputs": ["0", "1"], "rows": [[0.5, 0.5], [0.2, 0.8]]}'
_LABELS = "inputs must be an array of strings, finite numbers, booleans or nulls"
# Bytes that cannot be decoded: the one case of every document kind that exits 3.
_UNDECODABLE = [
    pytest.param(b"{not json", 3, "parse error: {path} is not valid JSON: Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1)", id="undecodable"),
    pytest.param(b"\xff{}", 3, "parse error: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff in "
                 "position 0: invalid start byte", id="not-utf-8"),
]


class TestMalformedDocuments:
    """One table per document kind a command reads: each malformed document,
    written as raw JSON text, with its exit code and its whole stderr line.
    Bytes that cannot be read or decoded exit 3; a decoded document that
    breaks its schema exits 2. No command reads a Q-factorization document;
    its table is ``test_qfactor.TestQFactorizationJson``."""

    @staticmethod
    def check(capsys, tmp_path, doc, code, message, argv):
        path = tmp_path / "doc.json"
        path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        line = message.replace("{path}", str(path)) if code == 3 else f"validation error: {message}"
        assert run(capsys, *[str(path) if a == "DOC" else a for a in argv]) == (code, "", line + "\n")

    @pytest.mark.parametrize("command", ["factorize", "qfactorize"])
    @pytest.mark.parametrize("doc, code, message", _UNDECODABLE + [
        pytest.param("[1, 2]", 2, "expected a JSON object with key 'inputs'", id="non-object"),
        pytest.param('{"outputs": ["0"], "rows": [[1.0]]}', 2, "expected a JSON object with key 'inputs'",
                     id="no-inputs"),
        pytest.param('{"inputs": ["a"], "rows": [[1.0]]}', 2, "expected a JSON object with key 'outputs'",
                     id="no-outputs"),
        pytest.param('{"inputs": ["a"], "outputs": ["0"]}', 2, "expected a JSON object with key 'rows'", id="no-rows"),
        pytest.param(_CHANNEL % '"ab"', 2, _LABELS, id="inputs-string"),
        pytest.param('{"inputs": ["a"], "outputs": ["0"], "rows": {"a": 1}}', 2, "rows must hold only numbers",
                     id="rows-object"),
        pytest.param('{"inputs": ["a", "b"], "outputs": ["0", "1"], "rows": [[true, 0.0], [0.2, 0.8]]}', 2,
                     "rows must hold only numbers", id="bool-among-numbers"),
        pytest.param(_CHANNEL % '[NaN, "b"]', 2, _LABELS, id="nan-label"),
        pytest.param(_CHANNEL % '["a", Infinity]', 2, _LABELS, id="infinity-label"),
        pytest.param(_CHANNEL % '["a", 1e400]', 2, _LABELS, id="1e400-label"),
        pytest.param(_CHANNEL % "[1, true]", 2, "inputs 0 and 1 share a label: 1 == True in Python", id="1-and-true"),
    ])
    def test_channel(self, capsys, monkeypatch, tmp_path, command, doc, code, message):
        def refuse(*args):
            raise AssertionError("the factorization ran before the channel was read")

        monkeypatch.setattr(cli, "causal_factorization", refuse)
        monkeypatch.setattr(cli, "g0_construct", refuse)
        self.check(capsys, tmp_path, doc, code, message, [command, "DOC"])

    @pytest.mark.parametrize("doc, code, message", _UNDECODABLE + [
        pytest.param('"p"', 2, "probabilities must hold only numbers", id="string"),
        pytest.param("null", 2, "probabilities must hold only numbers", id="null"),
        pytest.param("0.5", 2, "probabilities must form a nonempty vector", id="number"),
        pytest.param('{"probs": [0.2, 0.3, 0.2, 0.3]}', 2, "expected a JSON object with key 'probabilities'",
                     id="no-probabilities"),
        pytest.param('{"probabilities": "x"}', 2, "probabilities must hold only numbers", id="probabilities-string"),
        pytest.param("[true, 0.0, 0.0, 0.0]", 2, "probabilities must hold only numbers", id="bool-among-numbers"),
        pytest.param("[NaN, 0.5, 0.25, 0.25]", 2, "probabilities must be finite and nonnegative, got min nan",
                     id="nan"),
        pytest.param("[Infinity, 0.5, 0.25, 0.25]", 2, "probabilities must be finite and sum to 1, got inf",
                     id="infinity"),
        pytest.param("[1e400, 0.5, 0.25, 0.25]", 2, "probabilities must be finite and sum to 1, got inf", id="1e400"),
    ])
    def test_distribution(self, capsys, rbsc_file, tmp_path, doc, code, message):
        self.check(capsys, tmp_path, doc, code, message, ["factorize", rbsc_file, "--dist", "DOC"])

    @pytest.mark.parametrize("doc, code, message", _UNDECODABLE + [
        pytest.param("[1]", 2, "expected a JSON object with key 'weights'", id="non-object"),
        pytest.param('{"a": [0.6], "b": [0.8]}', 2, "expected a JSON object with key 'weights'", id="no-weights"),
        pytest.param('{"weights": [1.0], "b": [0.8]}', 2, "expected a JSON object with key 'a'", id="no-a"),
        pytest.param('{"weights": [1.0], "a": [0.6]}', 2, "expected a JSON object with key 'b'", id="no-b"),
        pytest.param('{"weights": [1.0], "a": "x", "b": [0.8]}', 2, "a must hold only numbers", id="a-string"),
        pytest.param('{"weights": [true, 0.0], "a": [0.8, 0.6], "b": [0.6, 0.8]}', 2,
                     "weights must hold only numbers", id="bool-among-numbers"),
        pytest.param('{"weights": [NaN, 0.5], "a": [0.8, 0.6], "b": [0.6, 0.8]}', 2,
                     "weights must be finite and nonnegative, got min nan", id="nan"),
        pytest.param('{"weights": [0.5, 0.5], "a": [Infinity, 0.6], "b": [0.6, 0.8]}', 2,
                     "a_j^2 + b_j^2 must be finite and within 1 +- 1e-10, off by inf", id="infinity"),
        pytest.param('{"weights": [0.5, 0.5], "a": [0.8, 0.6], "b": [1e400, 0.8]}', 2,
                     "a_j^2 + b_j^2 must be finite and within 1 +- 1e-10, off by inf", id="1e400"),
    ])
    def test_ensemble(self, capsys, tmp_path, doc, code, message):
        self.check(capsys, tmp_path, doc, code, message, ["phase-scan", "DOC"])

    @pytest.mark.parametrize("argv, doc, message", [
        (["factorize", "DOC"], _CHANNEL % '["a", 1e400]', _LABELS),
        (["qfactorize", "RBSC", "--dist", "DOC"], '{"probs": [1.0]}', "expected a JSON object with key 'probabilities'"),
        (["phase-scan", "DOC"], '{"weights": [1.0], "a": [0.6]}', "expected a JSON object with key 'b'"),
    ], ids=["channel", "distribution", "ensemble"])
    def test_entry_point(self, rbsc_file, tmp_path, argv, doc, message):
        # The installed entry point: exit 2 and the one message, never a traceback.
        path = tmp_path / "doc.json"
        path.write_text(doc)
        done = cli_child([{"DOC": str(path), "RBSC": rbsc_file}.get(a, a) for a in argv])
        assert (done.returncode, done.stdout, done.stderr.decode()) == (2, b"", f"validation error: {message}\n")


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


# The two entry routes: ``python -m chanfactor.cli`` and the ``chanfactor`` script's function.
ENTRIES = {"module": ["-m", "chanfactor.cli"], "script": ["-c", "from chanfactor._entry import run; run()"]}


def importtime_child(entry, argv) -> tuple:
    """(completed process, names of the modules it imported) of ``argv`` run
    through an entry route under ``python -X importtime``; the importtime
    lines are taken out of its stderr."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *ENTRIES[entry], *argv],
        capture_output=True, env=child_env(), timeout=120,
    )
    prefix = b"import time:"
    lines = done.stderr.splitlines(keepends=True)
    names = {line.rsplit(b"|", 1)[1].strip().decode() for line in lines if line.startswith(prefix)}
    done.stderr = b"".join(line for line in lines if not line.startswith(prefix))
    return done, names


class TestImports:
    def test_channel_commands_skip_phase_and_casestudy(self, rbsc_file):
        # A fresh interpreter, so modules imported by other tests do not count.
        code = (
            "import sys; from chanfactor.cli import main; "
            f"codes = [main([c, {rbsc_file!r}]) for c in ('factorize', 'qfactorize')]; "
            "print(codes, sorted(m for m in ('chanfactor.phase', 'chanfactor.casestudy') if m in sys.modules))"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0] []"

    def test_no_module_imports_dataclasses(self):
        # dataclasses pulls in inspect, ast and dis, and generates code for every record.
        code = (
            "import sys, chanfactor.cli, chanfactor.phase, chanfactor.casestudy; "
            "print('dataclasses' in sys.modules)"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_bench_span_targets_exist(self):
        # bench/spans.py swaps these attributes for timing wrappers; a refactor that
        # moves one would break the traced bench run without failing anything else.
        path = Path(__file__).parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        from chanfactor import casestudy, channel, qfactor

        targets = spans.layer_targets(cli, channel, qfactor, phase, casestudy)
        assert [(owner, attr) for owner, attr, _, _ in targets if attr not in vars(owner)] == []
        assert isinstance(vars(channel.Channel)["from_json"], classmethod)
        tracer = spans.Tracer()
        with spans.patched(tracer, targets):
            channel.Channel.from_json(rbsc(0.3).to_json())
            qfactor.DensityMatrix(np.eye(2) / 2)
        assert [s[0] for s in tracer.spans] == ["channel.from_json", "qfactor.density_matrix"]
        assert tracer.counts == {"channel.inputs": 4, "channel.outputs": 2}

    def test_every_public_name_resolves(self):
        # A name left in __all__ after its definition is deleted fails here.
        for info in pkgutil.iter_modules(chanfactor.__path__):
            module = importlib.import_module(f"chanfactor.{info.name}")
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__

    def test_every_public_name_is_defined_in_its_module(self):
        # One import path per name: a name in __all__ that the module only
        # imports has its home elsewhere.
        for info in pkgutil.iter_modules(chanfactor.__path__):
            module = importlib.import_module(f"chanfactor.{info.name}")
            bound = set()
            for node in ast.parse(Path(module.__file__).read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    bound.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    bound.update(t.id for t in targets if isinstance(t, ast.Name))
            assert [n for n in module.__all__ if n not in bound] == [], module.__name__

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["heatmap", "--help"], 0), (["heatmap", "--points", "x"], 2),
    ], ids=["help", "subcommand-help", "usage-error"])
    def test_front_door_loads_no_numpy(self, entry, argv, code):
        done, names = importtime_child(entry, argv)
        assert (done.returncode, "chanfactor._entry" in names) == (code, True)
        assert [n for n in names if n.split(".")[0] == "numpy"] == []
        plain = cli_child(argv)
        assert (done.stdout, done.stderr) == (plain.stdout, plain.stderr)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_command_compiles_the_cli_module_once(self, entry):
        # Run as __main__, cli.py falls through to its own imports; importing
        # chanfactor.cli as well would compile the module a second time. The
        # script imports it once.
        done, names = importtime_child(entry, ["merge-demo"])
        assert (done.returncode, sha256(done.stdout)) == (0, GOLDEN[("merge-demo",)][0])
        assert "numpy" in names
        assert ("chanfactor.cli" in names) == (entry == "script")

    def test_package_import_loads_nothing(self):
        code = "import sys, chanfactor; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('chanfactor.')))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


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
        # loops, before the sweeps were batched. The 12-state and the
        # 720-point phase-scan digests were taken from the dense phase-stack
        # kernel, before the broadcast-column form. The 18-state phase-scan and
        # the 151-point casestudy digests were taken before the scan reduced on
        # the deltas and before purity ran over the whole curve. The heatmap
        # digests were re-taken when the H(w) = 0 cells stopped printing -0.0.
        monkeypatch.chdir(tmp_path)
        write_golden_inputs(tmp_path)
        for argv, digests in GOLDEN.items():
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert (sha256(out), sha256(err)) == digests, argv


def negative_zeros(out: str) -> list:
    """The numbers of a JSON report, or the fields of a CSV below its
    header, that are written as a negative zero."""
    if out.startswith("{"):
        numbers = []
        json.loads(out, parse_float=numbers.append, parse_int=numbers.append)
    else:
        numbers = [field for line in out.splitlines()[1:] for field in line.split(",")]
    return [n for n in numbers if n.startswith("-") and float(n) == 0.0]


class TestNoNegativeZero:
    """A zero prints as 0.0: ``_entropy_bits`` turns every -0.0 entropy into 0.0."""

    @pytest.mark.parametrize("argv", [
        ["--points", "2"], ["--points", "5", "--alpha-points", "4"], ["--points", "101"],
    ], ids=["2", "5x4", "101"])
    def test_heatmap(self, capsys, argv):
        code, out, _ = run(capsys, "heatmap", *argv)
        assert code == 0
        assert negative_zeros(out) == []

    def test_golden_commands(self, capsys, tmp_path, monkeypatch):
        # The casestudy CSVs and every JSON report of GOLDEN.
        monkeypatch.chdir(tmp_path)
        write_golden_inputs(tmp_path)
        for argv in GOLDEN:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert negative_zeros(out) == [], argv


def cli_child(argv, cwd=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=None):
    """``python -m chanfactor.cli argv`` run to completion; its output as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "chanfactor.cli", *argv],
        cwd=cwd, stdout=stdout, stderr=stderr, env=child_env() if env is None else env, timeout=120,
    )


def buffering_env(unbuffered: bool) -> dict:
    """``child_env`` with PYTHONUNBUFFERED set to 1, or unset."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


class TestEntryPointBytes:
    def test_golden_digests_to_stdout_and_out(self, tmp_path):
        # The GOLDEN bytes through the real entry point: once to stdout and
        # once through --out, which must leave stdout empty and stderr as pinned.
        write_golden_inputs(tmp_path)
        out_path = tmp_path / "report.out"
        for argv, (out_digest, err_digest) in GOLDEN.items():
            done = cli_child(argv, cwd=tmp_path)
            assert (done.returncode, sha256(done.stdout), sha256(done.stderr)) == (0, out_digest, err_digest), argv
            done = cli_child([*argv, "--out", str(out_path)], cwd=tmp_path)
            assert (done.returncode, done.stdout, sha256(done.stderr)) == (0, b"", err_digest), argv
            assert sha256(out_path.read_bytes()) == out_digest, argv


DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full on this system")


class TestOutputFailures:
    """A failed write exits 3 with one ``output error:`` line, never a traceback."""

    @staticmethod
    def assert_output_error(done, errno_code):
        assert done.returncode == 3
        (line,) = done.stderr.decode().splitlines()
        assert line.startswith(f"output error: [Errno {errno_code}] ")

    def test_out_is_a_directory(self, rbsc_file, tmp_path):
        self.assert_output_error(cli_child(["factorize", rbsc_file, "--out", str(tmp_path)]), errno.EISDIR)

    def test_out_in_a_missing_directory(self, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        self.assert_output_error(cli_child(["merge-demo", "--out", str(out_path)]), errno.ENOENT)
        assert not out_path.parent.exists()

    @needs_dev_full
    def test_out_on_a_full_device(self):
        self.assert_output_error(cli_child(["merge-demo", "--out", str(DEV_FULL)]), errno.ENOSPC)

    @needs_dev_full
    def test_stdout_on_a_full_device(self):
        with DEV_FULL.open("wb") as full:
            self.assert_output_error(cli_child(["merge-demo"], stdout=full), errno.ENOSPC)

    @needs_dev_full
    def test_stderr_on_a_full_device_after_the_report(self):
        # The CSV goes out whole before the summary fails on stderr.
        with DEV_FULL.open("wb") as full:
            done = cli_child(["casestudy"], stderr=full)
        assert done.returncode == 3
        assert sha256(done.stdout) == GOLDEN[("casestudy", "--points", "151")][0]

    @needs_dev_full
    def test_stderr_on_a_full_device_after_a_parse_error(self, tmp_path):
        with DEV_FULL.open("wb") as full:
            done = cli_child(["factorize", str(tmp_path / "missing.json")], stderr=full)
        assert (done.returncode, done.stdout) == (3, b"")

    def test_stdout_pipe_closed_before_the_write(self):
        # No process holds the reading end, so the write fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "wb") as closed_pipe:
            done = cli_child(["heatmap", "--points", "101"], stdout=closed_pipe)
        self.assert_output_error(done, errno.EPIPE)

    def test_stdout_closed_before_start_up(self):
        # The interpreter sets sys.stdout to None when descriptor 1 is closed.
        done = subprocess.run(
            [sys.executable, "-m", "chanfactor.cli", "merge-demo"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(), timeout=120,
            preexec_fn=lambda: os.close(1),
        )
        self.assert_output_error(done, errno.EBADF)


class TestRunEntryPoint:
    """The entry point ends argparse's exits as well as ``main``'s."""

    def test_help_exits_0_on_stdout(self):
        done = cli_child(["--help"])
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.startswith(b"usage: chanfactor ")
        assert b"show this help message and exit" in done.stdout

    def test_usage_error_exits_2(self):
        done = cli_child(["heatmap", "--points", "x"])
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"usage: chanfactor heatmap ")
        assert done.stderr.endswith(b"chanfactor heatmap: error: argument --points: invalid int value: 'x'\n")
        assert b"Traceback" not in done.stderr

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"chanfactor": "chanfactor._entry:run"}


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
class TestArgparseOutputFailures:
    """argparse's help, usage and error text fail as any write does: exit 3,
    whether or not the standard streams are buffered."""

    def test_help_on_a_full_device(self, unbuffered):
        with DEV_FULL.open("wb") as full:
            done = cli_child(["--help"], stdout=full, env=buffering_env(unbuffered))
        TestOutputFailures.assert_output_error(done, errno.ENOSPC)

    def test_usage_error_on_a_full_device(self, unbuffered):
        with DEV_FULL.open("wb") as full:
            done = cli_child(["heatmap", "--points", "x"], stderr=full, env=buffering_env(unbuffered))
        assert (done.returncode, done.stdout) == (3, b"")


class FailingFlush(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_flush_returns_3_and_leaves_the_stream_open(capsys, monkeypatch):
    out = FailingFlush()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["merge-demo"]) == 3
    assert not out.closed
    assert capsys.readouterr().err == f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def write_golden_inputs(directory: Path) -> None:
    """The input files the GOLDEN command lines name, relative to ``directory``."""
    (directory / "rbsc.json").write_text(json.dumps(rbsc(0.3).to_json()))
    (directory / "ens3.json").write_text(
        json.dumps({"weights": [0.3, 0.3, 0.4], "a": [0.6, 0.8, 0.96], "b": [0.8, 0.6, 0.28]})
    )
    (directory / "ens6.json").write_text(
        json.dumps({
            "weights": [0.1, 0.15, 0.2, 0.25, 0.2, 0.1],
            "a": [0.6, 0.8, 0.96, 0.28, 5 / 13, 8 / 17],
            "b": [0.8, 0.6, 0.28, 0.96, 12 / 13, 15 / 17],
        })
    )
    (directory / "ens12.json").write_text(
        json.dumps({
            "weights": [k / 78 for k in range(1, 13)],
            "a": [3 / 5, 4 / 5, 5 / 13, 12 / 13, 8 / 17, 15 / 17,
                  7 / 25, 24 / 25, 20 / 29, 21 / 29, 9 / 41, 40 / 41],
            "b": [4 / 5, 3 / 5, 12 / 13, 5 / 13, 15 / 17, 8 / 17,
                  24 / 25, 7 / 25, 21 / 29, 20 / 29, 40 / 41, 9 / 41],
        })
    )
    a18 = [0.15 + 0.8 * k / 17 for k in range(18)]
    (directory / "ens18.json").write_text(
        json.dumps({
            "weights": [k / 171 for k in range(1, 19)],
            "a": a18,
            "b": [math.sqrt(1 - x * x) for x in a18],
        })
    )


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


EMPTY = sha256("")
GOLDEN = {
    ("heatmap", "--points", "7"): (
        "60e36574b394abcc9878afe2ef8cb1f21ad22e3aa4c16b6b93e99fe9e530ee39", EMPTY),
    ("heatmap", "--points", "5", "--alpha-points", "4"): (
        "e07b30402235037040eca508b69cec829e779952898ee8919c883b3d2d4de619", EMPTY),
    ("casestudy", "--points", "9"): (
        "f605a70ebee9bf420f1d049bd090bfe6c5f6bfdb8d62a4e7a00620e5a3c529e8",
        "4fdd5d1cd1c3d1ce43c61bef4c630a8b1e492c20414768a8a5a5fef5e382e0ae"),
    ("casestudy", "--points", "151"): (
        "c0c1176c72df656dd943393fecb37b3b8b9c42767773f26940f9357126dcce18",
        "62c65e1ebecc41cd5c83219f7ed084617ffebd04b3c22e84bb13527d52db886c"),
    ("merge-demo",): (
        "afc6ef36ee9f05051b475cc6d139760df20db785e2f20c60ce8bfc585511b748", EMPTY),
    ("phase-scan", "ens3.json"): (
        "d138c58414ec09c302bdb91f38b7dd56c024325260dd30042d0cf5cd82848901", EMPTY),
    ("phase-scan", "ens6.json"): (
        "e628e14d9b53acbf9a15fdbf7fad979dcd1d61db34c45b41df45d36793252ffd", EMPTY),
    ("phase-scan", "ens12.json"): (
        "2c6f8ccf36dc9137a06387759c7219ce14436fe7ea68386b537ea78b78e28385", EMPTY),
    ("phase-scan", "ens3.json", "--points", "720"): (
        "e9c12c223e217db8e5d7366ca4750a4cb3637b21ffbcc63304cb810bfbb8e432", EMPTY),
    ("phase-scan", "ens18.json"): (
        "faa75badea88e56e4df6bf46a2328c4fd064f553c3ba61e5a72a6dfc48cc02f4", EMPTY),
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


def _dumps(doc) -> str:
    """The oracle of ``cli._json_text``."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(),
    st.text(alphabet="\"\\\x00\x1f\n\t/é€\U0001f600ab", max_size=6),
)
_json_keys = st.one_of(
    st.text(max_size=4), st.integers(-5, 5), st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none()
)
_json_documents = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_json_keys, children, max_size=4),
    ),
    max_leaves=30,
)


class TestJsonText:
    """``cli._json_text``, the one report writer, against json.dumps(indent=2)."""

    @settings(max_examples=400, deadline=None)
    @given(doc=_json_documents)
    def test_bytes_of_json_dumps(self, doc):
        assert cli._json_text(doc) == _dumps(doc)

    @pytest.mark.parametrize("doc", [
        math.nan,
        [1.0, -math.inf],
        {"a": [[0.5], {"b": math.inf}]},
        {"a": 1.0, math.nan: [1]},
        [[np.float64(math.nan)], [math.nan]],
        {"a": [{"b": [1, {"c": [2.0, math.nan]}]}]},
    ])
    def test_non_finite_values_raise_the_error_of_json_dumps(self, doc):
        # No reader lets a non-finite value reach a report, so the writer
        # keeps only the C encoder's ValueError, without json.dumps's message.
        with pytest.raises(ValueError):
            _dumps(doc)
        with pytest.raises(ValueError):
            cli._json_text(doc)

    @staticmethod
    def pair_dicts(report) -> list:
        return [
            {"pair": [label_i, label_j], "f_quantum": f_quantum, "f_classical": f_classical,
             "slack": slack, "saturated": saturated}
            for label_i, label_j, f_quantum, f_classical, slack, saturated in report.pairs
        ]

    @pytest.mark.parametrize("labels", [["a", 7, 2.5, True, None, "q\"\\é"], ["only"]], ids=["every-kind", "one-class"])
    def test_pair_table_as_its_dicts(self, labels):
        # One class per label: the rows all differ. K = 1 gives the empty table.
        rows = [[(k + 1) / (len(labels) + 1), 1 - (k + 1) / (len(labels) + 1)] for k in range(len(labels))]
        c = Channel(labels, ["0", "1"], rows)
        report = fidelity_bound_check(c, g0_construct(c))
        assert len(report.pairs) == len(labels) * (len(labels) - 1) // 2
        dicts = self.pair_dicts(report)
        for doc, oracle in [
            (report, dicts),
            ({"report": {"verified": True, "fidelity_pairs": report}}, {"report": {"verified": True, "fidelity_pairs": dicts}}),
            ([[report, 1]], [[dicts, 1]]),
        ]:
            assert cli._json_text(doc) == _dumps(oracle)
        if len(labels) == 1:
            assert '"fidelity_pairs": []' in cli._json_text({"fidelity_pairs": report})

    @pytest.mark.parametrize("column", ["f_quantum", "f_classical", "slack"])
    def test_non_finite_pair_table_raises_the_error_of_json_dumps(self, column):
        c = Channel(["a", "b", "c"], ["0", "1"], [[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        report = fidelity_bound_check(c, g0_construct(c))
        values = getattr(report, column).copy()
        values[1] = -math.inf
        report = report._replace(**{column: values})
        with pytest.raises(ValueError):
            _dumps({"pairs": self.pair_dicts(report)})
        with pytest.raises(ValueError, match="^non-finite fidelity$"):
            cli._json_text({"pairs": report})
