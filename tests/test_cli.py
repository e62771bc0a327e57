"""End-to-end CLI behaviour: reports, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from involsvd import (
    GeneratorSpec,
    StructureClass,
    gen_structured,
    read_matrix,
    write_matrix,
)
from involsvd.cli import main
from helpers import example1_matrix, package_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_example(tmp_path, matrix, name="a.mtx"):
    path = tmp_path / name
    write_matrix(path, matrix)
    return str(path)


class TestClassify:
    def test_identity(self, tmp_path, capsys):
        path = write_example(tmp_path, np.eye(3))
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["accepted"] == ["coninvolutory", "involutory"]
        assert report["residuals"]["involutory"] == 0.0
        assert report["input"]["rows"] == 3

    def test_unstructured_exits_2(self, tmp_path, capsys):
        path = write_example(tmp_path, np.diag([2.0, 3.0]))
        code, out, err = run_cli(capsys, "classify", path)
        assert code == 2
        assert json.loads(out)["accepted"] == []
        assert "no structure" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "classify", str(tmp_path / "nope.mtx"))
        assert code == 1
        assert err


    def test_non_ascii_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix array real general\n1 1\n1.0\xe9\n")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 3: non-ASCII byte 0xe9\n"


class TestTolerance:
    """``--tol`` takes finite values >= 0 only; others are usage errors."""

    @pytest.mark.parametrize(
        "command", ["classify", "decompose", "verify", "project", "generate"]
    )
    @pytest.mark.parametrize("tol", ["nan", "-1", "-0.5", "inf", "-inf"])
    def test_rejects_non_finite_or_negative(self, tmp_path, capsys, command, tol):
        path = write_example(tmp_path, example1_matrix())
        gen_dir = tmp_path / "gen"
        argv = [command, path]
        if command == "generate":
            argv = [command, "--class", "involutory", "--n", "2", "--eta1", "2",
                    "--out", str(gen_dir)]
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err == f"error: argument --tol: tolerance must be finite and >= 0, got '{tol}'\n"
        assert not gen_dir.exists()

    def test_zero_is_valid(self, tmp_path, capsys):
        path = write_example(tmp_path, np.eye(2))
        code, out, _ = run_cli(capsys, "verify", "--tol", "0", path)
        assert code == 0
        assert json.loads(out)["tol"] == 0.0

    def test_non_number_keeps_float_message(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "classify", "--tol", "abc", "x.mtx")
        assert code == 1
        assert err == "error: argument --tol: invalid float value: 'abc'\n"


class TestDecompose:
    def test_example_matrix(self, tmp_path, capsys):
        path = write_example(tmp_path, example1_matrix())
        code, out, _ = run_cli(capsys, "decompose", "--class", "involutory", path)
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "involutory"
        assert report["sigma"] == [1.0, 1.0, 1.0, 1.0]
        signs = sorted(b["sign"] for b in report["blocks"] if b["kind"] == "single_one")
        assert signs == [-1, 1, 1, 1]
        assert report["passed"] is True
        assert all(v <= 1e-10 for v in report["residuals"].values())

    def test_factor_files(self, tmp_path, capsys):
        path = write_example(tmp_path, np.array([[0.0, 2.0], [0.5, 0.0]]))
        out_dir = tmp_path / "factors"
        code, out, _ = run_cli(
            capsys, "decompose", "--class", "auto", "--out", str(out_dir), path
        )
        assert code == 0
        report = json.loads(out)
        u = read_matrix(report["files"]["U"])
        v = read_matrix(report["files"]["V"])
        t = read_matrix(report["files"]["T"])
        sigma = np.loadtxt(report["files"]["sigma"], ndmin=1)
        a = read_matrix(path)
        assert np.linalg.norm(a - (u * sigma) @ v.conj().T) <= 1e-12
        assert np.array_equal(t, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    def test_auto_prefers_involutory_on_tie(self, tmp_path, capsys):
        path = write_example(tmp_path, example1_matrix())  # real involutory
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        assert json.loads(out)["class"] == "involutory"

    def test_wrong_class_exits_2(self, tmp_path, capsys):
        path = write_example(tmp_path, np.eye(2))
        code, _, err = run_cli(capsys, "decompose", "--class", "skew-involutory", path)
        assert code == 2
        assert "structure violation" in err

    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write_example(tmp_path, example1_matrix())
        _, out1, _ = run_cli(capsys, "decompose", "--class", "involutory", path)
        _, out2, _ = run_cli(capsys, "decompose", "--class", "involutory", path)
        assert out1 == out2


class TestGenerate:
    def test_round_trip_recovers_counts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "generate", "--class", "coninvolutory", "--n", "5", "--nu", "2",
            "--sigmas", "3,2", "--eta1", "1", "--seed", "7",
            "--out", str(tmp_path),
        )
        assert code == 0
        gen_report = json.loads(out)
        assert gen_report["counts"]["nu"] == 2
        code, out, _ = run_cli(
            capsys, "decompose", "--class", "coninvolutory",
            str(tmp_path / "A.mtx"),
        )
        assert code == 0
        dec_report = json.loads(out)
        assert dec_report["counts"] == gen_report["counts"]
        got = sorted(dec_report["sigma"])
        want = sorted(gen_report["sigma"])
        assert np.allclose(got, want, rtol=1e-8)

    @pytest.mark.parametrize(
        "structure,extra",
        [
            ("involutory", ["--nu", "2", "--sigmas", "4,2", "--eta1", "1", "--eta2", "1"]),
            ("skew-involutory", ["--nu", "2", "--sigmas", "4,2", "--eta1", "2"]),
            ("coninvolutory", ["--nu", "1", "--sigmas", "5", "--eta1", "2", "--eta2", "2"]),
            ("skew-coninvolutory", ["--nu", "3", "--sigmas", "4,2,1"]),
        ],
    )
    def test_all_classes_round_trip(self, tmp_path, capsys, structure, extra):
        n = "6"
        code, out, _ = run_cli(
            capsys, "generate", "--class", structure, "--n", n, *extra,
            "--seed", "11", "--out", str(tmp_path / structure),
        )
        assert code == 0
        gen_report = json.loads(out)
        code, out, _ = run_cli(
            capsys, "verify", "--class", structure, str(tmp_path / structure / "A.mtx")
        )
        assert code == 0
        ver_report = json.loads(out)
        assert ver_report["passed"] is True
        assert ver_report["counts"] == gen_report["counts"]

    def test_deterministic_output_file(self, tmp_path, capsys):
        args = [
            "generate", "--class", "involutory", "--n", "4", "--nu", "1",
            "--sigmas", "2.5", "--eta1", "1", "--eta2", "1", "--seed", "3",
        ]
        _, out1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "g1"))
        _, out2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "g2"))
        a1 = (tmp_path / "g1" / "A.mtx").read_bytes()
        a2 = (tmp_path / "g2" / "A.mtx").read_bytes()
        assert a1 == a2
        # reports differ only in output paths
        assert json.loads(out1)["output"]["sha256"] == json.loads(out2)["output"]["sha256"]

    def test_blocks_report_phases_and_signs(self, tmp_path, capsys):
        # coninvolutory truth: the pairs (j, j + nu + delta) with the spec
        # sigmas, then the singles with the spec phases and no sign
        phases = [0.3, 2.5, 4.0]
        code, out, _ = run_cli(
            capsys,
            "generate", "--class", "coninvolutory", "--n", "7", "--nu", "2",
            "--sigmas", "2,6", "--eta1", "3", "--phases", "0.3,2.5,4.0",
            "--out", str(tmp_path / "con"),
        )
        assert code == 0
        report = json.loads(out)
        nu, delta = report["counts"]["nu"], report["counts"]["delta"]
        pairs, singles = report["blocks"][:nu], report["blocks"][nu:]
        assert pairs == [
            {"kind": "reciprocal_pair", "columns": [j, j + nu + delta], "sigma": s}
            for j, s in enumerate([6.0, 2.0])
        ]
        assert [b["kind"] for b in singles] == ["single_one"] * 3
        assert [b["columns"] for b in singles] == [[2], [3], [6]]
        assert all("sign" not in b and b["sigma"] == 1.0 for b in singles)
        assert [b["phase"] for b in singles] == pytest.approx(phases, abs=1e-12)
        # the decomposition resolves the singles phase-free
        code, out, _ = run_cli(
            capsys, "decompose", "--class", "coninvolutory",
            str(tmp_path / "con" / "A.mtx"),
        )
        assert code == 0
        singles = [b for b in json.loads(out)["blocks"] if b["kind"] == "single_one"]
        assert [b["phase"] for b in singles] == [0.0] * 3
        # skew-involutory singles carry signs that match eta1/eta2
        code, out, _ = run_cli(
            capsys,
            "generate", "--class", "skew-involutory", "--n", "6", "--nu", "1",
            "--sigmas", "3", "--eta1", "3", "--eta2", "1",
            "--out", str(tmp_path / "skew"),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "decompose", "--class", "skew-involutory",
            str(tmp_path / "skew" / "A.mtx"),
        )
        assert code == 0
        report = json.loads(out)
        singles = [b for b in report["blocks"] if b["kind"] == "single_one"]
        assert all("phase" not in b for b in singles)
        signs = [b["sign"] for b in singles]
        assert (signs.count(1), signs.count(-1)) == (3, 1)
        assert (report["counts"]["eta1"], report["counts"]["eta2"]) == (3, 1)

    @pytest.mark.parametrize("flag,text", [("--sigmas", "abc"), ("--phases", "x")])
    def test_unparsable_float_list_is_usage_error(self, tmp_path, capsys, flag, text):
        out_dir = tmp_path / "gen"
        code, out, err = run_cli(
            capsys, "generate", "--class", "coninvolutory", "--n", "2", "--nu", "1",
            flag, text, "--out", str(out_dir),
        )
        assert (code, out) == (1, "")
        assert err == f"error: argument {flag}: cannot parse float list '{text}'\n"
        assert not out_dir.exists()

    def test_non_finite_phase_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        code, out, err = run_cli(
            capsys, "generate", "--class", "coninvolutory", "--n", "1", "--eta1", "1",
            "--phases", "nan", "--out", str(out_dir),
        )
        assert (code, out) == (1, "")
        assert err == "error: phase nan is not finite\n"
        assert not out_dir.exists()

    def test_invalid_spec_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--class", "involutory", "--n", "4",
            "--nu", "1", "--sigmas", "2", "--out", str(tmp_path),
        )
        assert code == 1
        assert err


class TestEnvelope:
    """Every report carries schema 1, its own command and the given tol, and
    the SHA-256 of the matrix file it read (``generate``: wrote)."""

    def test_every_command(self, tmp_path, capsys):
        def report(*argv):
            code, out, _ = run_cli(capsys, *argv, "--tol", "1e-9")
            assert code == 0
            out = json.loads(out)
            assert (out["schema"], out["command"], out["tol"]) == (1, argv[0], 1e-9)
            return out

        def sha256(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        a_path = tmp_path / "gen" / "A.mtx"
        out = report(
            "generate", "--class", "involutory", "--n", "4", "--nu", "1",
            "--sigmas", "3", "--eta1", "1", "--eta2", "1", "--out", str(a_path.parent),
        )
        assert out["output"]["sha256"] == sha256(a_path)
        for argv in (
            ["classify"], ["decompose"], ["decompose", "--out", str(tmp_path / "f")],
            ["verify"], ["project", "--sign", "-"],
        ):
            assert report(*argv, str(a_path))["input"]["sha256"] == sha256(a_path)

    def test_input_digest_taken_before_factors_overwrite_it(self, tmp_path, capsys):
        # decompose --out DIR DIR/U.mtx writes its U factor over its own input
        path = tmp_path / "U.mtx"
        write_matrix(path, example1_matrix())
        before = hashlib.sha256(path.read_bytes()).hexdigest()
        code, out, _ = run_cli(capsys, "decompose", "--out", str(tmp_path), str(path))
        assert code == 0
        assert json.loads(out)["input"]["sha256"] == before
        assert hashlib.sha256(path.read_bytes()).hexdigest() != before


class TestProject:
    def test_worked_value(self, tmp_path, capsys):
        path = write_example(tmp_path, np.array([[0.0, 2.0], [0.5, 0.0]]))
        code, out, _ = run_cli(capsys, "project", "--sign", "+", path)
        assert code == 0
        report = json.loads(out)
        assert report["sigma"][0] == pytest.approx(1.25, abs=1e-12)
        assert report["sigma"][1] == pytest.approx(0.0, abs=1e-12)
        assert report["passed"] is True

    def test_minus_sign_with_files(self, tmp_path, capsys):
        path = write_example(tmp_path, example1_matrix())
        out_dir = tmp_path / "proj"
        code, out, _ = run_cli(
            capsys, "project", "--sign", "-", "--out", str(out_dir), path
        )
        assert code == 0
        report = json.loads(out)
        b = read_matrix(report["files"]["B"])
        u = read_matrix(report["files"]["U"])
        v = read_matrix(report["files"]["V"])
        sigma = np.loadtxt(report["files"]["sigma"], ndmin=1)
        assert np.linalg.norm(b - (u * sigma) @ v.conj().T) <= 1e-12
        assert np.linalg.norm(b @ b - b) <= 1e-12

    def test_rejects_non_involutory(self, tmp_path, capsys):
        path = write_example(tmp_path, 1j * np.eye(2))
        code, _, err = run_cli(capsys, "project", path)
        assert code == 2


class TestVerify:
    def test_odd_skew_coninvolutory_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = write_example(tmp_path, rng.standard_normal((3, 3)), "odd.mtx")
        code, _, err = run_cli(
            capsys, "verify", "--class", "skew-coninvolutory", path
        )
        assert code == 2
        assert "even dimension" in err

    def test_even_skew_coninvolutory_rejection_has_no_dimension_hint(
        self, tmp_path, capsys
    ):
        path = write_example(tmp_path, example1_matrix(), "even.mtx")
        code, _, err = run_cli(
            capsys, "verify", "--class", "skew-coninvolutory", path
        )
        assert code == 2
        assert "matrix is not skew-coninvolutory" in err
        assert "even dimension" not in err

    def test_involutory_full_report(self, tmp_path, capsys):
        path = write_example(tmp_path, np.diag([1.0, -1.0, -1.0]))
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["eigen_counts_consistent"] is True
        assert report["checks"]["canonical_class_closure"] is True
        assert report["counts"] == {
            "nu": 0, "mu": 0, "delta": 2, "eta": 1, "eta1": 1, "eta2": 2,
        }

    def test_tol_zero_runs_the_oracle_to_a_full_report(self, tmp_path, capsys):
        # the oracle's range check does not read tol, so tol 0 reaches the
        # report, and only the rounding-level residuals fail it
        path = write_example(tmp_path, np.array([[0.0, 3.0], [1.0 / 3.0, 0.0]]))
        code, out, err = run_cli(capsys, "verify", "--tol", "0", path)
        report = json.loads(out)
        assert report["counts"]["nu"] == 1
        assert report["residuals"]["oracle"] <= 1e-15
        assert report["passed"] is False
        assert code == 2
        assert err.strip() == "residual checks failed"

    def test_oracle_accepts_a_perturbed_input_the_gate_accepts(self, tmp_path, capsys):
        # involutory residual 3.3e-12: B's rank-1 defect of 1.5e-12 is the
        # input's own distance from the class, not a sketch failure
        path = write_example(tmp_path, np.array([[1e-11, 3.0], [1.0 / 3.0, 0.0]]))
        code, out, _ = run_cli(capsys, "verify", path)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_usage_error_exits_1(self, capsys):
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err


def test_console_entry_point(tmp_path):
    matrix = tmp_path / "a.mtx"
    write_matrix(matrix, np.eye(2))
    proc = subprocess.run(
        [sys.executable, "-m", "involsvd", "classify", str(matrix)],
        env=package_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["accepted"] == ["coninvolutory", "involutory"]


_SCIPY_WORKER = """
import contextlib, io, json, sys
from involsvd.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def _cli_in_fresh_interpreter(*argvs):
    """Run ``main`` on each argv in one new interpreter; report exit codes and
    whether scipy got imported."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_WORKER, json.dumps(list(argvs))],
        env=package_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


class TestScipyLoading:
    """The library runs on numpy alone: no command imports scipy."""

    @pytest.fixture
    def files(self, tmp_path):
        sc = StructureClass
        specs = {
            sc.INVOLUTORY: GeneratorSpec(n=6, nu=2, sigmas=(4.0, 2.0), eta1=1, eta2=1),
            sc.SKEW_INVOLUTORY: GeneratorSpec(n=6, nu=2, sigmas=(4.0, 2.0), eta1=2),
            sc.CONINVOLUTORY: GeneratorSpec(n=6, nu=1, sigmas=(5.0,), eta1=2, eta2=2),
            sc.SKEW_CONINVOLUTORY: GeneratorSpec(n=6, nu=3, sigmas=(4.0, 2.0, 1.0)),
        }
        return {
            s.value: write_example(tmp_path, gen_structured(s, spec)[0], f"{s.value}.mtx")
            for s, spec in specs.items()
        }

    def test_no_command_loads_scipy(self, tmp_path, files):
        argvs = [
            ["classify", files["involutory"]],
            ["generate", "--class", "involutory", "--n", "4", "--nu", "1", "--sigmas", "3",
             "--eta1", "1", "--eta2", "1", "--out", str(tmp_path / "gen")],
            ["decompose", "--out", str(tmp_path / "con"), files["coninvolutory"]],
            ["verify", files["coninvolutory"]],
            ["verify", files["skew-involutory"]],
            ["verify", files["skew-coninvolutory"]],
            ["decompose", "--out", str(tmp_path / "inv"), files["involutory"]],
            ["verify", files["involutory"]],
            ["project", "--sign", "+", files["involutory"]],
        ]
        result = _cli_in_fresh_interpreter(*argvs)
        assert result["codes"] == [0] * len(argvs)
        assert result["scipy"] is False
