import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np

from markovembed import Reason, classify, decide
from markovembed.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "verdict.schema.json").read_text()
)


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "markovembed.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def matrix_doc(rows, **extra):
    return json.dumps({"dim": len(rows), "rows": rows, **extra})


class TestEmbed:
    def test_identity_exit_zero(self):
        code, out, _ = run_cli(["embed", "-"], matrix_doc([[1, 0], [0, 1]]))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["verdict"] == "Embeddable"
        assert np.abs(np.array(doc["generators"][0]["matrix"])).max() == 0.0

    def test_not_embeddable_exit_one(self):
        code, out, _ = run_cli(["embed", "-"], matrix_doc([[0.5, 0.5], [0.5, 0.5]]))
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["reason"] == "DET_NONPOSITIVE"

    def test_entry_rejection_prints_the_classify_tag(self):
        # decide rejects det <= 0 on the entries alone, with case=None; the
        # document still carries the tag that classify gives
        rows = [[0.1, 0.6, 0.3], [0.7, 0.1, 0.2], [0.2, 0.3, 0.5]]
        res = decide(np.array(rows))
        assert (res.reason, res.case) == (Reason.DET_NONPOSITIVE, None)
        code, out, _ = run_cli(["embed", "-"], matrix_doc(rows))
        assert code == 1
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["reason"] == "DET_NONPOSITIVE"
        _, tag_out, _ = run_cli(["classify", "-"], matrix_doc(rows))
        assert doc["case_tag"] == json.loads(tag_out)["case_tag"]
        assert doc["case_tag"]["pattern"] == classify(np.array(rows)).pattern.value

    def test_plain_rows_input(self):
        code, out, _ = run_cli(["embed", "-"], "0.7 0.3\n0.2 0.8\n")
        assert code == 0
        assert json.loads(out)["verdict"] == "Embeddable"

    def test_malformed_input_exit_64(self):
        code, _, err = run_cli(["embed", "-"], "0.7 0.3\nnope 0.8\n")
        assert code == 64
        assert "line" in err

    def test_non_markov_rejected(self):
        code, _, err = run_cli(["embed", "-"], matrix_doc([[1.5, -0.5], [0.2, 0.8]]))
        assert code == 64

    def test_deterministic_output(self):
        doc = matrix_doc([[0.6, 0.25, 0.15], [0.2, 0.5, 0.3], [0.1, 0.4, 0.5]])
        outs = {run_cli(["embed", "-"], doc)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_schema_on_corpus(self, rng):
        for d in (2, 3, 4):
            for _ in range(8):
                M = rng.uniform(0, 1, (d, d))
                M /= M.sum(axis=1, keepdims=True)
                code, out, _ = run_cli(["embed", "-"], matrix_doc(M.tolist()))
                assert code in (0, 1, 2)
                jsonschema.validate(json.loads(out), SCHEMA)
        # special shapes: identity and the extremal equal-input matrix
        c = 1 + math.exp(-math.pi * math.sqrt(3.0))
        extremal = ((1 - c) * np.eye(3) + np.full((3, 3), c / 3)).tolist()
        for rows in (np.eye(4).tolist(), extremal):
            code, out, _ = run_cli(["embed", "-"], matrix_doc(rows))
            jsonschema.validate(json.loads(out), SCHEMA)

    def test_seventeen_digit_numbers(self):
        code, out, _ = run_cli(["embed", "-"], matrix_doc([[0.7, 0.3], [0.2, 0.8]]))
        doc = json.loads(out)
        echoed = doc["input"]["rows"]
        assert echoed == [[0.7, 0.3], [0.2, 0.8]]  # bit-exact round trip
        q = doc["generators"][0]["matrix"][0][0]
        assert isinstance(q, float)


class TestClassify:
    def test_case_only(self):
        code, out, _ = run_cli(["classify", "-"], matrix_doc([[0.7, 0.3], [0.2, 0.8]]))
        assert code == 0
        doc = json.loads(out)
        assert doc["case_tag"]["pattern"] == "D2_SIMPLE"
        assert "verdict" not in doc


class TestExpLog:
    def test_exp_then_log_round_trip(self, tmp_path):
        Q = [[-0.5, 0.3, 0.2], [0.1, -0.4, 0.3], [0.25, 0.25, -0.5]]
        code, out, _ = run_cli(["exp", "-"], matrix_doc(Q))
        assert code == 0
        M = json.loads(out)["rows"]
        code, out, _ = run_cli(["log", "-"], matrix_doc(M))
        assert code == 0
        back = np.array(json.loads(out)["rows"])
        assert np.abs(back - np.array(Q)).max() < 1e-10

    def test_log_under_deprecation_errors(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-m", "markovembed.cli",
             "log", "-"],
            input=matrix_doc([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_log_spectrum_on_cut(self):
        code, out, _ = run_cli(["log", "-"], matrix_doc([[0.0, 1.0], [1.0, 0.0]]))
        assert code == 1
        assert "error" in json.loads(out)


class TestModel:
    def test_k3st_violating_exit_one(self):
        # lam1 < lam2 lam3 by a wide margin
        code, out, _ = run_cli(["model", "k3st", "0.24", "0.01", "0.24"])
        assert code == 1

    def test_k3st_good_exit_zero(self):
        code, out, _ = run_cli(["model", "k3st", "0.05", "0.1", "0.15"])
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)

    def test_jc(self):
        code, out, _ = run_cli(["model", "jc", "0.6"])
        assert code == 0

    def test_equal_input_d3_negative(self):
        c = 1 + math.exp(-math.pi * math.sqrt(3.0))
        third = c / 3
        code, out, _ = run_cli(["model", "equal-input", str(third), str(third), str(third)])
        assert code == 0
        assert len(json.loads(out)["generators"]) == 2

    def test_tn(self):
        code, out, _ = run_cli(["model", "tn", "0.05", "0.1", "0.15", "0.02", "2.0", "0.5"])
        assert code in (0, 1)

    def test_bad_param_count(self):
        code, _, _ = run_cli(["model", "k3st", "0.1"])
        assert code == 64


class TestSimulate:
    def make_schedule(self, tmp_path):
        Q1 = [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        Q2 = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]]
        doc = {"segments": [{"Q": Q1, "duration": 1.0}, {"Q": Q2, "duration": 1.0}]}
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(doc))
        return path

    def test_product_then_embed_pipeline(self, tmp_path):
        path = self.make_schedule(tmp_path)
        code, out, _ = run_cli(["simulate", str(path), "--det-check"])
        assert code == 0
        doc = json.loads(out)
        assert doc["determinant"]["gap"] < 1e-10
        code, out, _ = run_cli(["embed", "-"], json.dumps({"rows": doc["rows"]}))
        assert code == 1
        assert json.loads(out)["reason"] == "TRANSITIVITY_VIOLATION"

    def test_pbs_matches_product(self, tmp_path):
        path = self.make_schedule(tmp_path)
        _, out_a, _ = run_cli(["simulate", str(path), "--pbs"])
        _, out_b, _ = run_cli(["simulate", str(path), "--product"])
        A = np.array(json.loads(out_a)["rows"])
        B = np.array(json.loads(out_b)["rows"])
        assert np.abs(A - B).max() < 1e-8


class TestGCheck:
    def test_gap_witness(self):
        a = b = 1 - math.exp(-1.0)
        rows = [[1 - a, a, 0.0], [0.0, 1.0, 0.0], [b, 0.0, 1 - b]]
        code, out, _ = run_cli(["gcheck", "-"], matrix_doc(rows))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "GEmbeddable"
        assert doc["factor_bound"] == 5

    def test_singular(self):
        rows = [[1 / 3] * 3] * 3
        code, out, _ = run_cli(["gcheck", "-"], matrix_doc(rows))
        assert code == 1


class TestInProcessEntry:
    def test_main_returns_exit_code(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(matrix_doc([[0.7, 0.3], [0.2, 0.8]]))
        assert main(["embed", str(path)]) == 0
        out = capsys.readouterr().out
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_tolerance_flags(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(matrix_doc([[0.7, 0.3], [0.2, 0.8]]))
        assert main(["embed", "--tol-residual", "1e-6", str(path)]) == 0
        capsys.readouterr()

    def test_non_finite_tolerance_exit_64(self, capsys, tmp_path):
        # NaN and inf are not tolerances: with --tol-nonneg nan every sign
        # test fails, and --tol-residual inf would certify Q = 0 for any M
        path = tmp_path / "m.json"
        path.write_text(matrix_doc([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]))
        for flag, value in (("--tol-nonneg", "nan"), ("--tol-residual", "inf")):
            assert main(["embed", flag, value, str(path)]) == 64
            assert "finite" in capsys.readouterr().err

    def test_table_output(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(matrix_doc([[0.7, 0.3], [0.2, 0.8]]))
        assert main(["embed", "--table", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: " in out
