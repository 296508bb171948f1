"""Command-line interface.

Subcommands: classify, embed, exp, log, model, simulate, gcheck.  Matrices
arrive as JSON documents ({"rows": [[...]], "label": ..., "tolerances":
{...}}) or as whitespace-separated rows; schedules as JSON lists of
{"Q": [[...]], "duration": t} under "segments".  Exit codes: 0 embeddable
or success, 1 not embeddable (or a definite negative), 2 undecided,
64 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import inhom, models
from .classify import CaseTag, classify
from .embed import EmbeddingResult, Verdict, decide
from .errors import (ClassificationError, IllConditionedError, MarkovEmbedError,
                     SpectrumOnCutError)
from .kernel import Tolerances, as_matrix, is_markov, mat_exp, principal_log

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 64


class InputError(Exception):
    pass


# --- deterministic JSON with 17-significant-digit numbers -------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError("non-finite number in output document")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialise {type(value)}")


def dump_document(doc: dict) -> str:
    return _fmt(doc)


# --- input parsing -----------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc


def parse_matrix_document(text: str) -> tuple[np.ndarray, str | None, dict]:
    """JSON document or plain rows -> (matrix, label, tolerance overrides)."""
    stripped = text.strip()
    if not stripped:
        raise InputError("line 1: empty input")
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {exc.lineno}: {exc.msg}") from exc
        if "rows" not in doc:
            raise InputError("line 1: missing 'rows'")
        rows = doc["rows"]
        if "dim" in doc and len(rows) != doc["dim"]:
            raise InputError("line 1: 'dim' disagrees with 'rows'")
        label = doc.get("label")
        tols = doc.get("tolerances", {})
    else:
        rows = []
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append([float(v) for v in line.split()])
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        label, tols = None, {}
    try:
        M = as_matrix(rows)
    except MarkovEmbedError as exc:
        raise InputError(f"line 1: {exc}") from exc
    return M, label, tols


def parse_schedule_document(text: str) -> inhom.Schedule:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}: {exc.msg}") from exc
    if isinstance(doc, dict):
        segments = doc.get("segments")
    else:
        segments = doc
    if not isinstance(segments, list) or not segments:
        raise InputError("line 1: schedule needs a nonempty 'segments' list")
    parts = []
    for k, seg in enumerate(segments):
        try:
            parts.append((seg["Q"], float(seg["duration"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"segment {k}: needs 'Q' and 'duration'") from exc
    try:
        return inhom.Schedule.piecewise_constant(parts)
    except (ValueError, MarkovEmbedError) as exc:
        raise InputError(f"line 1: {exc}") from exc


def _tolerances(args, overrides: dict) -> Tolerances:
    fields = {}
    for name in ("spec_cluster", "nonneg", "rowsum", "residual", "rank"):
        flag = getattr(args, f"tol_{name}", None)
        if flag is not None:
            fields[name] = flag
        elif name in overrides:
            fields[name] = float(overrides[name])
    try:
        return Tolerances(**fields)
    except ValueError as exc:
        raise InputError(f"line 1: {exc}") from exc


def _add_tol_flags(sub: argparse.ArgumentParser) -> None:
    for name in ("spec-cluster", "nonneg", "rowsum", "residual", "rank"):
        sub.add_argument(f"--tol-{name}", type=float, default=None,
                         dest=f"tol_{name.replace('-', '_')}")


# --- document builders -------------------------------------------------------


def _matrix_rows(M: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in M]


def _complex_doc(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _case_doc(tag: CaseTag | None) -> dict | None:
    if tag is None:
        return None
    return {
        "dim": tag.dim,
        "min_poly_degree": tag.min_poly_degree,
        "pattern": tag.pattern.value,
        "eigen": {k: _complex_doc(complex(v)) for k, v in sorted(tag.eigen.items())},
    }


def _verdict_doc(
    M: np.ndarray, label: str | None, tag: CaseTag | None, res: EmbeddingResult | None,
    elapsed: float | None,
) -> dict:
    doc: dict = {
        "input": {"dim": int(M.shape[0]), "rows": _matrix_rows(M), "label": label},
        "case_tag": _case_doc(tag),
    }
    if res is not None:
        doc["verdict"] = res.verdict.value
        doc["reason"] = res.reason.value if res.reason is not None else None
        doc["generators"] = [
            {
                "branch": g.branch,
                "construction": g.construction.value,
                "residual": g.residual,
                "matrix": _matrix_rows(g.matrix),
            }
            for g in res.generators
        ]
        doc["uniqueness"] = res.uniqueness.value
    if elapsed is not None:
        doc["timing"] = {"seconds": elapsed}
    return doc


def _verdict_exit(res: EmbeddingResult) -> int:
    if res.verdict is Verdict.EMBEDDABLE:
        return EXIT_OK
    if res.verdict is Verdict.NOT_EMBEDDABLE:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _emit(doc: dict, args) -> None:
    if getattr(args, "table", False):
        _print_table(doc)
    else:
        print(dump_document(doc))


def _print_table(doc: dict, indent: str = "") -> None:
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    _print_table(item, indent + "  ")
                else:
                    print(f"{indent}  {_fmt(item)}")
        else:
            print(f"{indent}{key}: {_fmt(value)}")


# --- subcommands --------------------------------------------------------------


def cmd_classify(args) -> int:
    M, label, over = parse_matrix_document(_read_text(args.input))
    tol = _tolerances(args, over)
    if not is_markov(M, tol):
        raise InputError("line 1: not a Markov matrix")
    tag = classify(M, tol)
    _emit(_verdict_doc(M, label, tag, None, None), args)
    return EXIT_OK


def cmd_embed(args) -> int:
    M, label, over = parse_matrix_document(_read_text(args.input))
    tol = _tolerances(args, over)
    if not is_markov(M, tol):
        raise InputError("line 1: not a Markov matrix")
    start = time.perf_counter()
    res = decide(M, tol, all_branches=args.all_branches)
    elapsed = time.perf_counter() - start if args.timing else None
    tag = res.case
    if tag is None:
        try:  # entry-only rejections carry no tag; ill-conditioned analyses have none
            tag = classify(M, tol)
        except (IllConditionedError, ClassificationError):
            pass
    _emit(_verdict_doc(M, label, tag, res, elapsed), args)
    return _verdict_exit(res)


def cmd_exp(args) -> int:
    M, label, _over = parse_matrix_document(_read_text(args.input))
    out = mat_exp(M)
    _emit({"dim": int(out.shape[0]), "rows": _matrix_rows(out), "label": label}, args)
    return EXIT_OK


def cmd_log(args) -> int:
    M, label, over = parse_matrix_document(_read_text(args.input))
    tol = _tolerances(args, over)
    try:
        out = principal_log(M, tol)
    except SpectrumOnCutError as exc:
        print(dump_document({"error": str(exc)}))
        return EXIT_NEGATIVE
    _emit({"dim": int(out.shape[0]), "rows": _matrix_rows(out), "label": label}, args)
    return EXIT_OK


_MODEL_PARAM_COUNTS = {"equal-input": (2, 3, 4), "tn": (6,), "k3st": (3,),
                       "jc": (1,), "k2p": (2,)}


def cmd_model(args) -> int:
    kind = args.kind
    values = [float(v) for v in args.params]
    if len(values) not in _MODEL_PARAM_COUNTS[kind]:
        raise InputError(
            f"line 1: {kind} takes {_MODEL_PARAM_COUNTS[kind]} parameters, got {len(values)}"
        )
    tol = _tolerances(args, {})
    try:
        if kind == "equal-input":
            p = models.EqualInputParams(tuple(values))
            M = models.equal_input_matrix(p)
            res = models.embed_equal_input(p, tol=tol)
        elif kind == "jc":
            c = values[0]
            p = models.EqualInputParams((c / 4.0,) * 4)
            M = models.equal_input_matrix(p)
            res = models.embed_equal_input(p, tol=tol)
        elif kind == "tn":
            tp = models.TNParams(*values)
            M = models.tn_matrix(tp)
            res = models.embed_tn(tp, tol)
        elif kind == "k3st":
            kp = models.K3STParams(*values)
            M = models.k3st_matrix(kp)
            res = models.embed_k3st(kp, tol)
        else:  # k2p: x and y, with z = y
            kp = models.K3STParams(values[0], values[1], values[1])
            M = models.k3st_matrix(kp)
            res = models.embed_k3st(kp, tol)
    except MarkovEmbedError as exc:
        raise InputError(f"line 1: {exc}") from exc
    tag = res.case if res.case is not None else classify(M, tol)
    _emit(_verdict_doc(M, kind, tag, res, None), args)
    return _verdict_exit(res)


def cmd_simulate(args) -> int:
    sched = parse_schedule_document(_read_text(args.schedule))
    t = args.t if args.t is not None else sched.span
    if args.pbs:
        M = inhom.peano_baker(sched, t)
        method = "pbs"
    else:
        if abs(t - sched.span) > 1e-12:
            raise InputError("line 1: --product evaluates the full schedule span")
        M = inhom.evolve(sched)
        method = "product"
    doc: dict = {
        "dim": int(M.shape[0]),
        "rows": _matrix_rows(M),
        "method": method,
        "t": float(t),
    }
    if args.det_check:
        target = inhom.liouville_det(sched, t)
        doc["determinant"] = {
            "matrix": float(np.linalg.det(M)),
            "trace_integral": target,
            "gap": float(abs(np.linalg.det(M) - target)),
        }
    _emit(doc, args)
    return EXIT_OK


def cmd_gcheck(args) -> int:
    M, label, over = parse_matrix_document(_read_text(args.input))
    tol = _tolerances(args, over)
    if not is_markov(M, tol):
        raise InputError("line 1: not a Markov matrix")
    rep = inhom.g_embed_d3(M, tol)
    doc = {
        "input": {"dim": int(M.shape[0]), "rows": _matrix_rows(M), "label": label},
        "necessary_ok": rep.necessary_ok,
        "b_quantity": rep.b_quantity,
        "verdict": rep.verdict.value,
        "factor_bound": rep.factor_bound,
        "factors": None,
    }
    _emit(doc, args)
    if rep.verdict is inhom.GVerdict.G_EMBEDDABLE:
        return EXIT_OK
    if rep.verdict is inhom.GVerdict.NOT_G_EMBEDDABLE:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="markovembed",
        description="Embeddability of 2x2 to 4x4 Markov matrices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def matrix_command(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", nargs="?", default="-",
                       help="matrix file (JSON or plain rows), '-' for stdin")
        p.add_argument("--table", action="store_true", help="human-readable output")
        _add_tol_flags(p)
        p.set_defaults(func=func)
        return p

    matrix_command("classify", cmd_classify, "case pattern only")
    p = matrix_command("embed", cmd_embed, "full embeddability decision")
    p.add_argument("--all-branches", action="store_true",
                   help="also search non-principal rotation branches")
    p.add_argument("--timing", action="store_true", help="include wall time")
    matrix_command("exp", cmd_exp, "matrix exponential")
    matrix_command("log", cmd_log, "principal matrix logarithm")
    matrix_command("gcheck", cmd_gcheck, "generalised embeddability, d=3")

    p = sub.add_parser("model", help="closed-form model decisions")
    p.add_argument("kind", choices=sorted(_MODEL_PARAM_COUNTS))
    p.add_argument("params", nargs="+", help="model parameters")
    p.add_argument("--table", action="store_true")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("simulate", help="evaluate a generator schedule")
    p.add_argument("schedule", help="schedule file (JSON), '-' for stdin")
    p.add_argument("--t", type=float, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pbs", action="store_true", help="iterated-integral series")
    group.add_argument("--product", action="store_true",
                       help="product of segment exponentials (default)")
    p.add_argument("--det-check", action="store_true")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_simulate)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, MarkovEmbedError) as exc:
        print(f"error: line 1: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
