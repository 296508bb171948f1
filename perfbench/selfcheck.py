#!/usr/bin/env python3
"""Self-check of the benchmark:  python3 perfbench/selfcheck.py

1. Runs every workload on a tiny corpus, untraced and traced, and confirms
   that the names printed match BENCHMARK.json and that only known-fault
   operations fail.
2. Plants wrong answers and confirms that each correctness check rejects
   them while accepting the right answer.
3. Confirms that the tracer restores every binding it replaced and that its
   call counts repeat exactly.

Exits 0 when every item passes.
"""

import pinned  # noqa: F401  (first: pins BLAS threads before NumPy loads)

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, snapshot  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def rejects(fault, what: str) -> None:
    expect(bool(fault), f"rejects {what}" + (f" ({next(iter(fault.values()))})"
                                               if isinstance(fault, dict) and fault else ""))


def accepts(fault, what: str) -> None:
    expect(not fault, f"accepts {what}" + (f" -- got {fault}" if fault else ""))


# --- 1. tiny runs and names -----------------------------------------------------


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the runner's")
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = {m["name"]: m["unit"] for m in spec[kind]}
        expect(names == table, f"BENCHMARK.json {kind} names and units match the runner's")
    for w in workloads.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{w} trace={trace} prints a result: {proc.stderr[-400:]}")
                continue
            printed = {m: v["unit"] for m, v in res["metrics"].items()}
            expect(proc.returncode == 0 and res["correct"] and res["attempted"] >= 1
                   and set(res) == {"correct", "attempted", "failed", "metrics"}
                   and printed == table,
                   f"{w} trace={trace}: exit {proc.returncode}, correct={res['correct']}, "
                   f"attempted={res['attempted']}, failed={res['failed']}, names match")


# --- 2. planted wrong answers ----------------------------------------------------


def _embeddable(*gens) -> dict:
    return {"verdict": "Embeddable", "reason": None, "uniqueness": "PossiblyMore",
            "generators": [np.array(g, dtype=float) for g in gens]}


def _rejected(reason: str) -> dict:
    return {"verdict": "NotEmbeddable", "reason": reason, "uniqueness": "Unknown", "generators": []}


def planted_library() -> None:
    rng = np.random.default_rng(5)
    Q = workloads.random_generator(rng, 4, norm_max=1.0)
    M = scipy.linalg.expm(Q)
    ops = [workloads.Op("d4", M, meta={"planted": Q})]
    accepts(checks.check_roundtrip(ops, [_embeddable(Q)]), "the planted generator")
    bad = Q.copy()
    bad[0, 1] -= Q[0, 1] + 1e-3
    bad[0, 0] += Q[0, 1] + 1e-3
    rejects(checks.check_roundtrip(ops, [_embeddable(bad)]), "a generator with one negative rate")
    rejects(checks.check_roundtrip(ops, [_embeddable(Q * 1.001)]), "a perturbed residual")
    rejects(checks.check_roundtrip(ops, [_rejected("NO_BRANCH_FEASIBLE")]),
            "NotEmbeddable for exp(Q)")
    error = run._error_result(ValueError("planted"))
    rejects(checks.check_roundtrip(ops, [error]), "an exception raised by decide() on roundtrip")
    undecided = {"verdict": "Undecided", "reason": "ILL_CONDITIONED", "uniqueness": "Unknown",
                 "generators": []}
    flood = [ops[0]] * 100
    accepts(checks.check_roundtrip(flood, [undecided] + [_embeddable(Q)] * 99),
            "Undecided on 1 of 100 operations")
    rejects(checks.check_roundtrip(flood, [undecided] * 2 + [_embeddable(Q)] * 98),
            "Undecided on 2 of 100 operations")
    unique = dict(_embeddable(Q), uniqueness="Unique")
    accepts(checks.check_roundtrip(ops, [unique]), "Unique with the planted generator")
    other = copy.deepcopy(ops)
    other[0].meta["planted"] = Q * 0.5
    rejects(checks.check_roundtrip(other, [unique]), "Unique with a generator that is not the planted Q")

    # rejection reasons, each against an embeddable matrix
    pairs = [workloads.Op("d4", M, meta={"pair": 0})]
    for reason in ("DET_NONPOSITIVE", "NEGATIVE_EIGENVALUE_CULVER", "TRANSITIVITY_VIOLATION",
                   "LOG_NOT_GENERATOR", "NO_BRANCH_FEASIBLE", "K_RANGE_EMPTY"):
        rejects(checks.check_random_markov(pairs, [_rejected(reason)]), f"unconfirmed {reason}")
    singular = np.full((3, 3), 1.0 / 3.0)
    accepts(checks.reason_fault("DET_NONPOSITIVE", singular), "DET_NONPOSITIVE on a rank-one matrix")
    swap = np.array([[0.2, 0.8], [0.7, 0.3]])
    neg = np.eye(3)
    neg[1:, 1:] = swap
    accepts(checks.reason_fault("NEGATIVE_EIGENVALUE_CULVER", neg), "Culver on 1 (+) a negative Kendall block")
    flow = np.array([[0.6, 0.4, 0.0], [0.0, 1.0, 0.0], [0.4, 0.0, 0.6]])
    accepts(checks.reason_fault("TRANSITIVITY_VIOLATION", flow), "transitivity on a flow product")
    # eigenvalues -12 +- 3.46i: rotation beyond pi, so the generator is a branch-1 log
    rotation = scipy.linalg.expm(4.0 * (np.roll(np.eye(3), 1, axis=1) - np.eye(3))
                                 + 6.0 * (np.full((3, 3), 1.0 / 3.0) - np.eye(3)))
    expect(checks.generator_log_branch(rotation) not in (None, 0),
           "the log enumeration finds a non-principal generator branch")
    P = np.eye(4)[[2, 0, 3, 1]]
    perm = [workloads.Op("d4", M, meta={"pair": 0}), workloads.Op("d4_perm", P @ M @ P.T, meta={"pair": 0})]
    accepts(checks.check_random_markov(perm, [_embeddable(Q), _embeddable(P @ Q @ P.T)]),
            "equal verdicts for M and P M P^T")
    # 1 Undecided in 200, within the share accepted, so only the pair check can fail it
    many = perm + [perm[1]] * 198
    changed = checks.check_random_markov(
        many, [_embeddable(Q)] + [_embeddable(P @ Q @ P.T)] * 198 + [undecided])
    expect(list(changed.values()) == ["verdict Undecided for P M P^T but Embeddable for M"],
           f"rejects a verdict that changes under P M P^T ({changed})")
    rejects(checks.check_random_markov(perm, [error, error]), "an exception raised by decide() on random_markov")

    # repeated pair: proven instances and block-lift consistency
    kn = np.zeros((4, 4))
    kn[:2, :2] = workloads.kendall(0.5, 0.52)
    kn[2:, 2:] = workloads.kendall(0.3, 0.72)
    rejects(checks.check_repeated_pair([workloads.Op("kendall_neg", kn)], [_embeddable(np.zeros((4, 4)))]),
            "Embeddable for a 2 (+) 2 pair with a shared negative determinant")
    beyond = workloads.lift(workloads.equal_input_block((1, 1, 1), 1.5))
    rejects(checks.check_repeated_pair([workloads.Op("constant_lift", beyond, meta={"f": 1.5})],
                                       [_embeddable(np.zeros((4, 4)))]),
            "Embeddable for a constant-ray lift beyond the extremal bound")
    Q3 = Q[1:, 1:] - np.diag(Q[1:, 1:].sum(axis=1))
    B = scipy.linalg.expm(Q3)
    G = np.zeros((4, 4))
    G[1:, 1:] = Q3
    pair = [workloads.Op("lift", workloads.lift(B)), workloads.Op("block", B, meta={"lift_index": 0})]
    accepts(checks.check_repeated_pair(pair, [_embeddable(G), _embeddable(Q3)]), "a consistent block and lift")
    rejects(checks.check_repeated_pair(pair, [_embeddable(G), _rejected("EXCEEDS_EXTREMAL_BOUND")]),
            "a block NotEmbeddable whose lift's generator reproduces it")
    rejects(checks.check_repeated_pair(pair, [_rejected("NO_BRANCH_FEASIBLE"), _embeddable(Q3)]),
            "a lift NotEmbeddable whose block is embeddable")
    rejects(checks.check_repeated_pair(pair, [_embeddable(G), error]),
            "an exception raised by decide() on repeated_pair")
    rejects(checks.check_repeated_pair([workloads.Op("kendall_neg", kn)], [undecided]),
            "Undecided on a proven 2 (+) 2 pair")


def planted_cli() -> None:
    checker = checks.CliChecker()
    ops = {op.kind: op for op in workloads.cli(3)}
    for kind, op in ops.items():
        proc = subprocess.run(run.cli_argv(op), input=op.stdin, capture_output=True, text=True,
                              env=run._child_env(), cwd=ROOT, timeout=120)
        accepts(checker.check(op, proc.returncode, proc.stdout), f"the real `{' '.join(op.argv[:2])}` output")
        doc = json.loads(proc.stdout)
        wrong = 3 if proc.returncode == 0 else 0
        rejects(checker.check(op, wrong, proc.stdout), f"{kind} with a wrong exit code")
        if kind == "embed" or kind.startswith("model_"):
            broken = dict(doc, uniqueness="Maybe")
            rejects(checker.check(op, proc.returncode, json.dumps(broken)), f"{kind} with a schema violation")
        if kind in ("exp", "log", "simulate"):
            altered = copy.deepcopy(doc)
            altered["rows"][0][0] += 1e-6
            rejects(checker.check(op, proc.returncode, json.dumps(altered)), f"{kind} with altered numbers")
        if kind == "model_k3st":
            altered = copy.deepcopy(doc)
            altered["input"]["rows"][0][1] += 1e-6
            rejects(checker.check(op, proc.returncode, json.dumps(altered)), "k3st with altered numbers")
        if kind == "classify":
            altered = copy.deepcopy(doc)
            name = next(iter(altered["case_tag"]["eigen"]))
            altered["case_tag"]["eigen"][name]["re"] += 1e-3
            rejects(checker.check(op, proc.returncode, json.dumps(altered)), "classify with an altered eigenvalue")


# --- 3. tracer ---------------------------------------------------------------------


def tracer_restore() -> None:
    import importlib

    import markovembed

    classify_mod = importlib.import_module("markovembed.classify")

    before = snapshot()
    eigenvalues = classify_mod.eigenvalues
    ops = workloads.roundtrip(4, tiny=True)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        expect(getattr(classify_mod.eigenvalues, "__wrapped__", None) is eigenvalues
               and hasattr(markovembed.decide, "__wrapped__"),
               "tracer rebinds `from .kernel import eigenvalues` in classify and the package's decide")
        for op in ops:
            markovembed.decide(op.matrix)
        tracer.restore()
        counts.append(dict(tracer.calls))
    expect(snapshot() == before, "tracer restores every original binding")
    expect(counts[0] == counts[1] and counts[0].get("kernel.eigenvalues", 0) > 0,
           "traced call counts repeat exactly")


def main() -> int:
    planted_library()
    planted_cli()
    tracer_restore()
    tiny_runs()
    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
