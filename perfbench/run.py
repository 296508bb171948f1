#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, closed loop, one operation in flight.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 12 --trace 0

Runs whole rounds of the workload's seeded corpus until --seconds of wall
time have passed (at least one round), checks every output, and prints one
JSON object as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see README.md).  Times of operations are
process CPU time: of this process for the library workloads, of the child
process for the cli workload and for set-up; for the workloads named in
CALIBRATION they are scaled, round by round, to the host's typical speed
(clock.py).
"""

import pinned  # noqa: F401  (first: pins BLAS threads before NumPy loads)

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import child
import workloads
from clock import Calibration, StartupCalibration
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_CHILDREN = 7
IMPORTTIME_CHILDREN = 3
WARMUP_OPS = 30

# The reference that calibrates each workload's operation times (README,
# "Clock").  Timed both ways on the same runs of the tuning host,
# calibrating narrowed the run-to-run spread of roundtrip, random_markov
# and cli; it widened that of repeated_pair, which stays plain.
CALIBRATION = {"roundtrip": Calibration, "random_markov": Calibration, "cli": StartupCalibration}

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernel.as_matrix.calls": "count",
    "kernel.is_markov.calls": "count",
    "roots.char_poly.calls": "count",
    "roots.poly_roots.self_us": "us",
    "kernel.eigenvalues.calls": "count",
    "kernel.eigenvalues.self_us": "us",
    "kernel.jordan_structure.calls": "count",
    "kernel.jordan_structure.self_us": "us",
    "classify.classify.self_us": "us",
    "classify.necessary_checks.self_us": "us",
    "embed.det_rejects.eigenvalues_calls": "count",
    "embed.smt_coeffs.calls": "count",
    "embed.smt_coeffs.self_us": "us",
    "embed.branches_per_generator": "ratio",
    "embed.hyperbola_search.calls": "count",
    "embed.hyperbola_search.self_ms": "ms",
    "embed.hyperbola_search.decisive_ratio": "ratio",
    "kernel.mat_exp.calls": "count",
    "kernel.mat_exp.self_us": "us",
    "kernel.is_generator.calls": "count",
    "embed.decide.self_us": "us",
    "embed.undecided": "count",
    "import.numpy_ms": "ms",
    "import.scipy_linalg_ms": "ms",
    "import.markovembed_ms": "ms",
    "cli.main.self_ms": "ms",
    "models.self_ms": "ms",
    "inhom.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# per-operation call counts: metric -> tracer key
_CALLS = {f"{k}.calls": k for k in (
    "kernel.as_matrix", "kernel.is_markov", "roots.char_poly", "kernel.eigenvalues",
    "kernel.jordan_structure", "embed.smt_coeffs", "embed.hyperbola_search",
    "kernel.mat_exp", "kernel.is_generator")}
# per-operation self times: metric -> (tracer key, ns per unit)
_SELF = {f"{k}.self_{u}": (k, 1e3 if u == "us" else 1e6) for k, u in (
    ("roots.poly_roots", "us"), ("kernel.eigenvalues", "us"), ("kernel.jordan_structure", "us"),
    ("classify.classify", "us"), ("classify.necessary_checks", "us"), ("embed.smt_coeffs", "us"),
    ("embed.hyperbola_search", "ms"), ("kernel.mat_exp", "us"), ("embed.decide", "us"))}
_LAYER_SELF = {"cli.main.self_ms": "cli.", "models.self_ms": "models.", "inhom.self_ms": "inhom."}

_SETUP_CODE = "import json, sys\nimport markovembed\nmarkovembed.decide(json.loads(sys.stdin.read()))\n"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, stdin: str = "", pass_fds=()):
    """Run one child to completion; returns (exit code, stdout, CPU seconds,
    peak RSS in KiB) of that child."""
    return child.run_child(argv, stdin, env=_child_env(), cwd=ROOT, pass_fds=pass_fds)


def cli_argv(op) -> list[str]:
    return [sys.executable, "-m", "markovembed.cli", *op.argv]


def measure_setup(workload: str, first) -> list[float]:
    """CPU times (s) of fresh interpreters that import markovembed and run
    the workload's first operation."""
    times = []
    for _ in range(SETUP_CHILDREN):
        if workload == "cli":
            code, _out, cpu, _rss = run_child(cli_argv(first), first.stdin)
        else:
            code, _out, cpu, _rss = run_child([sys.executable, "-c", _SETUP_CODE],
                                              json.dumps(first.matrix.tolist()))
        if code not in (0, 1, 2):
            raise RuntimeError(f"set-up process exited with {code}")
        times.append(cpu)
    return times


def import_times() -> dict:
    """Cumulative import times (ms) from ``-X importtime``, median of a few children."""
    wanted = {"numpy": "import.numpy_ms", "scipy.linalg": "import.scipy_linalg_ms",
              "markovembed": "import.markovembed_ms"}
    samples = {m: [] for m in wanted.values()}
    for _ in range(IMPORTTIME_CHILDREN):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import markovembed"],
                              capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                              timeout=child.TIMEOUT_S, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[wanted[parts[2].strip()]].append(int(parts[1]) / 1e3)
    return {m: statistics.median(v) for m, v in samples.items()}


class Tally:
    """Counts gathered alongside the tracer, per operation outcome."""

    def __init__(self):
        self.ops = 0
        self.rounds = 0
        self.undecided = 0
        self.generators = 0
        self.det_rejects = 0
        self.det_reject_eig_calls = 0

    def add(self, r: dict, eig_calls: int) -> None:
        self.ops += 1
        self.undecided += r.get("verdict") == "Undecided"
        self.generators += len(r.get("generators", ()))
        if r.get("reason") == "DET_NONPOSITIVE":
            self.det_rejects += 1
            self.det_reject_eig_calls += eig_calls


def layer_metrics(calls, self_ns, statuses, tally: Tally, overhead: float) -> dict:
    n = max(tally.ops, 1)
    out = {m: calls.get(k, 0) / n for m, k in _CALLS.items()}
    out.update({m: self_ns.get(k, 0) / n / unit for m, (k, unit) in _SELF.items()})
    out.update({m: sum(v for k, v in self_ns.items() if k.startswith(p)) / n / 1e6
                for m, p in _LAYER_SELF.items()})
    searches = calls.get("embed.hyperbola_search", 0)
    decisive = statuses.get("Found", 0) + statuses.get("Infeasible", 0)
    out["embed.hyperbola_search.decisive_ratio"] = decisive / searches if searches else 0.0
    branches = calls.get("embed.smt_coeffs", 0) + searches
    out["embed.branches_per_generator"] = branches / tally.generators if tally.generators else 0.0
    out["embed.det_rejects.eigenvalues_calls"] = (
        tally.det_reject_eig_calls / tally.det_rejects if tally.det_rejects else 0.0)
    out["embed.undecided"] = tally.undecided / max(tally.rounds, 1)
    out["trace.overhead_ratio"] = overhead
    return out


def _error_result(exc: Exception) -> dict:
    return {"verdict": "Error", "reason": f"{type(exc).__name__}: {exc}", "uniqueness": None,
            "generators": []}


class Outcome:
    """Attempted, failed, Undecided and unexpected failures over whole rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.unexpected: list[str] = []

    def add_round(self, ops, faults: dict, verdicts) -> None:
        self.attempted += len(ops)
        self.failed += len(faults)
        self.undecided += sum(v == "Undecided" for v in verdicts)
        for i, msg in sorted(faults.items()):
            if ops[i].kind not in checks.KNOWN_FAULT_KINDS:
                self.unexpected.append(f"op {i} ({ops[i].kind}): {msg}")


class Rounds:
    """Raw CPU time of every operation in every kept round and, when the run
    is calibrated, each kept round's speed factor from the reference
    samples taken while it ran (every ``cal.every_ns`` of operation time
    and at its end).  The factor is per round because the host's speed changes
    within a run: round times of one run spread by up to 37 %."""

    def __init__(self, cal: Calibration | None):
        self.cal = cal
        self.kept: list[list[int]] = []
        self.factors: list[float] = []
        self.current: list[int] = []
        self._since = 0
        self._first_sample = 0

    def add(self, ns: int) -> None:
        self.current.append(ns)
        self._since += ns
        # one sample per every_ns of operation time, so a long operation
        # weighs in its round's speed by its length
        while self.cal is not None and self._since >= self.cal.every_ns:
            self.cal.sample()
            self._since -= self.cal.every_ns

    def close_round(self, keep: bool = True) -> int:
        """Ends a round; returns its raw CPU time."""
        if self.cal is not None:
            self.cal.sample()
        self._since = 0
        total = sum(self.current)
        if keep:
            self.kept.append(self.current)
            self.factors.append(self.cal.factor(self._first_sample) if self.cal is not None else 1.0)
        self._first_sample = len(self.cal.samples) if self.cal is not None else 0
        self.current = []
        return total

    def another_fits(self, start: float, round_start: float, seconds: float) -> bool:
        """Whether a round as long as the last one still ends within ``seconds``."""
        now = time.perf_counter()
        return now - start + (now - round_start) <= seconds


def library_rounds(workload, ops, seconds, traced):
    """Closed loop over whole rounds of decide(); in a traced run the first
    round is untraced and gives the tracing overhead's base.  Returns the
    rounds, the outcome, the per-layer metrics of a traced run and the
    runner's peak RSS in KiB."""
    import markovembed

    check = checks.CHECKERS[workload]
    cal = CALIBRATION[workload]() if workload in CALIBRATION else None
    outcome, tally, rounds = Outcome(), Tally(), Rounds(cal)
    tracer, untraced_ns = None, None
    for op in ops[:WARMUP_OPS]:
        if op.kind != "near_boundary_lift":
            markovembed.decide(op.matrix)
    clock = time.process_time_ns
    start = time.perf_counter()
    while True:
        gc.collect()
        round_start = time.perf_counter()
        if traced and untraced_ns is not None and tracer is None:
            tracer = Tracer()
            tracer.install()
        eig = tracer.calls if tracer is not None else {}
        results = []
        for op in ops:
            e0 = eig.get("kernel.eigenvalues", 0)
            t0 = clock()
            try:
                res = markovembed.decide(op.matrix)  # looked up per call: the tracer rebinds it
            except Exception as exc:  # its "Error" verdict fails every check
                res = exc
            rounds.add(clock() - t0)
            results.append((res, eig.get("kernel.eigenvalues", 0) - e0))
        summaries = [_error_result(r) if isinstance(r, Exception) else checks.summarize(r)
                     for r, _ in results]
        outcome.add_round(ops, check(ops, summaries), (s["verdict"] for s in summaries))
        if traced and tracer is None:
            untraced_ns = rounds.close_round(keep=False)
        else:
            rounds.close_round()
        if tracer is not None:
            tally.rounds += 1
            for summary, (_res, eig_calls) in zip(summaries, results):
                tally.add(summary, eig_calls)
        if (not traced or tracer is not None) and not rounds.another_fits(start, round_start, seconds):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is None:
        return rounds, outcome, None, rss_kb
    tracer.restore()
    overhead = statistics.median(sum(r) for r in rounds.kept) / untraced_ns
    layers = layer_metrics(tracer.calls, tracer.self_ns, tracer.statuses, tally, overhead)
    return rounds, outcome, layers, rss_kb


def _traced_child(op, totals: dict):
    """One CLI invocation under the tracer; adds its tallies to ``totals``."""
    rfd, wfd = os.pipe()
    try:
        code, out, cpu, _rss = run_child([sys.executable, str(HERE / "tracer.py"), "--tally-fd",
                                          str(wfd), "--", *op.argv], op.stdin, pass_fds=(wfd,))
    finally:
        os.close(wfd)
    with os.fdopen(rfd) as fh:
        tallies = json.load(fh)
    for key, values in tallies.items():
        acc = totals.setdefault(key, {})
        for k, v in values.items():
            acc[k] = acc.get(k, 0) + v
    return code, out, cpu, tallies["calls"].get("kernel.eigenvalues", 0)


def cli_rounds(ops, seconds, traced):
    """One fresh process per operation; in a traced run the first round is
    untraced and gives the tracing overhead's base.  Returns as
    library_rounds does, with the largest peak RSS of the untraced
    operation children."""
    checker = checks.CliChecker()
    outcome, tally, rounds = Outcome(), Tally(), Rounds(CALIBRATION["cli"]())
    totals: dict = {}
    untraced_ns = None
    peak_rss_kb = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        round_start = time.perf_counter()
        in_trace = traced and untraced_ns is not None
        faults, verdicts = {}, []
        for i, op in enumerate(ops):
            if in_trace:
                code, out, cpu, eig_calls = _traced_child(op, totals)
            else:
                code, out, cpu, rss_kb = run_child(cli_argv(op), op.stdin)
                peak_rss_kb = max(peak_rss_kb, rss_kb)
            rounds.add(int(cpu * 1e9))
            fault = checker.check(op, code, out)
            if fault is not None:
                faults[i] = fault
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                doc = {}
            decided = op.kind == "embed" or op.kind.startswith("model_")
            verdicts.append(doc.get("verdict") if decided else None)
            if in_trace:
                tally.add({"verdict": doc.get("verdict") if decided else None,
                           "reason": doc.get("reason"), "generators": doc.get("generators") or ()},
                          eig_calls)
        outcome.add_round(ops, faults, verdicts)
        if traced and not in_trace:
            untraced_ns = rounds.close_round(keep=False)
        else:
            rounds.close_round()
            tally.rounds += in_trace
        if (not traced or in_trace) and not rounds.another_fits(start, round_start, seconds):
            break
    if not traced:
        return rounds, outcome, None, peak_rss_kb
    overhead = statistics.median(sum(r) for r in rounds.kept) / untraced_ns
    layers = layer_metrics(totals.get("calls", {}), totals.get("self_ns", {}),
                           totals.get("statuses", {}), tally, overhead)
    return rounds, outcome, layers, peak_rss_kb


def timings(kept, factors, workload: str) -> dict:
    """Throughput and latencies from the raw operation times of the kept
    rounds, each round scaled by its factor.  Each operation's latency is
    its median over the rounds, which leaves out momentary stalls of the
    host but keeps slow operations."""
    scaled = [[t * f for t in r] for r, f in zip(kept, factors)]
    per_op = [statistics.median(times) / 1e6 for times in zip(*scaled)]
    return {
        "throughput_per_s": statistics.median(len(r) / (sum(r) / 1e9) for r in scaled),
        "latency_p50_ms": statistics.median(per_op),
        "latency_tail_ms": float(np.percentile(per_op, workloads.TAIL_PERCENTILE[workload])),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    ops = workloads.build(workload, seed, tiny)
    import markovembed  # noqa: F401  (compiles and caches bytecode before set-up is timed)

    setup = None if trace else measure_setup(workload, ops[0])
    if workload == "cli":
        rounds, outcome, layers, rss_kb = cli_rounds(ops, seconds, trace)
    else:
        rounds, outcome, layers, rss_kb = library_rounds(workload, ops, seconds, trace)
    for line in outcome.unexpected[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"Undecided verdicts: {outcome.undecided} of {outcome.attempted} operations", file=sys.stderr)
    if trace:
        layers.update(import_times())
        metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        values = timings(rounds.kept, rounds.factors, workload)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = rss_kb / 1024.0
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
        if rounds.cal is not None:
            plain = timings(rounds.kept, [1.0] * len(rounds.kept), workload)
            print(f"plain CPU time: {json.dumps(plain)}", file=sys.stderr)
    return {"correct": not outcome.unexpected, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny corpora, for the self-check")
    args = ap.parse_args(argv)
    if not (SRC / "markovembed" / "__init__.py").is_file():
        print(f"error: no markovembed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
