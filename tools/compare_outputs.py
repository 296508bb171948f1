"""Bit-identity harness: record ``decide``'s outputs on fixed corpora, and
diff two such records.

    python tools/compare_outputs.py write OUT.json [--src CHECKOUT/src]
    python tools/compare_outputs.py diff A.json B.json

``write`` decides every input below with the package found under ``--src``
(default: this checkout's ``src``) and writes, per input, the canonical
output of the golden test (``tests/test_golden_outputs.py::canonical``:
verdict, reason, uniqueness, the case tag with its eigenvalues in hex, and
each generator's branch, construction, matrix bytes and residual in hex).
The corpora and the canonical form always come from this checkout, so two
checkouts are compared on the same inputs by running ``write`` once with
each ``--src``.  ``diff`` prints every input whose output differs and exits
non-zero when one does.

The inputs, each decided with ``all_branches`` False and True:

* perfbench's roundtrip, random_markov and repeated_pair corpora at seeds
  1-3;
* ``tests/test_dispatch.py::pattern_corpus()``;
* the sparse round trips exp(Q) of ROADMAP.md's Baseline, 3,000 generators
  from ``default_rng(2024)``, each scaled so that its largest off-diagonal
  rate ("rate") or its largest |entry| ("entry") is s ~ U(0.5, 12);
* the cycle scans exp(s C), C the 3- and 4-state cycle generators,
  s = 1, 1.5, ..., 12;
* the near-identity family I + s Q, d = 2-4, s at 100 log-spaced points in
  [1e-13, 1e-7], three dense Q per point from ``default_rng(77)``, at the
  default tolerances and at residual 1e-12.

A run decides about 32,000 inputs in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
import pinned  # noqa: E402,F401  one BLAS thread, as in the benchmark; before NumPy loads


def sparse_generators(n=3000, seed=2024):
    """(d, rates, s) per kept draw: rates U(0, 1) off the diagonal, each
    kept with probability 1/2; an all-zero draw is skipped."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        d = int(rng.choice([3, 4]))
        rates = rng.uniform(0.0, 1.0, (d, d)) * (rng.uniform(size=(d, d)) < 0.5)
        np.fill_diagonal(rates, 0.0)
        if not rates.any():
            continue
        out.append((d, rates, float(rng.uniform(0.5, 12.0))))
    return out


def generator(rates):
    import numpy as np

    Q = rates.copy()
    np.fill_diagonal(Q, -rates.sum(axis=1))
    return Q


def inputs():
    """(key, matrix, tolerances or None, all_branches) for every input."""
    import numpy as np
    import scipy.linalg

    import workloads
    from markovembed import Tolerances
    from test_dispatch import pattern_corpus

    def both(key, M, tol=None):
        return [(f"{key}:b{int(b)}", M, tol, b) for b in (False, True)]

    out = []
    for name in ("roundtrip", "random_markov", "repeated_pair"):
        for seed in (1, 2, 3):
            for i, op in enumerate(workloads.build(name, seed)):
                out += both(f"{name}:s{seed}:{i}:{op.kind}", op.matrix)
    for i, M in enumerate(pattern_corpus()):
        out += both(f"pattern:{i}", M)
    for i, (d, rates, s) in enumerate(sparse_generators()):
        Q = generator(rates)
        out += both(f"sparse_rate:{i}", scipy.linalg.expm(Q * (s / rates.max())))
        out += both(f"sparse_entry:{i}", scipy.linalg.expm(Q * (s / np.abs(Q).max())))
    for d in (3, 4):
        C = generator(np.roll(np.eye(d), 1, axis=1))
        for j in range(23):
            s = 1.0 + 0.5 * j
            out += both(f"cycle{d}:{s}", scipy.linalg.expm(s * C))
    rng = np.random.default_rng(77)
    tight = Tolerances(residual=1e-12)
    for d in (2, 3, 4):
        for j, s in enumerate(np.logspace(-13, -7, 100)):
            for k in range(3):
                rates = rng.uniform(0.0, 1.0, (d, d))
                np.fill_diagonal(rates, 0.0)
                M = np.eye(d) + s * generator(rates)
                out += both(f"near_identity{d}:{j}:{k}", M)
                out += both(f"near_identity{d}:{j}:{k}:tight", M, tight)
    return out


def write(path: Path, src: Path) -> None:
    sys.path.insert(0, str(src))
    from markovembed import decide
    from test_golden_outputs import canonical

    start = time.perf_counter()
    records = {}
    for key, M, tol, b in inputs():
        res = decide(M, all_branches=b) if tol is None else decide(M, tol, all_branches=b)
        records[key] = canonical(res)
    path.write_text(json.dumps({"src": str(src), "outputs": records}, indent=0) + "\n")
    print(f"wrote {len(records)} outputs to {path} in {time.perf_counter() - start:.0f} s")


def diff(a: Path, b: Path) -> int:
    left, right = (json.loads(p.read_text())["outputs"] for p in (a, b))
    if left.keys() != right.keys():
        print(f"input sets differ: {len(left.keys() ^ right.keys())} keys in one record only")
        return 2
    changed = [k for k in left if left[k] != right[k]]
    for k in changed:
        print(f"{k}\n  {a.name}: {left[k]}\n  {b.name}: {right[k]}")
    print(f"{len(changed)} of {len(left)} outputs differ")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="record decide's outputs")
    w.add_argument("out", type=Path)
    w.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding markovembed")
    d = sub.add_parser("diff", help="compare two records")
    d.add_argument("a", type=Path)
    d.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out, args.src.resolve())
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
