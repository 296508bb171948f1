"""Code-size guard: the line counts that ROADMAP.md tracks may not grow back.

The budgets are the sizes of the engine and kernel and of ``src/`` after
the last deletion.  Lower them as code goes.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "markovembed"


def lines(path: Path) -> int:
    return len(path.read_text().splitlines())


def test_engine_and_kernel_within_budget():
    assert lines(SRC / "embed.py") + lines(SRC / "kernel.py") <= 1160


def test_src_within_budget():
    assert sum(lines(p) for p in SRC.rglob("*.py")) <= 2902
