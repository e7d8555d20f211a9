"""Shared test code: verdict reporting for the acceptance gate, and the
reference training set that several suites solve (``reference_train``).

Acceptance tests record one PASS/FAIL line each through the ``verdict``
fixture; the lines are replayed in a terminal-summary section so they stay
visible under output capture.
"""

import pytest

from dqml.datasets import SplitSpec, SynthSpec, generate_synthetic, split_random

_verdicts = []


@pytest.fixture
def verdict():
    def _record(label: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} [{label}] {detail}"
        _verdicts.append(line)
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter):
    if _verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in _verdicts:
            terminalreporter.write_line(line)


def reference_train(classes=3, dim=10):
    """Acceptance test 8's reference training set: split 0 (20 per class,
    seed 42) of its synthetic data (70 per class, sep 6, sigma 1, seed 42).
    ``reference_train(10, 64)`` is the wide-classes benchmark's sibling."""
    ds = generate_synthetic(SynthSpec(classes, dim, 70, 6.0, 1.0, seed=42))
    return split_random(ds, SplitSpec(20, seed=42), 0)[0]
