"""Tests of the host-speed clock: what it times, and what it leaves out.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402


@pytest.fixture
def clock():
    c = hostspeed.SpeedClock()
    c.install()
    yield c
    c.remove()


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probes_interrupt_a_phase_and_stay_out_of_its_time(clock):
    t0 = time.perf_counter()
    clock.start()
    _busy(0.3)
    raw, scaled = clock.stop()
    total = time.perf_counter() - t0
    # one probe at start, one at stop, and the timer's in between
    assert len(clock.probes) >= 2 + 3
    # the busy loop's 0.3 s hold the timer's probes, which raw leaves out
    assert 0.2 < raw < 0.3
    assert total - raw == pytest.approx(sum(clock.probes), abs=0.02)
    assert scaled > 0


def test_scaled_time_follows_the_probe(clock, monkeypatch):
    monkeypatch.setattr(clock.probe, "once", lambda: 2 * hostspeed.PROBE_REFERENCE_S)
    clock.start()
    _busy(0.1)
    raw, scaled = clock.stop()
    assert scaled == pytest.approx(raw / 2)


def test_a_child_adds_its_own_times(clock):
    clock.start()
    _busy(0.05)
    clock.child(lambda: (time.sleep(0.2), (10.0, 20.0))[1])
    _busy(0.05)
    raw, scaled = clock.stop()
    # the 0.2 s waited for the child count only as the child reports them
    assert 10.0 < raw < 10.2
    assert 20.0 < scaled < 20.2


def test_the_import_child_times_itself():
    raw, scaled = hostspeed.import_fresh(HERE.parent / "src")
    assert 0 < raw < 30 and 0 < scaled < 30


def test_no_probe_outside_a_phase(clock):
    clock.start()
    clock.stop()
    n = len(clock.probes)
    _busy(0.2)
    clock.child(lambda: None)
    assert len(clock.probes) == n
