"""Host-speed correction for the benchmark's end-to-end times.

The shared hosts this benchmark runs on change speed many times a second,
between a fast and a slow state: the same round takes 1.3 s or 2.4 s, and CPU
time moves with wall time. Medians over a whole run do not remove that, because
the share of slow time differs from run to run. So while an untraced phase
(one set-up or one round) runs, a timer signal interrupts it every
``every_s`` of CPU time, and the handler times a fixed probe that uses no
dqml. Each piece of the phase between two probes is scaled by the probe's
reference time over the mean of the probes on either side of it. Alternated
this finely, a piece of dqml's work and the probe next to it keep a ratio that
varies by about 10% while each of them varies by a factor of two.

A phase's scaled time is the seconds it would take on a host where the probe
takes its reference time. The probes' own time is left out of both the raw and
the scaled phase time. A probe interrupts dqml between two Python bytecodes,
and changes nothing dqml computes.

The timer counts the process's CPU time (ITIMER_VIRTUAL), so no probe runs
while the benchmark waits for a child process. The set-up's child, the
fresh-interpreter ``import dqml``, is this file run as a script: it times its
own import with a clock of its own, whose probe is plain Python because numpy
is part of what it imports.

    PYTHONPATH=src python3 perfbench/hostspeed.py   # prints the import's times
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

# Each probe's time on the reference host in its fast state: 2 vCPUs of an
# Intel Xeon (family 6, model 143), Python 3.11, numpy 2.4 with OpenBLAS
# 0.3.31. They only set the scale of the scaled times.
PROBE_REFERENCE_S = 0.002
PYTHON_PROBE_REFERENCE_S = 0.00015
# CPU seconds between probes. A Probe takes 2-3.5 ms, a PythonProbe 0.14-0.25
# ms; the import they time takes about 0.2 s of CPU.
PROBE_EVERY_S = 0.04
PYTHON_PROBE_EVERY_S = 0.01


class Probe:
    """Fixed work of the kinds dqml does: small quadratic forms and eighs.

    The matrices are small enough that OpenBLAS runs them on one thread, so
    the probe starts no BLAS threads of its own.
    """

    reference_s = PROBE_REFERENCE_S
    every_s = PROBE_EVERY_S

    def __init__(self) -> None:
        # Imported here, so that the import child can load this file first.
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(300, 10))
        a = rng.normal(size=(10, 10))
        self.p = a @ a.T
        self.small = [b + b.T for b in rng.normal(size=(60, 10, 10))]

    def once(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for v in self.x:
            total += float(v @ self.p @ v)
        for m in self.small:
            self.np.linalg.eigh(m)
        return time.perf_counter() - t0


class PythonProbe:
    """Fixed plain-Python arithmetic, for a process that has no numpy yet."""

    reference_s = PYTHON_PROBE_REFERENCE_S
    every_s = PYTHON_PROBE_EVERY_S

    def once(self) -> float:
        t0 = time.perf_counter()
        total = 0.0
        for i in range(1500):
            total += (i * 0.5) % 7.0
        return time.perf_counter() - t0


class SpeedClock:
    """Raw and host-speed-scaled time of one phase, measured in pieces."""

    def __init__(self, probe=None) -> None:
        self.probe = probe or Probe()
        self.probes: list[float] = []  # every probe time of the run
        self.active = False
        self.raw = self.scaled = 0.0
        self._before = 0.0
        self._t = 0.0

    def install(self) -> None:
        signal.signal(signal.SIGVTALRM, self._on_timer)

    def remove(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        # A signal still pending is dropped; the default action would kill.
        signal.signal(signal.SIGVTALRM, signal.SIG_IGN)

    def _on_timer(self, signum, frame) -> None:
        if self.active:
            self._piece()
            self._arm()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, self.probe.every_s)

    def _sample(self) -> float:
        c = self.probe.once()
        self.probes.append(c)
        return c

    def _piece(self) -> None:
        piece = time.perf_counter() - self._t
        after = self._sample()
        self.raw += piece
        self.scaled += piece * self.probe.reference_s / ((self._before + after) / 2)
        self._before = after
        self._t = time.perf_counter()

    def child(self, fn) -> None:
        """Run ``fn``, which waits for a child process that times itself and
        returns its (raw, scaled) seconds, as a piece of its own."""
        if not self.active:
            fn()
            return
        self._piece()
        self.active = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        raw, scaled = fn()
        self.raw += raw
        self.scaled += scaled
        self._before = self._sample()
        self.active = True
        self._t = time.perf_counter()
        self._arm()

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._before = self._sample()
        self.active = True
        self._t = time.perf_counter()
        self._arm()

    def stop(self) -> tuple[float, float]:
        """End the phase; returns its raw and scaled seconds."""
        self.active = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._piece()
        return self.raw, self.scaled


def import_fresh(src) -> tuple[float, float]:
    """``import dqml`` from ``src`` in a fresh interpreter, as a user's first
    call pays it: returns its raw and scaled seconds, start-up included.

    The child times its import; the rest of the child's life (start-up and
    exit) is scaled by the mean of the child's probes.
    """
    import subprocess  # here, so that the child does not pay for it

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__], env=env, check=True, capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    child = json.loads(proc.stdout)
    rest = wall - child["raw_s"] - child["probes_s"]
    scale = PYTHON_PROBE_REFERENCE_S / child["probe_mean_s"]
    return wall - child["probes_s"], child["scaled_s"] + rest * scale


def _time_own_import() -> None:
    clock = SpeedClock(PythonProbe())
    clock.install()
    clock.start()
    import dqml  # noqa: F401

    raw, scaled = clock.stop()
    clock.remove()
    print(json.dumps({
        "raw_s": raw,
        "scaled_s": scaled,
        "probes_s": sum(clock.probes),
        "probe_mean_s": sum(clock.probes) / len(clock.probes),
    }))


if __name__ == "__main__":
    _time_own_import()
