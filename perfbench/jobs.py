"""Workload definitions: seeded job lists and the in-process job runner.

A job is one ``ncball.cli.main(argv)`` call, except the truncation workload's
``taylor_polynomial(ex52, 12)`` library call.  Every input a job sees (probe
seeds, the level-3 point file, the polynomial) is generated from the workload
seed, so the same seed gives the same job list and the same output bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROBE_BUDGET = 2000
TT_ORDER_CORNER = 12  # tt-check at the scalar point 0.5,0.5
TT_ORDER_POINT = 10  # tt-check of ex52 and of the polynomial at the level-3 point
TAYLOR_ORDER = 12
POLY_TERMS = 600
POLY_DEGREE = 12
POINT_RADIUS = 0.7  # sup norm of the seeded level-3 point, inside the bidisk

WORKLOADS = {
    # name: (probe level or None, jobs in the list, jobs in the traced subset,
    #        seconds one pass of the list took on the seed code, 2-core sandbox)
    "probe-l1": (1, 22, 6, 22.0),
    "probe-l8": (8, 2, 2, 8.0),
    "truncation": (None, 4, 4, 6.0),
}


@dataclass(frozen=True)
class Job:
    """One unit of timed work and what its correctness gate needs to know."""

    kind: str  # "probe" | "tt-check" | "taylor"
    argv: tuple[str, ...] = ()
    csv: Path | None = None
    level: int = 0
    order: int = 0
    # exact work units known before the run: the words whose coefficient,
    # remainder term or quotient term a truncation job evaluates; probe jobs
    # report theirs (evaluations + failures) in their output
    units: int = 0

    def label(self) -> str:
        return " ".join(self.argv) if self.argv else f"taylor_polynomial(ex52, {self.order})"


@dataclass(frozen=True)
class Outcome:
    rc: int
    seconds: float
    stdout: str
    csv: bytes = b""
    value: object = None  # the library call's return value


def probe_argv(level: int, budget: int, seed: int, csv: Path | None) -> tuple[str, ...]:
    argv = ["probe", "--realization", "ex52", "--ball", "polydisk:2", "--level", str(level)]
    argv += ["--budget", str(budget), "--seed", str(seed)]
    if csv is not None:
        argv += ["--out", str(csv)]
    return tuple(argv)


def job_seeds(seed: int, count: int) -> list[int]:
    # spaced draws: probe sample i of seed s uses s + i, so adjacent seeds
    # would share almost all of their multistart samples
    rng = np.random.default_rng([seed, 0x6E63])
    return [int(s) for s in rng.integers(0, 2**31 - PROBE_BUDGET, size=count)]


def level3_point(seed: int) -> dict:
    """A seeded level-3 point of the bidisk with sup norm POINT_RADIUS."""
    rng = np.random.default_rng([seed, 0x7074])
    raw = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    scale = POINT_RADIUS / max(float(np.linalg.norm(raw[j], 2)) for j in range(2))
    entries = raw * scale
    return {
        "n": 3,
        "d": 2,
        "entries": [[[[float(v.real), float(v.imag)] for v in row] for row in entries[j]] for j in range(2)],
    }


def seeded_poly(seed: int) -> str:
    """POLY_TERMS seeded terms in z1, z2 of size <= POLY_DEGREE, one of full degree."""
    rng = np.random.default_rng([seed, 0x706F])
    terms = []
    for t in range(POLY_TERMS):
        size = POLY_DEGREE if t == 0 else int(rng.integers(0, POLY_DEGREE + 1))
        letters = rng.integers(1, 3, size=size)
        re, im = rng.uniform(-1.0, 1.0, 2)
        monomial = "".join(f"*z{letter}" for letter in letters)
        terms.append(f"({re:.3f}{im:+.3f}i){monomial}")
    return " + ".join(terms)


def make_jobs(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The workload's fixed job list for this seed; writes its input files."""
    level, count, _, _ = WORKLOADS[workload]
    work_dir.mkdir(parents=True, exist_ok=True)
    if level is not None:
        jobs = []
        for i, job_seed in enumerate(job_seeds(seed, count)):
            csv = work_dir / f"job{i}.csv"
            jobs.append(Job("probe", probe_argv(level, PROBE_BUDGET, job_seed, csv), csv, level=level))
        return jobs
    point = work_dir / "point3.json"
    point.write_text(json.dumps(level3_point(seed), sort_keys=True) + "\n", encoding="utf-8")
    tt = ("tt-check", "--point")
    return [
        Job("tt-check", (*tt, "0.5,0.5", "--realization", "ex52", "-N", str(TT_ORDER_CORNER)),
            order=TT_ORDER_CORNER, units=2**TT_ORDER_CORNER),
        Job("tt-check", (*tt, str(point), "--realization", "ex52", "-N", str(TT_ORDER_POINT)),
            order=TT_ORDER_POINT, units=2**TT_ORDER_POINT),
        Job("tt-check", (*tt, str(point), "--poly", seeded_poly(seed), "-N", str(TT_ORDER_POINT)),
            order=TT_ORDER_POINT, units=2**TT_ORDER_POINT),
        Job("taylor", order=TAYLOR_ORDER, units=2**TAYLOR_ORDER - 1),
    ]


def warmup_job(workload: str, seed: int, work_dir: Path) -> Job:
    """A small job of the workload's kind, run untimed before the first timed job."""
    level, _, _, _ = WORKLOADS[workload]
    if level is not None:
        return Job("probe", probe_argv(level, 20, job_seeds(seed, 1)[0], work_dir / "warmup.csv"),
                   work_dir / "warmup.csv", level=level)
    return Job("tt-check", ("tt-check", "--point", "0.5,0.5", "--realization", "ex52", "-N", "4"), order=4, units=16)


def cli_call(argv) -> tuple[int, str]:
    """ncball.cli.main(argv) in this process, with stdout captured."""
    import ncball.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ncball.cli.main(list(argv))
    return rc, out.getvalue()


@contextlib.contextmanager
def _timed(clock: list, recorder=None, sampler=None):
    """Time the block, less the time spent sampling machine speed (speed.py).

    When tracing, the block is recorded as the job's root span.
    """
    if recorder is not None:
        recorder.enabled = True
        recorder.open("bench.job", "bench")
    start = time.perf_counter()
    if sampler is not None:
        sampler.start()
    try:
        yield
    finally:
        sampling = sampler.stop() if sampler is not None else 0.0
        clock.append(time.perf_counter() - start - sampling)
        if recorder is not None:
            recorder.close()
            recorder.enabled = False


def run_job(job: Job, recorder=None, sampler=None) -> Outcome:
    """Run one job; only the call itself is inside the timed region."""
    import ncball.realize

    clock: list[float] = []
    if job.kind == "taylor":
        f = ncball.realize.bidisk_witness()
        with _timed(clock, recorder, sampler):
            value = ncball.realize.taylor_polynomial(f, job.order)
        return Outcome(0, clock[0], "", value=value)
    if job.csv is not None:
        job.csv.unlink(missing_ok=True)
    with _timed(clock, recorder, sampler):
        rc, stdout = cli_call(job.argv)
    csv = job.csv.read_bytes() if job.csv is not None and job.csv.exists() else b""
    return Outcome(rc, clock[0], stdout, csv)
