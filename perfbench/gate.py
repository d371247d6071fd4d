"""Correctness gate: per-job output checks and the once-per-run invariants.

A job passes when it exits 0 and its outputs satisfy the checks of its kind:

- probe: best_value <= 1 + 1e-9 (ex52 is a complete contraction), the
  reported argmax re-evaluates bitwise to best_value and lies strictly inside
  the ball, and the CSV has one row per evaluation under the seed header;
- tt-check: the defect is at most the tolerance;
- taylor: summed at the scalar point (t, t) the polynomial gives t, because
  ex52 restricted to the diagonal is the identity;
- for the default workload seed, the stdout and CSV bytes hash to the
  digests in frozen.json, recorded from the seed code.

Once per run the benchmark also checks that a probe job reruns to the same
bytes, that ex52 respects a direct sum of two level-4 points bitwise, and
that three fast CLI commands still print their frozen output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FROZEN = Path(__file__).resolve().parent / "frozen.json"
DEFAULT_SEED = 0
CONTRACTION_SLACK = 1e-9
DIAGONAL_POINT = 0.5
DIAGONAL_TOL = 1e-12

FROZEN_COMMANDS = {
    "blowup": ("blowup", "--target", "delta1:ex52", "--eps", "0.1,0.01,0.001"),
    "delta": ("delta", "--realization", "ex52", "--point", "0.99+0.1i,0.99-0.1i", "--direction", "e1"),
    "reproduce": ("reproduce", "ex52", "--seed", "0", "--samples", "10"),
}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_frozen() -> dict:
    return json.loads(FROZEN.read_text(encoding="utf-8"))


def output_text(job, outcome) -> str:
    """The bytes a job is judged by: stdout, or the Taylor polynomial as triples."""
    if job.kind != "taylor":
        return outcome.stdout
    from ncball.freealg import to_triples

    return "".join(f"{word},{re!r},{im!r}\n" for word, re, im in to_triples(outcome.value))


def digests(job, outcome) -> dict:
    return {"stdout": sha256(output_text(job, outcome)), "csv": sha256(outcome.csv)}


def check_job(job, outcome, frozen: dict | None = None) -> tuple[list[str], dict]:
    """Problems found (empty when the job passes) and the facts read from its output.

    ``frozen`` holds the job's recorded digests, or is None when the run's
    seed has none.
    """
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"], {"units": job.units}
    check = {"probe": _check_probe, "tt-check": _check_tt, "taylor": _check_taylor}[job.kind]
    try:
        problems, facts = check(job, outcome)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"], {"units": job.units}
    if frozen is not None and digests(job, outcome) != frozen:
        problems.append("output bytes differ from the digests recorded for the default seed")
    return problems, facts


def _check_probe(job, outcome) -> tuple[list[str], dict]:
    import ncball
    from ncball.mattuple import point_from_dict
    from ncball.opball import polydisk
    from ncball.realize import bidisk_witness

    report = json.loads(outcome.stdout)
    problems = []
    best = report["best_value"]
    if not best <= 1.0 + CONTRACTION_SLACK:
        problems.append(f"best_value {best!r} exceeds 1 + {CONTRACTION_SLACK:g}")
    if report["argmax"] is None:
        problems.append("no argmax reported")
    else:
        x = point_from_dict(report["argmax"])
        if x.n != job.level:
            problems.append(f"argmax has level {x.n}, expected {job.level}")
        else:
            value = float(np.linalg.norm(bidisk_witness().eval(x), 2))
            if value.hex() != float(best).hex():
                problems.append(f"argmax re-evaluates to {value!r}, not best_value {best!r}")
            norm = polydisk(2).norm_at(x)
            if not norm < 1.0:
                problems.append(f"argmax is not strictly inside the ball (norm {norm!r})")
    lines = outcome.csv.decode("utf-8").splitlines()
    seed = report["seed"]
    values = []
    if lines[:2] != [f"# ncball {ncball.__version__} seed={seed}", "iteration,epsilon_or_sample_id,value,boundary_distance,seed"]:
        problems.append("CSV header is not the seed header and column line")
    else:
        values = [float(line.split(",")[2]) for line in lines[2:]]
    if len(values) != report["evaluations"]:
        problems.append(f"CSV has {len(values)} rows for {report['evaluations']} evaluations")
    # rows that raised the running best, as the probe's own update rule does
    improvements, running = 0, None
    for value in values:
        if running is None or value > running:
            improvements, running = improvements + 1, value
    facts = {
        "units": report["evaluations"] + report["failures"],
        "evaluations": report["evaluations"],
        "failures": report["failures"],
        "budget": report["budget"],
        "improvements": improvements,
    }
    return problems, facts


def _check_tt(job, outcome) -> tuple[list[str], dict]:
    report = json.loads(outcome.stdout)
    problems = []
    if report["order"] != job.order:
        problems.append(f"order {report['order']} reported for -N {job.order}")
    if not (report["passed"] and report["defect"] <= report["tol"]):
        problems.append(f"defect {report['defect']!r} exceeds tol {report['tol']!r}")
    return problems, {"units": job.units}


def _check_taylor(job, outcome) -> tuple[list[str], dict]:
    poly = outcome.value
    problems = []
    if poly.degree >= job.order:
        problems.append(f"degree {poly.degree} not below {job.order}")
    t = DIAGONAL_POINT
    total = sum(coeff * t ** len(word) for word, coeff in poly.terms.items())
    if not abs(total - t) <= DIAGONAL_TOL:
        problems.append(f"Taylor polynomial at ({t}, {t}) gives {total!r}, expected {t}")
    return problems, {"units": job.units}


def run_checks(seed: int, work_dir: Path) -> list[str]:
    """The once-per-run invariants; returns the problems found."""
    from jobs import cli_call, job_seeds, probe_argv
    from ncball.mattuple import direct_sum
    from ncball.realize import bidisk_witness

    problems = []
    # byte-identical rerun of one (small) probe job
    csv = work_dir / "rerun.csv"
    runs = []
    for _ in range(2):
        csv.unlink(missing_ok=True)
        rc, stdout = cli_call(probe_argv(2, 200, job_seeds(seed, 1)[0], csv))
        runs.append((rc, stdout, csv.read_bytes() if csv.exists() else b""))
    if runs[0][0] != 0 or runs[0] != runs[1]:
        problems.append("a rerun of the same probe job did not reproduce its bytes")
    # f(X (+) Y) is bitwise the block diagonal of f(X) and f(Y)
    rng = np.random.default_rng([seed, 0x6473])
    f = bidisk_witness()
    x, y = (_inside_point(rng, 4) for _ in range(2))
    fx, fy, fxy = f.eval(x), f.eval(y), f.eval(direct_sum(x, y))
    if not (np.array_equal(fxy[:4, :4], fx) and np.array_equal(fxy[4:, 4:], fy)
            and not fxy[:4, 4:].any() and not fxy[4:, :4].any()):
        problems.append("ex52 at X (+) Y is not bitwise the block diagonal of f(X), f(Y)")
    frozen = load_frozen()["commands"]
    for name, argv in FROZEN_COMMANDS.items():
        rc, stdout = cli_call(argv)
        if rc != 0 or sha256(stdout) != frozen[name]:
            problems.append(f"`ncball {' '.join(argv)}` no longer prints its frozen output")
    return problems


def _inside_point(rng, n: int):
    from ncball.mattuple import MatrixTuple

    raw = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    return MatrixTuple(raw * (0.9 / max(float(np.linalg.norm(raw[j], 2)) for j in range(2))))
