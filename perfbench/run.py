"""ncball benchmark: seeded CLI workloads, a correctness gate, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload probe-l1 --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

One client in one process runs a closed loop: each job is an in-process
``ncball.cli.main(argv)`` call (or the truncation workload's
``taylor_polynomial`` call) started only after the previous one returned,
with BLAS pinned to one thread.  The workload's fixed job list, generated
from ``--seed``, runs in as many passes as fill ``--seconds`` at the seed
code's speed (at least one); the count depends on ``--seconds`` alone, so
two commits time the same jobs.  Every job goes through the correctness
gate in gate.py.  End-to-end times are in reference seconds, wall time
corrected for the shared machine's speed phases (speed.py); the wall-clock
figures are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
jobs of the list once untraced and once with every layer wrapped (tracer.py),
then once more to check that the exact work counts repeat, and prints the
per-layer metrics.  The last line of stdout is always one JSON object with
the keys correct, attempted, failed and metrics; the lines before it name
every metric with its unit, the environment stamp and the sample counts.
Spans and the full result are written under .perfbench_out/.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is imported anywhere in this process
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_REFERENCE_LOOPS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it


def import_ncball() -> None:
    """Import ncball from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import ncball

    if Path(ncball.__file__).resolve().parent != ROOT / "src" / "ncball":
        raise ImportError(f"ncball imported from {ncball.__file__}, not from {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND jobs beyond it.

    With k sorted values the i-th (1-based) has k - i values beyond it, so the
    choice is i = k - TAIL_BEYOND, reported as percentile 100 i / k.  When that
    percentile would lie below the median (fewer than 2 TAIL_BEYOND values),
    the slowest job is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if 2 * rank < len(ordered):
        return 100.0, ordered[-1]
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# environment stamp


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload_seed": seed,
    }


def git_sha() -> str | None:
    """HEAD's commit id read from .git; None outside a git checkout or for packed refs."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None


def source_digest() -> str:
    """sha256 over src/ncball/*.py, names and bytes, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncball").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, work_dir: Path):
    """Generate the inputs and run the untimed warm-up job; returns the job list."""
    from jobs import make_jobs, run_job, warmup_job

    jobs = make_jobs(workload, seed, work_dir)
    warmup = run_job(warmup_job(workload, seed, work_dir))
    if warmup.rc != 0:
        raise RuntimeError(f"warm-up job exited {warmup.rc}")
    return jobs


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Wall and reference seconds from launching a fresh interpreter until it is ready.

    Each child imports, generates the inputs, runs the warm-up job and prints
    its perf_counter reading (a system-wide monotonic clock on Linux, so the
    child's exit is not part of the sample), then times the reference loop on
    its own core, since the two cores of the sandbox change speed apart.
    """
    from speed import to_reference

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    wall, reference = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=120)
        report = json.loads(child.stdout.splitlines()[-1])
        wall.append(report["ready"] - start)
        reference.append(to_reference(wall[-1], report["reference_loops"]))
    return wall, reference


# ---------------------------------------------------------------------------
# running jobs


class Tally:
    """Per-job times, gate verdicts and output facts of one group of jobs."""

    def __init__(self, sampled: bool = True):
        from speed import SpeedSampler

        self.sampler = SpeedSampler() if sampled else None
        self.seconds: list[float] = []  # reference seconds when sampled, else wall
        self.wall_seconds: list[float] = []
        self.failed: list[str] = []
        self.facts: Counter = Counter()
        self.out_bytes = 0

    def run(self, job, frozen=None, recorder=None):
        from gate import check_job
        from jobs import run_job

        outcome = run_job(job, recorder, self.sampler)
        self.wall_seconds.append(outcome.seconds)
        self.seconds.append(self.sampler.to_reference(outcome.seconds) if self.sampler else outcome.seconds)
        problems, facts = check_job(job, outcome, frozen)
        self.facts.update(facts)
        self.out_bytes += len(outcome.stdout.encode("utf-8")) + len(outcome.csv)
        if problems:
            self.failed.append(f"{job.label()[:80]}: {'; '.join(problems)}")
        return outcome


def frozen_digests(workload: str, seed: int, count: int) -> list:
    from gate import DEFAULT_SEED, load_frozen

    if seed != DEFAULT_SEED:
        return [None] * count
    return load_frozen()["jobs"][workload]


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the seed code's speed.

    The count depends on ``seconds`` only, not on the measured speed, so both
    sides of a comparison time the same jobs and their percentiles match.
    """
    from jobs import WORKLOADS

    return max(1, round(seconds / WORKLOADS[workload][3]))


def timed_passes(jobs, frozen, count: int) -> tuple[Tally, list[slice]]:
    """Run the job list ``count`` times; returns the tally and each pass's jobs."""
    tally = Tally()
    passes = []
    for _ in range(count):
        first = len(tally.seconds)
        for job, digests in zip(jobs, frozen):
            tally.run(job, digests)
        passes.append(slice(first, len(tally.seconds)))
    return tally, passes


def end_to_end(pass_total: int, setup, jobs, frozen) -> tuple[dict, Tally, list[str]]:
    setup_wall, setup_samples = setup
    tally, passes = timed_passes(jobs, frozen, pass_total)
    seconds = tally.seconds
    percentile, tail_s = tail(seconds)
    units = tally.facts["units"]
    pass_walls = [sum(seconds[p]) for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        # per pass, then across passes: the list mixes job kinds, and a pooled
        # median would sit between the slowest copy of one and the fastest of another
        "job_s_p50": (statistics.median([statistics.median(seconds[p]) for p in passes]), "s"),
        "job_s_tail": (tail_s, "s"),
        "evals_per_s": (units / sum(seconds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        "times are reference seconds (speed.py); wall clock: "
        f"setup {statistics.median(setup_wall)!r} s, job p50 {statistics.median(tally.wall_seconds)!r} s, "
        f"all jobs {sum(tally.wall_seconds)!r} s",
        f"samples: setup_s {len(setup_samples)} interpreters, wall_s {len(passes)} passes of "
        f"{len(jobs)} jobs (job_s_p50 is their median pass median), job_s_tail {len(seconds)} jobs",
        f"job_s_tail is p{percentile:.1f} of {len(seconds)} jobs",
        f"fail_ratio = {ratio(len(tally.failed), len(seconds))!r} ({len(tally.failed)}/{len(seconds)} jobs)",
        f"eval_fail_ratio = {ratio(tally.facts['failures'], units)!r} "
        f"({tally.facts['failures']}/{units} evaluations attempted)",
        f"us_per_eval = {1e6 * sum(tally.wall_seconds) / units!r} us wall clock over {units} evaluations attempted",
    ]
    return metrics, tally, notes


def layer_metrics(rec, tally: Tally, untraced_s: float) -> dict:
    """Per-layer metrics from one traced pass; ``tally`` holds that pass."""
    evals = tally.facts["units"]
    calls, total, self_s, counts = rec.calls, rec.total_s, rec.self_s, rec.counts
    layer_self = rec.layer_self_s

    kernel_flops = counts["mattuple.seq_solve.flops"] + counts["mattuple.seq_matmul.flops"]
    kernel_s = total["mattuple.seq_solve"] + total["mattuple.seq_matmul"]
    coeff_spans = ("power_series_coefficient", "remainder_values", "homogeneous_value", "letter_matrix")
    all_svd = sum(n for key, n in counts.items() if key.endswith((".svd", ".cond")))
    all_kron = sum(n for key, n in counts.items() if key.endswith(".kron"))
    m = {
        "realize.self_s": (layer_self["realize"], "s"),
        "realize.eval.calls": (calls["realize.Realization.eval"], "count"),
        "realize.eval.self_s": (self_s["realize.Realization.eval"], "s"),
        "realize.kron.calls": (counts["realize.kron"], "count"),
        "realize.kron.calls_per_eval": (ratio(counts["realize.kron"], evals), "count"),
        "realize.cond.calls_per_eval": (ratio(counts["realize.cond"], evals), "count"),
        "realize.coeff.self_s": (sum(self_s[f"realize.Realization.{name}"] for name in coeff_spans), "s"),
        "mattuple.self_s": (layer_self["mattuple"], "s"),
        "mattuple.seq_solve.calls": (calls["mattuple.seq_solve"], "count"),
        "mattuple.seq_solve.s": (total["mattuple.seq_solve"], "s"),
        "mattuple.seq_solve.flops": (counts["mattuple.seq_solve.flops"], "flop"),
        "mattuple.seq_matmul.calls": (calls["mattuple.seq_matmul"], "count"),
        "mattuple.seq_matmul.s": (total["mattuple.seq_matmul"], "s"),
        "mattuple.seq_matmul.flops": (counts["mattuple.seq_matmul.flops"], "flop"),
        "mattuple.kernel_flops_per_s": (ratio(kernel_flops, kernel_s), "flop/s"),
        "mattuple.eval_word.calls": (calls["mattuple.eval_word"], "count"),
        "mattuple.eval_word.s": (total["mattuple.eval_word"], "s"),
        "opball.self_s": (layer_self["opball"], "s"),
        "opball.norm_at.calls_per_eval": (ratio(calls["opball.OperatorBall.norm_at"], evals), "count"),
        "opball.svd.calls_per_eval": (ratio(counts["opball.svd"], evals), "count"),
        "opball.pencil_eval.s": (total["opball.pencil_eval"], "s"),
        "probe.self_s": (layer_self["probe"], "s"),
        "probe.sample_in_ball.s": (total["probe.sample_in_ball"], "s"),
        "evals_per_job": (ratio(evals, len(tally.seconds)), "count"),
        "probe.budget_used_ratio": (ratio(tally.facts["evaluations"], tally.facts["budget"]), "ratio"),
        "probe.improve_ratio": (ratio(tally.facts["improvements"], tally.facts["evaluations"]), "ratio"),
        "probe.eval_fail_ratio": (ratio(tally.facts["failures"], evals), "ratio"),
        "freealg.self_s": (layer_self["freealg"], "s"),
        "freealg.words_of_size.words": (counts["freealg.words_of_size.items"], "count"),
        "freealg.words_of_size.s": (total["freealg.words_of_size"], "s"),
        "freealg.left_divide.s": (total["freealg.left_divide"], "s"),
        "ncdiff.self_s": (layer_self["ncdiff"], "s"),
        "ncdiff.tt_check.self_s": (self_s["ncdiff.tt_check"], "s"),
        "ncdiff.nc_eval.calls": (calls["ncdiff.nc_eval"], "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.out_bytes": (tally.out_bytes, "B"),
        "np.kron.calls_per_eval": (ratio(all_kron, evals), "count"),
        "np.kron.s": (total["np.kron"], "s"),
        "np.svd.calls_per_eval": (ratio(all_svd, evals), "count"),
        "trace_overhead_ratio": (ratio(sum(tally.seconds), untraced_s), "ratio"),
        "trace.unattributed_s": (self_s["bench.job"], "s"),
    }
    return m


def exact_counts(rec) -> Counter:
    """The counts that must repeat exactly: span calls, leaf calls, flops, words."""
    return Counter({f"calls:{k}": v for k, v in rec.calls.items()}) + rec.counts


def traced(workload, seed, jobs, frozen) -> tuple[dict, Tally, list[str], list[str]]:
    from jobs import WORKLOADS
    from tracer import Instrumentation, Recorder

    subset = jobs[: WORKLOADS[workload][2]]
    frozen = frozen[: len(subset)]
    # no speed sampling: its reference loop would be traced
    untraced = Tally(sampled=False)
    for job, digests in zip(subset, frozen):
        untraced.run(job, digests)
    rec = Recorder()
    instrumentation = Instrumentation(rec)
    instrumentation.install()
    try:
        tally = Tally(sampled=False)
        for index, (job, digests) in enumerate(zip(subset, frozen)):
            rec.job = index
            tally.run(job, digests, rec)
            if index == 0:
                first_counts = exact_counts(rec)
        metrics = layer_metrics(rec, tally, sum(untraced.seconds))
        # rerun the first job and compare its exact counts with its first run
        before = exact_counts(rec)
        rec.job = len(subset)
        Tally(sampled=False).run(subset[0], frozen[0], rec)
        rerun_counts = exact_counts(rec) - before
    finally:
        instrumentation.uninstall()
    problems = []
    if rerun_counts != first_counts:
        problems.append("exact work counts differ between two traced runs of the same job")
    spans = OUT_DIR / workload / f"spans-seed{seed}.csv.gz"
    rec.write_spans(spans)
    # the traced pass's exact counts, for comparison across runs and commits
    counts = OUT_DIR / workload / f"counts-seed{seed}.json"
    counts.write_text(json.dumps(dict(exact_counts(rec) - rerun_counts), indent=1, sort_keys=True) + "\n")
    notes = [
        f"samples: {len(subset)} jobs untraced then traced, {rec.span_count()} spans written to {spans.relative_to(ROOT)}",
        f"exact counts of job 0 repeat: {not problems}; counts written to {counts.relative_to(ROOT)}",
        f"kron_per_eval = {metrics['np.kron.calls_per_eval'][0]!r}, svd_per_eval = {metrics['np.svd.calls_per_eval'][0]!r}",
        f"unattributed job time = {metrics['trace.unattributed_s'][0]!r} s of {sum(tally.seconds)!r} s traced",
    ]
    return metrics, tally, notes, problems


# ---------------------------------------------------------------------------
# entry points


def measure(workload: str, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
            job_limit: int | None = None) -> dict:
    """One benchmark run; returns the result printed as the last line."""
    from gate import run_checks

    work_dir = OUT_DIR / workload
    setup = None if trace else measure_setup(workload, seed, setup_repeats)
    jobs = set_up(workload, seed, work_dir)[:job_limit]
    frozen = frozen_digests(workload, seed, len(jobs))[: len(jobs)]
    problems = run_checks(seed, work_dir)
    if trace:
        metrics, tally, notes, count_problems = traced(workload, seed, jobs, frozen)
        problems += count_problems
    else:
        metrics, tally, notes = end_to_end(pass_count(workload, seconds), setup, jobs, frozen)
    env = environment(seed)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for note in notes:
        print(note)
    for problem in problems + tally.failed:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": not problems and not tally.failed,
        "attempted": len(tally.seconds),
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "trace": int(trace), "env": env, "notes": notes,
              "problems": problems + tally.failed, "job_seconds": tally.seconds, **result}
    (work_dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def smoke() -> int:
    """Short self-test: metric names and units, and a caught output mutation."""
    import dataclasses

    from gate import check_job, load_frozen
    from jobs import make_jobs, run_job

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in ("probe-l1", "probe-l8", "truncation"):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            job_limit = 1 if workload.startswith("probe") else None
            result = measure(workload, 0, 0.0, trace, setup_repeats=1, job_limit=job_limit)
            if not result["correct"]:
                failures.append(f"{workload} trace={int(trace)}: gate failed")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    failures.append(f"{workload} trace={int(trace)}: {metric['name']} missing or not in {metric['unit']}")
    # a flipped digit in a CSV value and in the stdout must both be caught
    job = make_jobs("probe-l1", 0, OUT_DIR / "probe-l1")[0]
    outcome = run_job(job)
    frozen = load_frozen()["jobs"]["probe-l1"][0]
    if check_job(job, outcome, frozen)[0]:
        failures.append("the unaltered seed-0 probe job fails the gate")
    lines = outcome.csv.split(b"\n")
    cells = lines[2].split(b",")
    cells[2] = cells[2][:-1] + (b"2" if cells[2].endswith(b"1") else b"1")
    lines[2] = b",".join(cells)
    altered_csv = b"\n".join(lines)
    best = json.loads(outcome.stdout)["best_value"]
    altered_out = outcome.stdout.replace(repr(best), repr(best - 2.0**-40))
    altered_csv, altered_out = dataclasses.replace(outcome, csv=altered_csv), dataclasses.replace(outcome, stdout=altered_out)
    if not check_job(job, altered_csv, frozen)[0]:
        failures.append("a flipped digit in the CSV passed the gate")
    # best_value is re-evaluated at the argmax, so this is caught for any seed
    if not check_job(job, altered_out, None)[0]:
        failures.append("a changed best_value in the stdout passed the gate")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


def main(argv=None) -> int:
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up once and exit (used to time set-up)")
    parser.add_argument("--smoke", action="store_true", help="run the short self-test")
    args = parser.parse_args(argv)
    try:
        import_ncball()
    except ImportError as exc:
        print(f"cannot import the ncball sources of this checkout: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        from speed import reference_loop

        set_up(args.workload, args.seed, OUT_DIR / args.workload)
        ready = time.perf_counter()
        print(json.dumps({"ready": ready, "reference_loops": [reference_loop() for _ in range(SETUP_REFERENCE_LOOPS)]}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
