"""Command-line front end.

Subcommands: eval, coeff, delta, tt-check, probe, blowup, dichotomy, variety,
reproduce.  Every run is fully determined by argv plus input files; the only
randomness is seeded.  CSV output carries a comment line with seed and
version, complex values are written as (re, im) pairs, each float as the
shortest digit string that round-trips, and reruns with equal arguments are
byte-identical.

Exit codes: 0 success, 2 usage or input error, 1 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .freealg import PolyParseError, Word, _parse_finite, parse
from .mattuple import MatrixTuple, _unit_disk_points, complex_to_json, point_from_dict, to_point_dict
from .ncdiff import delta_first, tt_check
from .opball import ball_from_shorthand, membership
from .probe import (
    blowup_scan,
    builtin_dichotomy_case,
    corner_path,
    dichotomy_scan,
    estimate_sup,
)
from .realize import (
    BUILTIN_REALIZATIONS,
    Realization,
    bidisk_witness_closed_form,
    realization_from_dict,
)
from .varieties import generator_defect, variety_from_dict, variety_membership


def _write_text(out: str | None, text: str) -> None:
    """text to the file at out, or to stdout for '-' or no path."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _write_csv(out: str | None, columns, rows, seed) -> None:
    lines = [f"# ncball {__version__} seed={seed}"]
    lines.append(",".join(columns))
    for row in rows:
        # str of a float (numpy's too) is its repr: the shortest digit string that round-trips
        lines.append(",".join(map(str, row)))
    _write_text(out, "\n".join(lines) + "\n")


def _print_json(obj, out: str | None = None) -> None:
    _write_text(out, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float >= 0."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as np.random.default_rng needs."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _parse_complex(text: str) -> complex:
    poly = parse(text.strip(), 1)
    if poly.degree > 0:
        raise ValueError(f"{text!r} is not a constant")
    return poly.coefficient(())


def _load_point(text: str) -> MatrixTuple:
    """A point file, or an inline comma list of complex scalars."""
    if os.path.exists(text):
        return point_from_dict(_load_json(text))
    return MatrixTuple.scalars([_parse_complex(part) for part in text.split(",")])


def _load_direction(text: str, d: int) -> tuple[complex, ...]:
    text = text.strip()
    if text.startswith("e") and text[1:].isdigit():
        j = int(text[1:])
        if not 1 <= j <= d:
            raise ValueError(f"direction {text} outside e1..e{d}")
        return tuple(1.0 if i == j - 1 else 0.0 for i in range(d))
    values = tuple(_parse_complex(part) for part in text.split(","))
    if len(values) != d:
        raise ValueError(f"direction needs {d} components, got {len(values)}")
    if not np.isfinite(values).all():
        raise ValueError(f"--direction entries must be finite, got {text!r}")
    return values


def _resolve_realization(text: str) -> Realization:
    if text in BUILTIN_REALIZATIONS:
        return BUILTIN_REALIZATIONS[text]()
    if os.path.exists(text):
        return realization_from_dict(_load_json(text))
    raise ValueError(f"unknown realization {text!r} (builtin names: {', '.join(sorted(BUILTIN_REALIZATIONS))})")


def _resolve_function(args, d: int):
    """Pick the target from --poly/--realization; returns (function, label)."""
    if args.poly and args.realization:
        raise ValueError("give either --poly or --realization, not both")
    if args.poly:
        return _parse_finite(args.poly, d, "--poly"), f"poly:{args.poly}"
    if args.realization:
        return _resolve_realization(args.realization), f"realization:{args.realization}"
    raise ValueError("one of --poly or --realization is required")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    x = _load_point(args.point)
    f, _ = _resolve_function(args, d=x.d)
    value = f.eval(x)
    _print_json({"n": x.n, "value": complex_to_json(np.atleast_2d(value))}, args.out)
    return 0


def _cmd_coeff(args) -> int:
    f = _resolve_realization(args.realization)
    word = Word.from_string(args.word, f.d)
    value = f.power_series_coefficient(word)
    _print_json({"word": word.to_string(), "re": value.real, "im": value.imag})
    return 0


def _cmd_delta(args) -> int:
    x = _load_point(args.point)
    if x.n != 1:
        raise ValueError("delta takes a scalar (level-1) base point")
    f, _ = _resolve_function(args, d=x.d)
    point = tuple(complex(v) for v in x.entries[:, 0, 0])
    h = _load_direction(args.direction, x.d)
    value = delta_first(f, point, h)
    _print_json({"re": value.real, "im": value.imag, "modulus": abs(value)})
    return 0


def _cmd_tt_check(args) -> int:
    x = _load_point(args.point)
    f, _ = _resolve_function(args, d=x.d)
    report = tt_check(f, x, args.order, args.tol)
    _print_json({"order": args.order, "defect": report.defect, "tol": report.tol, "passed": report.passed})
    return 0


def _cmd_probe(args) -> int:
    if args.out == "-":
        raise ValueError("probe --out needs a file: the JSON report goes to stdout")
    ball = ball_from_shorthand(args.ball)
    f, label = _resolve_function(args, d=ball.d)
    margins = (args.margin,) if args.margin is not None else None
    report = estimate_sup(f, ball, args.level, args.budget, args.seed, target_label=label, margins=margins)
    if args.out:
        rows = [(r.iteration, r.label, r.value, r.boundary_distance, args.seed) for r in report.trajectory]
        _write_csv(args.out, ["iteration", "epsilon_or_sample_id", "value", "boundary_distance", "seed"], rows, args.seed)
    payload = {
        "target": report.target,
        "ball": report.ball,
        "level": report.level,
        "budget": report.budget,
        "seed": report.seed,
        "best_value": report.best_value,
        "evaluations": report.evaluations,
        "failures": report.failures,
        "settled": report.settled,
        "argmax": to_point_dict(report.argmax) if report.argmax is not None else None,
    }
    _print_json(payload)
    return 0


def _resolve_blowup_target(args):
    """Target spec: [delta1:|delta2:|resolvent:]NAME, or --poly via flags.

    Returns the callable that blowup_scan applies to each level-1 path point.
    """
    text = args.target
    if text is None:
        f, _ = _resolve_function(args, d=ball_from_shorthand(args.ball).d)
        return f.eval
    head, _, rest = text.partition(":")
    if head.startswith("delta") and head[5:].isdigit() and rest:
        j = int(head[5:])
        f = _resolve_realization(rest)
        if not 1 <= j <= f.d:
            raise ValueError(f"direction index {j} outside 1..{f.d}")
        direction = tuple(1.0 if i == j - 1 else 0.0 for i in range(f.d))
        return lambda x: delta_first(f, x.entries[:, 0, 0], direction)
    if head == "resolvent" and rest:
        return _resolve_realization(rest).resolvent_term
    return _resolve_realization(text).eval


def _cmd_blowup(args) -> int:
    if args.path != "builtin":
        raise ValueError(f"unknown path {args.path!r}; only 'builtin' is available")
    ball = ball_from_shorthand(args.ball)
    target = _resolve_blowup_target(args)
    eps_list = [float(part) for part in args.eps.split(",") if part.strip()]
    if not eps_list:
        raise ValueError("--eps needs at least one value")
    if not np.isfinite(eps_list).all():
        raise ValueError(f"--eps values must be finite, got {args.eps!r}")
    report = blowup_scan(target, corner_path, eps_list, ball)
    rows = []
    for row in report.rows:
        re = row.value.real if row.value is not None else ""
        im = row.value.imag if row.value is not None else ""
        rows.append((row.eps, re, im, row.norm))
    _write_csv(args.out, ["eps", "re", "im", "modulus"], rows, seed="-")
    return 0


def _cmd_dichotomy(args) -> int:
    if args.case:
        maps, ball, target_pencil = builtin_dichotomy_case(args.case)
    else:
        if not args.map or not args.ball:
            raise ValueError("give --case, or --map with --ball (and optionally --target-ball)")
        ball = ball_from_shorthand(args.ball)
        maps = tuple(_parse_finite(part, ball.d, "--map") for part in args.map.split(";"))
        target = ball_from_shorthand(args.target_ball) if args.target_ball else ball
        target_pencil = target.pencil
    _print_json(dataclasses.asdict(dichotomy_scan(maps, ball, target_pencil, args.samples, args.seed)))
    return 0


def _cmd_variety(args) -> int:
    variety = variety_from_dict(_load_json(args.variety))
    x = _load_point(args.point)
    member = variety_membership(variety, x, args.tol)
    verdict = membership(variety.ambient, x)
    _print_json(
        {
            "member": member,
            "ambient_kind": verdict.kind,
            "ambient_norm": verdict.norm,
            "generator_defect": generator_defect(variety, x),
            "tol": args.tol,
        }
    )
    return 0


def _cmd_reproduce(args) -> int:
    if args.name != "ex52":
        raise ValueError(f"unknown example {args.name!r}; only 'ex52' is available")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    f = BUILTIN_REALIZATIONS["ex52"]()
    rng = np.random.default_rng(args.seed)
    print(f"# ncball {__version__} seed={args.seed}")
    print(f"{'x1':>24} {'x2':>24} {'realization':>24} {'closed form':>24} {'|diff|':>12}")
    worst = 0.0
    for _ in range(args.samples):
        x1, x2 = _unit_disk_points(rng, 2)
        via_eval = complex(f.eval(MatrixTuple.scalars((x1, x2)))[0, 0])
        closed = bidisk_witness_closed_form(x1, x2)
        diff = abs(via_eval - closed)
        worst = max(worst, diff)
        print(f"{x1:>24.6f} {x2:>24.6f} {via_eval:>24.6f} {closed:>24.6f} {diff:>12.3e}")
    print(f"max |difference| = {worst:.3e}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncball",
        description="Bounded nc functions on operator balls: evaluate, differentiate, probe.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_function_flags(p, ball_default=None):
        p.add_argument("--poly", help="free polynomial expression in z1..zd")
        p.add_argument("--realization", help="builtin name (ex52) or a realization JSON file")
        if ball_default is not None:
            p.add_argument("--ball", default=ball_default, help="row:d, polydisk:d, or pencil:FILE")

    p_eval = sub.add_parser("eval", help="evaluate at a point file")
    add_function_flags(p_eval)
    p_eval.add_argument("--point", required=True, help="point JSON file or inline scalars")
    p_eval.add_argument("--out", help="write the value JSON here (default or '-': stdout)")
    p_eval.set_defaults(func=_cmd_eval)

    p_coeff = sub.add_parser("coeff", help="power series coefficient of a realization")
    p_coeff.add_argument("--realization", required=True)
    p_coeff.add_argument("--word", required=True, help="word as a digit string, empty for the constant term")
    p_coeff.set_defaults(func=_cmd_coeff)

    p_delta = sub.add_parser("delta", help="first difference Df(0,x)[h] at a scalar base point")
    add_function_flags(p_delta)
    p_delta.add_argument("--point", required=True, help="scalar base point (file or inline)")
    p_delta.add_argument("--direction", required=True, help="e1..ed or an inline complex list")
    p_delta.set_defaults(func=_cmd_delta)

    p_tt = sub.add_parser("tt-check", help="truncation identity check at a point")
    add_function_flags(p_tt)
    p_tt.add_argument("--point", required=True)
    p_tt.add_argument("-N", "--order", type=int, required=True)
    p_tt.add_argument("--tol", type=_tolerance, default=1e-9)
    p_tt.set_defaults(func=_cmd_tt_check)

    p_probe = sub.add_parser("probe", help="estimate a sup norm over a ball level")
    add_function_flags(p_probe, ball_default="polydisk:2")
    p_probe.add_argument("--level", type=int, default=1)
    p_probe.add_argument("--budget", type=int, default=2000)
    p_probe.add_argument("--seed", type=_seed, default=0)
    p_probe.add_argument("--margin", type=float, help="override the multistart margin schedule with one margin")
    p_probe.add_argument("--out", help="write the trajectory CSV to this file (the JSON report goes to stdout)")
    p_probe.set_defaults(func=_cmd_probe)

    p_blowup = sub.add_parser("blowup", help="scan a target along the builtin corner path")
    p_blowup.add_argument("--target", help="[delta1:|delta2:|resolvent:]REALIZATION")
    add_function_flags(p_blowup, ball_default="polydisk:2")
    p_blowup.add_argument("--path", default="builtin")
    p_blowup.add_argument("--eps", required=True, help="comma-separated eps values")
    p_blowup.add_argument("--out", help="write the CSV here (default or '-': stdout)")
    p_blowup.set_defaults(func=_cmd_blowup)

    p_dich = sub.add_parser("dichotomy", help="classify the image of a ball under a polynomial map")
    p_dich.add_argument("--case", choices=("half", "identity", "boundary"), help="builtin case")
    p_dich.add_argument("--map", help="semicolon-separated component polynomials")
    p_dich.add_argument("--ball", help="source ball shorthand")
    p_dich.add_argument("--target-ball", help="target ball shorthand (defaults to the source)")
    p_dich.add_argument("--samples", type=int, default=60)
    p_dich.add_argument("--seed", type=_seed, default=0)
    p_dich.set_defaults(func=_cmd_dichotomy)

    p_var = sub.add_parser("variety", help="variety membership of a point")
    p_var.add_argument("--variety", required=True, help="variety JSON file")
    p_var.add_argument("--point", required=True)
    p_var.add_argument("--tol", type=_tolerance, default=1e-10)
    p_var.set_defaults(func=_cmd_variety)

    p_rep = sub.add_parser("reproduce", help="print a closed-form agreement table for a builtin")
    p_rep.add_argument("name", help="builtin name (ex52)")
    p_rep.add_argument("--seed", type=_seed, default=0)
    p_rep.add_argument("--samples", type=int, default=10)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        # IllConditionedError and BudgetExceededError are RuntimeErrors; ArithmeticError takes in OverflowError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (PolyParseError, ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
