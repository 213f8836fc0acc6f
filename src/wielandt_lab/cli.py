"""Command-line front end: batch verification, bound tables, conjecture
search, and the closed-form equality demo.

Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage
error (an output path that cannot be written included, found before any
trial runs), 3 the conjecture probe crossed its discovery threshold (a witness dump
is written for replay).  Reports are deterministic given the seed; wall-clock
fields live only in the manifest so diffing reports stays meaningful.  The
environment variable WIELANDT_LAB_THREADS caps worker processes (default:
the CPUs in this process's affinity mask); results never depend on the worker
count.

``sampling.fan_out`` hands ``verify`` its trials one block at a time
(``_verify_part``), and every check of a block is evaluated on stacked arrays
(``bounds.instance_checks_stack`` and ``bounds.lemma_checks_stack``), the
only implementation of each check.  A trial is two units, its instance
checks and its lemma checks (see ``run_verify``).  A block's units are
drawn on one ``rngs_from`` stream per part, over the generators of the units
the part holds (3 instance and 6 lemma generators a trial), and each part
returns only tallies, made where it runs: one for a whole block, one per
family for a part of a block that a worker's share cuts.  The families have
no check name in common and tallies merge in any order, so the report does
not depend on where the cut falls; only a trial error, which voids both
families of its trial, has the caller check its cut block again whole.  A
block scores its exponent grid in groups of
exponents (see ``bounds.instance_checks_stack``), each group as one
``(P, B, d, d)`` stack.
A failing check of a trial becomes a failure entry holding that trial's
report; a trial that fails a hypothesis in either family becomes one
``trial_error`` entry with the exception's message.  Each check reports the
trial of its worst margin (``worst_trial``, lowest index on ties) so near
misses can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, sampling
from .bounds import (
    ALL_CHECK_NAMES,
    DEFAULT_TOL,
    LaneChecks,
    check_in_range,
    check_tol,
    compare_bounds,
    crossover_threshold,
    instance_checks_stack,
    lemma_checks_stack,
    lemma_seeds,
    run_instance_checks,
    snap_exponent,
    thm2_tail_note,
)
from .errors import InvalidBounds, InvalidExponent, WielandtLabError
from .instances import (
    check_bounds,
    check_dims,
    degenerate_instance,
    extremal_instance,
    instance_seeds,
)
from .matcore import check_exponent
from .sampling import fan_out, mix_seeds, rngs_from
from .search import OBJECTIVES, SearchConfig, conjecture_ratio, run_search
from .stacked import compressed_products_stack

DISCOVERY_FACTOR = 10.0  # discovery threshold: best_value > 1 + 10 * tol
# Most points a p grid may have.  The count is known before any point is
# built, so "1:1e9:1" exits 2 instead of allocating a billion floats.  A
# verify block scores its exponents in groups of about one full block of
# (exponent, trial) lanes (bounds.instance_checks_stack), so a long grid
# costs stacked work per group of exponents, not memory; the
# bound table's 60-point default is far below this.
MAX_GRID_POINTS = 10_000


class UsageError(Exception):
    """Invalid flags or flag combinations; mapped to exit code 2."""


def worker_count() -> int:
    raw = os.environ.get("WIELANDT_LAB_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"WIELANDT_LAB_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise UsageError("WIELANDT_LAB_THREADS must be >= 1")
        return value
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def parse_p_list(text: str) -> list[float]:
    """Comma list ("0.5,1,2") or inclusive grid ("start:stop:step"); values
    within 1e-12 of a positive integer are snapped to it (snap_exponent)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError as exc:
            raise UsageError(f"non-numeric grid {text!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise UsageError(f"invalid grid {text!r}")
        steps = (stop - start) / step + 1e-6
        if not steps < MAX_GRID_POINTS:  # floor(steps) + 1 points; also catches inf
            raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        n_steps = int(math.floor(steps))
        values = [start + i * step for i in range(n_steps + 1)]
        values = [v for v in values if v <= stop + step * 1e-6]
    else:
        try:
            values = [float(x) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise UsageError(f"non-numeric p list {text!r}") from exc
        if not values:
            raise UsageError("empty p list")
    out = []
    for v in values:
        if not math.isfinite(v) or v <= 0.0:
            raise UsageError(f"p values must be finite and > 0, got {v!r}")
        out.append(snap_exponent(v))
    return out


def check_writable(path: str) -> None:
    """UsageError unless a file can be written at `path`; commands call it
    after their flags are checked and before any trial runs.  Creates
    nothing."""
    parent = os.path.dirname(path) or "."
    if not path:
        reason = "empty path"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent!r}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"cannot write {path!r}: {reason}")


def write_report(path: str, report: dict) -> None:
    """`report` as indented JSON and a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def _manifest(subcommand: str, config: dict, seed: int, started: str, counters: dict) -> dict:
    return {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "config": config,
        "started_at": started,
        "finished_at": _now(),
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyParams:
    trials: int
    ambient: int
    rank: int
    out_dim: int
    ancilla: int
    m: float
    M: float
    p_values: tuple
    tol: float
    seed: int

    @property
    def lemma_dim(self) -> int:  # the lemma generators need dimension >= 2
        return max(self.rank, 2)

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_bounds(self.m, self.M)
        check_tol(self.tol)
        check_dims(self.ambient, self.rank, self.out_dim, self.ancilla)
        for p in self.p_values:
            check_exponent(p)
        check_in_range(self.m, self.M, self.p_values, square_order=True)

    def config(self) -> dict:
        return {
            "trials": self.trials,
            "N": self.ambient,
            "n": self.rank,
            "d": self.out_dim,
            "k": self.ancilla,
            "m": self.m,
            "M": self.M,
            "p": list(self.p_values),
            "tol": self.tol,
            "seed": self.seed,
        }


def _tally(stats: dict, name: str, run: int, fail: int, margin, trial) -> None:
    """Add counts to a check's [run, fail, worst_margin, worst_trial] entry;
    the worst margin is the smallest (margin, trial) pair."""
    entry = stats.setdefault(name, [0, 0, None, None])
    entry[0] += run
    entry[1] += fail
    if margin is not None and (entry[2] is None or (margin, trial) < (entry[2], entry[3])):
        entry[2], entry[3] = margin, trial


def _instance_lanes(params: VerifyParams, trials: range, seeds, rngs) -> LaneChecks:
    """The instance family's checks of trials `trials` (trial seeds `seeds`),
    one lane per trial, drawn from `rngs`."""
    s, t, t_eig, errors = compressed_products_stack(
        rngs, len(trials), params.ambient, params.rank, params.out_dim, params.ancilla,
        params.m, params.M,
    )
    return instance_checks_stack(
        s, t, t_eig, errors, seeds, params.m, params.M, params.p_values, params.tol
    )


def _lemma_lanes(params: VerifyParams, trials: range, seeds, rngs) -> LaneChecks:
    """The lemma family's checks of trials `trials`, one lane per trial,
    drawn from `rngs`."""
    return lemma_checks_stack(
        rngs, np.arange(trials.start, trials.stop) % 4, params.lemma_dim, params.ambient,
        params.m, params.M, params.tol,
    )


# The check families of a trial, in report order: the seed rows of their
# generators for trial seeds, and their checks.
_FAMILIES = ((instance_seeds, _instance_lanes), (lemma_seeds, _lemma_lanes))


def _tally_block(trials: range, lanes: LaneChecks) -> tuple:
    """Per-check statistics of trials `trials` (run and fail counts and worst
    margins of the lanes without a trial error) and the JSON of every
    failing report, in trial order, from their checks `lanes`."""
    stats: dict[str, list] = {}
    failures: list[dict] = []
    bad = lanes.errors.bad
    clean = np.flatnonzero(~bad)
    passed = np.array([verdicts for _, verdicts, _, _ in lanes.checks])  # (check, lane)
    fails = np.count_nonzero(~passed[:, clean], axis=1).tolist()
    by_name: dict[str, list] = {}
    for (name, _, margin, _), fail in zip(lanes.checks, fails):
        by_name.setdefault(name, []).append((fail, margin))
    for name, entries in by_name.items() if clean.size else ():  # no empty entries
        worst = trial = None
        if entries[0][1] is not None:
            lane_worst = np.minimum.reduce([margin for _, margin in entries])[clean]
            j = int(np.argmin(lane_worst))  # the lowest trial on ties
            worst, trial = float(lane_worst[j]), trials[clean[j]]
        _tally(stats, name, len(entries) * clean.size, sum(f for f, _ in entries), worst, trial)
    for lane in np.flatnonzero(bad | ~passed.all(axis=0)).tolist():
        trial = trials[lane]
        if lane in lanes.errors:
            _tally(stats, "trial_error", 1, 1, None, None)
            failures.append({"check": "trial_error", "trial": trial,
                             "error": str(lanes.errors[lane])})
        else:
            failures.extend(dict(r.to_json(), trial=trial) for r in lanes.reports(lane)
                            if not r.passed)
    return stats, failures


def _verify_part(params: VerifyParams, block: int, units: range) -> list:
    """Check the units `units` of one block of `block` trials (see
    run_verify) on one lane stream over the seed rows of the families they
    hold, in _FAMILIES order, and tally them here.  Each tally is (first,
    whole, raised, stats, failures): the block's first trial, whether the
    part is the whole block, whether a trial of the tally raised, and
    _tally_block's result.  A whole block is one tally, its families joined
    by LaneChecks.extend (a lane keeps its instance exception); a part of a
    cut block is one tally per family it holds."""
    first = units.start // (2 * block) * block
    size = min(block, params.trials - first)
    lo, hi = units.start - 2 * first, units.stop - 2 * first
    spans = ((lo, min(hi, size)), (max(lo, size) - size, hi - size))
    held = [(family, range(first + a, first + b)) for family, (a, b) in enumerate(spans) if a < b]
    seeds = [mix_seeds(params.seed, trials) for _, trials in held]
    rows = [_FAMILIES[f][0](s) for (f, _), s in zip(held, seeds)]
    rngs = rngs_from(np.concatenate(rows, axis=None))
    checked = [(trials, _FAMILIES[f][1](params, trials, s, rngs))
               for (f, trials), s in zip(held, seeds)]
    whole = (lo, hi) == (0, 2 * size)
    if whole:  # one tally: the lemma checks after the instance checks
        checked[0][1].extend(checked.pop()[1])
    return [(first, whole, bool(lanes.errors), *_tally_block(trials, lanes))
            for trials, lanes in checked]


def _merge_blocks(blocks: list) -> tuple[dict, list]:
    stats: dict[str, list] = {}
    failures: list[dict] = []
    for block_stats, block_failures in blocks:
        for name, (run, fail, worst, trial) in block_stats.items():
            _tally(stats, name, run, fail, worst, trial)
        failures.extend(block_failures)
    ordered = {}
    for name in ALL_CHECK_NAMES:
        if name in stats:
            run, fail, worst, trial = stats[name]
            ordered[name] = {"run": run, "fail": fail, "worst_margin": worst, "worst_trial": trial}
    return ordered, failures


def run_verify(params: VerifyParams, workers: int = 1) -> dict:
    """Full verification sweep; returns the JSON-ready report.  Each trial
    is two units, its instance checks and its lemma checks: the units of a
    block of block_size(N) trials are its instance units in trial order,
    then its lemma units, so fan_out's walk length is twice the block and a
    split that falls inside a block cuts it between or within families.
    A cut block's tallies stand as they are unless a trial of it raised:
    then its partial tallies are dropped and the block is checked again as
    a whole here, so a trial error voids both of its families.  Failures
    are sorted by trial once, stably, so each trial's instance entries stay
    before its lemma entries."""
    params.validate()
    started = _now()
    block = sampling.block_size(params.ambient)
    parts = fan_out(_verify_part, (params, block), range(2 * params.trials), workers, 2 * block)
    tallies = [tally for part in parts for tally in part]
    redo = {first for first, whole, raised, _, _ in tallies if raised and not whole}
    for first in sorted(redo):
        tallies += _verify_part(params, block, range(2 * first, 2 * min(first + block, params.trials)))
    checks, failures = _merge_blocks([(stats, fails) for first, whole, _, stats, fails in tallies
                                      if whole or first not in redo])
    failures.sort(key=lambda failure: failure["trial"])
    checks_run = sum(c["run"] for c in checks.values())
    n_failures = sum(c["fail"] for c in checks.values())
    counters = {
        "checks_run": checks_run,
        "passes": checks_run - n_failures,
        "failures": n_failures,
    }
    return {
        "schema": 1,
        "manifest": _manifest("verify", params.config(), params.seed, started, counters),
        "pass": n_failures == 0,
        "flagged_notes": [thm2_tail_note(params.m, params.M, params.p_values)],
        "checks": checks,
        "failures": failures,
    }


def cmd_verify(args) -> int:
    params = VerifyParams(
        trials=args.trials,
        ambient=args.N if args.N is not None else 2 * args.n,
        rank=args.n,
        out_dim=args.d,
        ancilla=args.k,
        m=args.m,
        M=args.M,
        p_values=tuple(parse_p_list(args.p)),
        tol=args.tol,
        seed=args.seed,
    )
    try:
        params.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check_writable(args.out)
    report = run_verify(params, workers=worker_count())
    write_report(args.out, report)
    counters = report["manifest"]["counters"]
    print(
        f"verify: {params.trials} trials, p={list(params.p_values)}, "
        f"N={params.ambient}, n={params.rank}, d={params.out_dim}, "
        f"k={params.ancilla}, m={params.m:g}, M={params.M:g}, tol={params.tol:g}"
    )
    print(f"checks run: {counters['checks_run']}, failures: {counters['failures']}")
    print(f"report: {args.out}")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def bounds_table(m: float, M: float, p_values) -> str:
    """CSV with a p_star comment header and one row per exponent."""
    lines = []
    if M > m:
        lines.append(f"# p_star={crossover_threshold(m, M):.12g}")
    else:
        lines.append("# p_star=nan")
    lines.append("m,M,p,thm1,thm2,thm3,tightest")
    for p in p_values:
        cmp_ = compare_bounds(m, M, p)
        lines.append(
            f"{m:.12g},{M:.12g},{p:.12g},"
            f"{cmp_.thm1!r},{cmp_.thm2!r},{cmp_.thm3!r},{cmp_.tightest}"
        )
    return "\n".join(lines) + "\n"


def cmd_bounds(args) -> int:
    m, M = check_bounds(args.m, args.M)
    p_values = parse_p_list(args.p_grid)
    check_in_range(m, M, p_values)
    if args.csv != "-":
        check_writable(args.csv)
    table = bounds_table(m, M, p_values)
    if args.csv == "-":
        sys.stdout.write(table)
    else:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table)
        print(f"table: {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    try:
        dims = [int(x) for x in args.dims.split(",")]
    except ValueError as exc:
        raise UsageError(f"--dims must be N,n,d,k integers, got {args.dims!r}") from exc
    if len(dims) != 4:
        raise UsageError("--dims must have exactly four entries N,n,d,k")
    cfg = SearchConfig(
        objective=args.objective,
        ambient=dims[0],
        rank=dims[1],
        out_dim=dims[2],
        ancilla=dims[3],
        m=args.m,
        M=args.M,
        p=args.p,
        trials=args.trials,
        refine_steps=args.refine_steps,
        seed=args.seed,
        tol=args.tol,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check_writable(args.out)
    started = _now()
    record = run_search(cfg, workers=worker_count())
    discovery = (
        cfg.objective == "conjecture"
        and record.best_value > 1.0 + DISCOVERY_FACTOR * cfg.tol
    )
    counters = {
        "checks_run": record.trials_done,
        "passes": record.trials_done - record.skipped - record.refine_errors,
        "skipped": record.skipped,
        "refine_errors": record.refine_errors,
    }
    payload = record.to_json()
    payload_out = {
        "schema": 1,
        "manifest": _manifest("search", cfg.to_json(), cfg.seed, started, counters),
        "discovery": discovery,
        **payload,
    }
    write_report(args.out, payload_out)
    print(
        f"search: objective={cfg.objective}, trials={cfg.trials}, "
        f"refine_steps={cfg.refine_steps}, seed={cfg.seed}"
    )
    # best_index is the sampled start; the trace's last entry found the value
    phase, step, _ = record.trace[-1]
    origin = f"refine step {step}, from " if phase == "refine" else ""
    print(f"best_value: {record.best_value!r} ({origin}trial {record.best_index})")
    print(f"result: {args.out}")
    if discovery:
        print(
            "DISCOVERY: objective exceeded the conjectured bound; "
            f"witness serialized in {args.out}"
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_extremal(args) -> int:
    m, M = check_bounds(args.m, args.M)
    p = check_exponent(args.p)
    check_in_range(m, M, [p])
    degenerate = M == m
    inst = degenerate_instance(m) if degenerate else extremal_instance(m, M)
    reports = {r.check: r for r in run_instance_checks(inst, [p])}
    lhs, rhs = (reports["bhatia_davis"].payload[key] for key in ("lhs", "bound"))
    print(f"equality-case instance (m={m:g}, M={M:g}, p={p:g})")
    if degenerate:
        print("degenerate bounds: m == M, the off-diagonal compression vanishes")
    print("A =")
    for row in inst.a.real:
        print("  [" + ", ".join(_fmt(v) for v in row) + "]")
    print("x = e1, y = e2, map = identity on C^1")
    print(f"wielandt_lhs = {_fmt(lhs)}")
    print(f"wielandt_rhs = {_fmt(rhs)}")
    print(f"equality_gap = {_fmt(abs(lhs - rhs))}")
    # Gamma is 1x1 and >= 0 here, so it equals its half-symmetrized norm
    print(f"gamma = {_fmt(reports['thm1_abs'].payload['lhs'])}")
    print(f"half_abs_norm = {_fmt(reports['thm1_abs'].payload['lhs'])}")
    print(f"gamma_norm = {_fmt(reports['gamma_norm_le_thm2'].payload['lhs'])}")
    if degenerate:
        print("conjecture_ratio = n/a (m == M)")
    else:
        print(f"conjecture_ratio = {_fmt(conjecture_ratio(inst))}")
    for name in ("thm1", "thm2", "thm3"):
        report = reports[f"{name}_abs"]
        print(f"bound_{name} = {_fmt(report.payload['bound'])}   margin = {_fmt(report.margin)}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and main may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog="wielandt-lab",
        description=(
            "Numerical checks, bound tables, and counterexample search for "
            "operator Wielandt-type inequalities at finite matrix scale."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    v = sub.add_parser("verify", help="run every inequality check on random instances")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--n", type=int, default=2, help="isometry rank (map input dim)")
    v.add_argument("--d", type=int, default=2, help="map output dimension")
    v.add_argument("--k", type=int, default=2, help="Stinespring ancilla size")
    v.add_argument("--N", type=int, default=None, help="ambient dimension (default 2n)")
    v.add_argument("--m", type=float, default=1.0)
    v.add_argument("--M", type=float, default=2.0)
    v.add_argument("--p", type=str, default="0.5,1,2", help="comma list or start:stop:step")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--out", type=str, default="verify_report.json")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="emit the bound-family table as CSV")
    b.add_argument("--m", type=float, default=1.0)
    b.add_argument("--M", type=float, default=2.0)
    b.add_argument("--p-grid", dest="p_grid", type=str, default="0.1:6:0.1")
    b.add_argument("--csv", type=str, default="-", help="output path or - for stdout")
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("search", help="randomized search over the instance space")
    s.add_argument("--objective", type=str, required=True, choices=OBJECTIVES)
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--refine-steps", dest="refine_steps", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--dims", type=str, default="4,2,2,2", help="N,n,d,k")
    s.add_argument("--m", type=float, default=1.0)
    s.add_argument("--M", type=float, default=2.0)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--out", type=str, default="search_result.json")
    s.set_defaults(func=cmd_search)

    e = sub.add_parser("extremal", help="print the closed-form equality case")
    e.add_argument("--m", type=float, default=1.0)
    e.add_argument("--M", type=float, default=2.0)
    e.add_argument("--p", type=float, default=1.0)
    e.set_defaults(func=cmd_extremal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, InvalidBounds, InvalidExponent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WielandtLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
