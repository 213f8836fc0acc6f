"""Workload definitions and the per-invocation correctness checks.

A workload is one CLI command shape plus the trial count of one invocation.
Every invocation gets its own ``--seed`` drawn from the benchmark seed, so the
same benchmark seed replays the same instance streams.

Importing this module pulls in nothing beyond the stdlib; the checks import
``wielandt_lab`` lazily because they only run inside the client process.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

# Discovery threshold of the CLI: exit 3 iff best_value > 1 + 10 * tol.
DISCOVERY_FACTOR = 10.0
REPLAY_TOL = 1e-12

# Both lines carry wall-clock values; everything else in a report must not
# depend on the worker count.
_TIMESTAMP_LINE = re.compile(rb'^\s*"(started_at|finished_at)": .*\n', re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    args: tuple  # CLI flags without --trials, --seed and --out
    trials: int  # sampled trials per invocation


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 3's shape: 6 exponents, bound reports and lemma checks.
        Workload(
            "verify-sweep",
            "verify",
            ("--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
             "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9"),
            trials=50,
        ),
        # Criterion 8's shape: 2x2 closed-form eigensolves, sampling-bound.
        Workload(
            "conjecture-probe",
            "search",
            ("--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1", "--M", "2",
             "--tol", "1e-9"),
            trials=400,
        ),
        # Rank 4, high contrast: every sampled eigensolve is general Jacobi,
        # plus refinement and witness serialization.
        Workload(
            "frontier-wide",
            "search",
            ("--objective", "conjecture", "--dims", "8,4,4,2", "--m", "1", "--M", "100",
             "--refine-steps", "400", "--tol", "1e-9"),
            trials=100,
        ),
    )
}


def invocation_seeds(workload: str, seed: int):
    """Endless, reproducible stream of CLI seeds for one benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**31)


def argv(w: Workload, seed: int, out: str, setup: bool = False) -> list:
    """CLI argument vector of one invocation.  A setup probe runs one trial
    without refinement: it times start-up, not the search."""
    args = list(w.args)
    if setup and "--refine-steps" in args:
        i = args.index("--refine-steps")
        args[i + 1] = "0"
    trials = 1 if setup else w.trials
    return [w.subcommand, "--trials", str(trials), *args, "--seed", str(seed), "--out", out]


def strip_timestamps(raw: bytes) -> bytes:
    return _TIMESTAMP_LINE.sub(b"", raw)


def check_verify(rc: int, report: dict) -> tuple[list, dict]:
    """Problems with one verify invocation, plus the counts it reports."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    counters = report["manifest"]["counters"]
    if counters["failures"] != 0 or report["failures"]:
        problems.append(f"{counters['failures']} failed checks")
    trials = report["manifest"]["config"]["trials"]
    for name, entry in report["checks"].items():
        if entry["fail"] != 0:
            problems.append(f"check {name} failed {entry['fail']} times")
        if entry["run"] % trials != 0:
            problems.append(f"check {name} ran {entry['run']} times over {trials} trials")
    if counters["checks_run"] == 0 or counters["checks_run"] % trials != 0:
        problems.append(f"checks_run {counters['checks_run']} not a multiple of {trials}")
    return problems, {"checks_per_trial": counters["checks_run"] / trials}


def check_search(w: Workload, rc: int, report: dict) -> tuple[list, dict]:
    """Problems with one conjecture-search invocation: exit code against the
    discovery threshold, the value window of the probe, and witness replay."""
    from wielandt_lab.instances import instance_from_json
    from wielandt_lab.search import conjecture_ratio

    problems = []
    best = report["best_value"]
    tol = report["config"]["tol"]
    discovery = best > 1.0 + DISCOVERY_FACTOR * tol
    expected_rc = 3 if discovery else 0
    if rc != expected_rc:
        problems.append(f"exit code {rc}, expected {expected_rc} for best_value {best!r}")
    if report.get("discovery") is not discovery:
        problems.append("discovery flag disagrees with best_value")
    if not math.isfinite(best):
        problems.append(f"best_value {best!r} is not finite")
    if w.name == "conjecture-probe" and not (0.9 < best <= 1.0 + 1e-8):
        problems.append(f"best_value {best!r} outside (0.9, 1+1e-8]")
    replay = conjecture_ratio(instance_from_json(report["best_instance"]))
    if abs(replay - best) > REPLAY_TOL * max(1.0, abs(best)):
        problems.append(f"witness replays to {replay!r}, report says {best!r}")
    trials = report["config"]["trials"]
    phases = [entry[0] for entry in report["trace"]]
    refine_steps = report["trials"] - trials
    return problems, {
        "improvements": phases.count("sample"),
        "refine_steps": refine_steps,
        "refine_accepts": phases.count("refine"),
    }


def check(w: Workload, rc: int, raw: bytes) -> tuple[list, dict]:
    try:
        report = json.loads(raw)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], {}
    if w.subcommand == "verify":
        return check_verify(rc, report)
    return check_search(w, rc, report)
