"""Benchmark client: one closed-loop caller of ``wielandt_lab.cli.main``.

Runs in a child interpreter that ``run.py`` starts with ``src`` on the path
and BLAS threads pinned, so numpy sees the pin at import.  It writes its raw
samples as JSON to ``--out``; ``run.py`` turns them into metrics.

Each measured invocation's wall time is also given in reference-seconds; see
refclock.py.

Modes:
  setup    one one-trial invocation, for timing interpreter start and import;
           prints when it finished (CLOCK_MONOTONIC, which is system-wide) and
           the reference-second scale measured right after it
  measure  pairs of (parallel, serial) invocations on the same CLI seed until
           ``--seconds`` have passed; the order inside a pair alternates
  trace    ``measure`` for half the time, then traced serial invocations on
           the seeds already measured, for the other half
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from refclock import REF_KERNEL_S, ReferenceClock, reference_kernel

def invoke(cli, w: wl.Workload, seed: int, workers: int, out: Path, setup: bool = False) -> dict:
    """One CLI invocation with ``workers`` pool processes, checked."""
    os.environ["WIELANDT_LAB_THREADS"] = str(workers)
    sink = io.StringIO()
    problems: list = []
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(wl.argv(w, seed, str(out), setup=setup))
    except Exception as exc:  # a crash is a failed invocation, not a dead benchmark
        problems.append(f"cli.main raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    raw = b""
    counts: dict = {}
    if not problems:
        try:
            raw = out.read_bytes()
            out.unlink()
        except OSError as exc:
            problems.append(f"no report: {exc}")
    if not problems:
        try:
            problems, counts = wl.check(w, rc, raw)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {
        "seed": seed,
        "workers": workers,
        "wall_s": wall,
        "rc": rc,
        "bytes": len(raw),
        "problems": problems,
        "counts": counts,
        "_raw": raw,
    }


def measure_pairs(cli, clock: ReferenceClock, w: wl.Workload, seed: int, workers: int,
                  seconds: float, work: Path) -> list:
    seeds = wl.invocation_seeds(w.name, seed)
    deadline = time.perf_counter() + seconds
    pairs: list = []
    while not pairs or time.perf_counter() < deadline:
        cli_seed = next(seeds)
        order = [("parallel", workers), ("serial", 1)]
        if len(pairs) % 2:
            order.reverse()
        pair = {
            label: clock.stamp(invoke(cli, w, cli_seed, count, work / f"{label}.json"), count)
            for label, count in order
        }
        par, ser = pair["parallel"], pair["serial"]
        par_raw, ser_raw = par.pop("_raw"), ser.pop("_raw")
        pair["identical"] = par["rc"] == ser["rc"] and (
            wl.strip_timestamps(par_raw) == wl.strip_timestamps(ser_raw)
        )
        pairs.append(pair)
    return pairs


def traced_serial(cli, clock: ReferenceClock, w: wl.Workload, pairs: list, seconds: float,
                  work: Path) -> list:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    records: list = []
    deadline = time.perf_counter() + seconds
    try:
        for pair in itertools.cycle(pairs):
            if records and time.perf_counter() >= deadline:
                break
            rec = invoke(cli, w, pair["serial"]["seed"], 1, work / "traced.json")
            rec["spans"] = tracer.drain()
            clock.stamp(rec, 1)
            rec.pop("_raw")
            rec["untraced_ref_s"] = pair["serial"]["ref_s"]
            records.append(rec)
    finally:
        tracer.uninstall()
    return records


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    w = wl.WORKLOADS[args.workload]

    from wielandt_lab import cli

    if args.mode == "setup":
        rec = invoke(cli, w, args.seed, 1, args.work_dir / f"setup-{os.getpid()}.json", setup=True)
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        for problem in rec["problems"]:
            print(f"setup probe: {problem}", file=sys.stderr)
        # The first kernel run in a fresh interpreter pays for warming LAPACK.
        reference_kernel()
        print(json.dumps({"done": done, "ref_scale": REF_KERNEL_S / reference_kernel()}))
        return 1 if rec["problems"] else 0

    budget = args.seconds / 2 if args.mode == "trace" else args.seconds
    with ReferenceClock({1, args.workers}) as clock:
        pairs = measure_pairs(cli, clock, w, args.seed, args.workers, budget, args.work_dir)
        # Read while the kernel helpers still run, so that only the CLI's own
        # pool workers, all reaped by now, count as children.
        result = {
            "fingerprint": fingerprint(),
            "pairs": pairs,
            "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "rss_worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
    if args.mode == "trace":
        with ReferenceClock({1}) as clock:
            result["traced"] = traced_serial(
                cli, clock, w, pairs, args.seconds - budget, args.work_dir)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
