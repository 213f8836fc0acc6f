"""wielandt-lab benchmark: trial throughput of the CLI on three workloads.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn and prints one table.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A fuller result file, with the
environment fingerprint and the raw samples, goes to ``perfbench/results/``.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

SETUP_PROBES = 5
# numpy reads these at import; the client imports numpy after they are set.
BLAS_PIN = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
# Acceptance criteria the headroom line projects: (workload, trials, ceiling s).
CRITERIA = {
    "verify-sweep": ("criterion 3 (10^4-trial verify sweep)", 10_000, 120.0),
    "conjecture-probe": ("criterion 8 (10^5-trial conjecture probe)", 100_000, 600.0),
}
# Every child process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "trials_per_ref_s": "trials/ref-s",
    "serial_trials_per_ref_s": "trials/ref-s",
    "setup_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def src_lines() -> int:
    """Non-blank lines under src/, tracked as metadata beside the metrics."""
    return sum(
        1
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "WIELANDT_LAB_THREADS"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def client(mode: str, workload: str, seed: int, extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "client.py"), mode, "--workload", workload,
           "--seed", str(seed), "--work-dir", str(WORK), *extra]
    return subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)


def setup_times(workload: str, seed: int) -> tuple[list, int]:
    """Times, in reference-seconds, of fresh interpreters that import the CLI
    and finish one trial; a first, untimed probe fills the bytecode cache."""
    times, failed = [], 0
    for k in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = client("setup", workload, seed * 1000 + k)
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr)
        elif k:
            probe = json.loads(proc.stdout.splitlines()[-1])
            times.append((probe["done"] - start) * probe["ref_scale"])
    return times, failed


def mark_failures(w: wl.Workload, raw: dict) -> list:
    """Every invocation record, with cross-invocation problems added: serial
    and parallel reports must match, and verify's checks per trial must not
    change between invocations."""
    records = []
    for pair in raw["pairs"]:
        if not pair["identical"]:
            pair["parallel"]["problems"].append("report differs from the serial one")
        records += [pair["parallel"], pair["serial"]]
    records += raw.get("traced", [])
    if w.subcommand == "verify":
        first = records[0]["counts"].get("checks_per_trial")
        for r in records:
            if r["counts"].get("checks_per_trial") != first:
                r["problems"].append(
                    f"{r['counts'].get('checks_per_trial')} checks per trial, first invocation had {first}")
    return records


def throughput(w: wl.Workload, raw: dict, label: str, clock: str = "ref_s") -> float:
    """Median over invocations of trials per second of ``clock``."""
    return statistics.median(w.trials / p[label][clock] for p in raw["pairs"])


def end_to_end(w: wl.Workload, raw: dict, setup: list, workers: int, ok_share: float) -> dict:
    return {
        "trials_per_ref_s": throughput(w, raw, "parallel"),
        "serial_trials_per_ref_s": throughput(w, raw, "serial"),
        "setup_s": statistics.median(setup),
        "ok_share": ok_share,
        "peak_rss_mb": (raw["rss_self_kb"] + workers * raw["rss_worker_kb"]) / 1024.0,
    }


def per_layer(w: wl.Workload, raw: dict, workers: int) -> dict:
    traced = raw["traced"]
    runs = len(traced)
    trials = runs * w.trials
    spans: dict = {}  # span times in reference-nanoseconds
    for rec in traced:
        scale = rec["ref_s"] / rec["wall_s"]
        for name, (calls, total, own) in rec["spans"].items():
            entry = spans.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total * scale
            entry[2] += own * scale

    def calls(name, per=trials):
        return spans.get(name, [0, 0, 0])[0] / per

    def self_us(name, per=trials):
        return spans.get(name, [0, 0, 0])[2] / 1e3 / per

    def count(key):
        return sum(r["counts"].get(key, 0) for r in traced)

    wall_ns = sum(r["ref_s"] for r in traced) * 1e9
    layer_self_ns = sum(own for name, (_, _, own) in spans.items() if name != "cli")
    steps = count("refine_steps")
    metrics = {}
    for name in ("matcore.herm_eig.jacobi", "matcore.herm_eig.closed_form"):
        metrics[f"{name}.calls_per_trial"] = calls(name)
        metrics[f"{name}.self_us_per_trial"] = self_us(name)
    metrics.update({
        "matcore.eig_pow.self_us_per_trial": self_us("matcore.eig_pow"),
        "matcore.op_norm.calls_per_trial": calls("matcore.op_norm"),
        "sampling.mix_seed.calls_per_trial": calls("sampling.mix_seed"),
        "sampling.rng_from.calls_per_trial": calls("sampling.rng_from"),
        "sampling.rng_from.self_us_per_trial": self_us("sampling.rng_from"),
        "sampling.complex_gaussian.self_us_per_trial": self_us("sampling.complex_gaussian"),
        "sampling.qr_positive.calls_per_trial": calls("sampling.qr_positive"),
        "sampling.qr_positive.self_us_per_trial": self_us("sampling.qr_positive"),
        "instances.gen_instance.us_per_trial":
            spans.get("instances.gen_instance", [0, 0, 0])[1] / 1e3 / trials,
        "instances.gen_instance.self_us_per_trial": self_us("instances.gen_instance"),
        "maps.random_unital_cp.self_us_per_trial": self_us("maps.random_unital_cp"),
        "maps.apply.calls_per_trial": calls("maps.apply"),
        "maps.apply.self_us_per_trial": self_us("maps.apply"),
        "instances.instance_to_json.calls_per_run": calls("instances.instance_to_json", runs),
        "instances.instance_to_json.self_us_per_run": self_us("instances.instance_to_json", runs),
        "search.objective.self_us_per_trial": self_us("search.objective"),
        "search.improvements_per_run": count("improvements") / runs,
        "search.refine.steps": steps / runs,
        "search.refine.accept_ratio": count("refine_accepts") / steps if steps else 0.0,
        "bounds.compressed_products.self_us_per_trial": self_us("bounds.compressed_products"),
        "bounds.run_instance_checks.self_us_per_trial": self_us("bounds.run_instance_checks"),
        "bounds.run_lemma_trial.self_us_per_trial": self_us("bounds.run_lemma_trial"),
        "bounds.checks_per_trial": count("checks_per_trial") / runs,
        "cli.self_ms_per_invocation": self_us("cli", runs) / 1e3,
        "cli.report_bytes": statistics.median(r["bytes"] for r in traced),
        # Wall clock on purpose: both invocations of a pair ran seconds apart,
        # and the two sides are rescaled by different kernels.
        "cli.fanout.efficiency": statistics.median(
            p["serial"]["wall_s"] / p["parallel"]["wall_s"] for p in raw["pairs"]) / workers,
        "trace.overhead_ratio": statistics.median(r["ref_s"] / r["untraced_ref_s"] for r in traced),
        "trace.unaccounted_share": 1.0 - layer_self_ns / wall_ns,
    })
    return metrics


PER_LAYER_UNITS = {
    "calls_per_trial": "calls/trial",
    "self_us_per_trial": "ref-us/trial",
    "us_per_trial": "ref-us/trial",
    "calls_per_run": "calls/run",
    "self_us_per_run": "ref-us/run",
    "improvements_per_run": "count/run",
    "steps": "steps/run",
    "accept_ratio": "ratio",
    "checks_per_trial": "checks/trial",
    "self_ms_per_invocation": "ref-ms/run",
    "report_bytes": "bytes",
    "efficiency": "ratio",
    "overhead_ratio": "ratio",
    "unaccounted_share": "share",
}


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def headroom(w: wl.Workload, raw: dict) -> str | None:
    if w.name not in CRITERIA:
        return None
    label, trials, ceiling = CRITERIA[w.name]
    wall = trials / throughput(w, raw, "serial", "wall_s")
    ref = trials / throughput(w, raw, "serial")
    return (f"headroom (derived, not a metric): {label} projected at {wall:.1f} s "
            f"of wall time ({ref:.1f} ref-s) against its {ceiling:.0f} s ceiling, "
            f"{ceiling / wall:.2f}x headroom")


def run_workload(name: str, seed: int, seconds: int, trace: bool, env_info: dict) -> dict:
    w = wl.WORKLOADS[name]
    workers = env_info["workers"]
    setup, setup_failed = ([], 0) if trace else setup_times(name, seed)
    out = WORK / f"{name}.json"
    proc = client("trace" if trace else "measure", name, seed,
                  ("--seconds", str(seconds), "--workers", str(workers), "--out", str(out)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark client exited with code {proc.returncode}")
    raw = json.loads(out.read_text(encoding="utf-8"))
    records = mark_failures(w, raw)
    failed = setup_failed + sum(1 for r in records if r["problems"])
    attempted = len(setup) + setup_failed + len(records)
    for r in records:
        for problem in r["problems"]:
            print(f"{name} seed {r['seed']} workers {r['workers']}: {problem}", file=sys.stderr)
    metrics = (per_layer(w, raw, workers) if trace
               else end_to_end(w, raw, setup, workers, 1.0 - failed / attempted))
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "trials_per_invocation": w.trials,
        "argv": wl.argv(w, 0, "<out>"),
        "fingerprint": {**env_info, **raw["fingerprint"]},
        "raw_trials_per_s": throughput(w, raw, "parallel", "wall_s"),
        "raw_serial_trials_per_s": throughput(w, raw, "serial", "wall_s"),
        "headroom": headroom(w, raw),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s_samples": setup,
        "pairs": [{label: {k: p[label][k] for k in ("seed", "wall_s", "ref_s", "rc", "bytes")}
                   for label in ("parallel", "serial")} for p in raw["pairs"]],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10, choices=range(1, 61), metavar="1..60")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "wielandt_lab" / "cli.py").is_file():
        print(f"error: no wielandt_lab sources under {SRC}", file=sys.stderr)
        return 2

    workers = affinity_cpus()
    env_info = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "affinity_cpus": workers,
        "os_cpu_count": os.cpu_count(),
        "workers": workers,
        "blas_threads_pin": BLAS_PIN,
        "src_nonblank_lines": src_lines(),
    }
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), env_info)
                   for n in names]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("environment: " + json.dumps(results[0]["fingerprint"]))
    metrics = {}
    for res in results:
        for metric, value in res["metrics"].items():
            unit = unit_of(metric)
            print(f"{res['workload']:<17} {metric:<46} {value:>14.6g} {unit}")
            key = metric if len(results) == 1 else f"{res['workload']}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        for metric in ("raw_trials_per_s", "raw_serial_trials_per_s"):
            label = f"{metric} (wall clock, not gated)"
            print(f"{res['workload']:<17} {label:<46} {res[metric]:>14.6g} trials/s")
    for res in results:
        if res["headroom"]:
            print(res["headroom"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
