import contextlib
import copy
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wielandt_lab import bounds, cli, instances, sampling, search
from wielandt_lab.errors import NotPSD, PreconditionViolated, Singular
from wielandt_lab.sampling import BLOCK_SIZE, block_size, fan_out, mix_seed, mix_seeds, rngs_from
from wielandt_lab.search import SearchRecord

from conftest import fail_refine_proposals, lapack_frames


def run_cli(args):
    return cli.main(args)


def parse_kv(output: str) -> dict:
    out = {}
    for line in output.splitlines():
        m = re.match(r"^(\w+) = (\S+)(?:\s+margin = (\S+))?$", line.strip())
        if m:
            out[m.group(1)] = m.group(2)
            if m.group(3):
                out[m.group(1) + "_margin"] = m.group(3)
    return out


def stripped(report: dict) -> dict:
    out = copy.deepcopy(report)
    out["manifest"].pop("started_at")
    out["manifest"].pop("finished_at")
    return out


class TestParsePList:
    def test_comma_list(self):
        assert cli.parse_p_list("0.5,1,2") == [0.5, 1.0, 2.0]

    def test_point_grid(self):
        assert cli.parse_p_list("1:1:1") == [1.0]

    def test_dense_grid(self):
        values = cli.parse_p_list("0.1:6:0.1")
        assert len(values) == 60
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == 6.0  # integer-snapped endpoint
        assert 0.5 in values and 2.0 in values

    def test_integer_snapping(self):
        assert cli.parse_p_list("0.5:2:0.5") == [0.5, 1.0, 1.5, 2.0]
        assert cli.parse_p_list("0.9999999999999,2.0000000000001") == [1.0, 2.0]

    def test_tiny_exponents_are_not_snapped_to_zero(self):
        assert cli.parse_p_list("1e-13") == [1e-13]
        assert cli.parse_p_list("1e-12") == [1e-12]
        assert cli.parse_p_list("1e-13,0.5,2") == [1e-13, 0.5, 2.0]
        assert cli.parse_p_list("5e-13:1e-12:5e-13") == [5e-13, 1e-12]

    @pytest.mark.parametrize("argv", [
        ["verify", "--trials", "3", "--p", "1e-13,0.5,2"],
        ["bounds", "--p-grid", "1e-13,0.5"],
    ])
    def test_tiny_exponent_runs(self, argv, tmp_chdir):
        assert run_cli(argv + (["--out", "r.json"] if argv[0] == "verify" else [])) == 0

    @pytest.mark.parametrize("text", ["0", "-1", "a,b", "1:2", "2:1:1", "1:2:-1", ""])
    def test_rejects_bad_input(self, text):
        with pytest.raises(cli.UsageError):
            cli.parse_p_list(text)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "3")
        assert cli.worker_count() == 3

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("WIELANDT_LAB_THREADS", raising=False)
        assert cli.worker_count() >= 1

    def test_default_follows_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("WIELANDT_LAB_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert cli.worker_count() == 3

    def test_default_without_affinity_call(self, monkeypatch):
        monkeypatch.delenv("WIELANDT_LAB_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        assert cli.worker_count() == 6

    @pytest.mark.parametrize("raw", ["0", "-2", "many"])
    def test_invalid_env(self, monkeypatch, raw):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", raw)
        with pytest.raises(cli.UsageError):
            cli.worker_count()


class TestExtremal:
    def test_equality_output(self, capsys):
        assert run_cli(["extremal", "--m", "1", "--M", "2", "--p", "1"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        lhs = float(kv["wielandt_lhs"])
        rhs = float(kv["wielandt_rhs"])
        assert lhs == pytest.approx(1 / 6, abs=1e-12)
        assert rhs == pytest.approx(1 / 6, abs=1e-12)
        assert float(kv["equality_gap"]) <= 1e-12
        assert float(kv["gamma"]) == pytest.approx(1 / 9, abs=1e-12)
        assert float(kv["bound_thm3"]) == pytest.approx(0.11785113019775793, rel=1e-12)

    def test_half_exponent_gamma_norm_matches_thm2(self, capsys):
        assert run_cli(["extremal", "--m", "1", "--M", "2", "--p", "0.5"]) == 0
        kv = parse_kv(capsys.readouterr().out)
        assert float(kv["gamma_norm"]) == pytest.approx(1 / 3, abs=1e-13)
        assert float(kv["bound_thm2"]) == pytest.approx(1 / 3, abs=1e-13)

    def test_degenerate_notice(self, capsys):
        assert run_cli(["extremal", "--m", "1", "--M", "1"]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out
        kv = parse_kv(out)
        assert float(kv["gamma"]) == 0.0

    def test_invalid_bounds(self, capsys):
        assert run_cli(["extremal", "--m", "2", "--M", "1"]) == 2

    # sha256 of the stdout of extremal at five exponents per (m, M); m = M is
    # the degenerate case.  Any change to a printed digit changes them.
    STDOUT_DIGESTS = {
        ("1", "1"): "144ce55512e9eb31deaa3f148689308a02717863a6897ea0840f42f8e10c59c4",
        ("1", "2"): "6002c81ad336fd6bf78424a5872df2e8a8a29b878a33c104b6d939533253ee7a",
        ("0.5", "3"): "c1caf582dbfe576c148aa76bea41ef375cdf88497228dda9f2d476627971a2b0",
        ("2", "2.5"): "c273a59d3848929381a8621035feb3b10a36dd7e5cafafd92df25e5d8f709556",
        ("1", "100"): "44096deb017a389e25c9bb07bff99520fade4b551c62512643a223d4259369a9",
        ("0.001", "1000"): "dff93c87c994c903dfbefcb624c9505ab6d5417e987a018af0607b81a47bda67",
    }

    @pytest.mark.parametrize("m,M", list(STDOUT_DIGESTS))
    def test_stdout_digest(self, m, M, capsys):
        digest = self.STDOUT_DIGESTS[m, M]
        out = []
        for p in ("0.25", "0.5", "1", "1.5", "3"):
            assert run_cli(["extremal", "--m", m, "--M", M, "--p", p]) == 0
            out.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


class TestBounds:
    def test_single_row(self, capsys):
        assert run_cli(["bounds", "--m", "1", "--M", "2", "--p-grid", "1:1:1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "# p_star=4"
        assert lines[1] == "m,M,p,thm1,thm2,thm3,tightest"
        cells = lines[2].split(",")
        assert cells[:3] == ["1", "2", "1"]
        assert float(cells[3]) == pytest.approx(0.5246913580246914, rel=1e-12)
        assert float(cells[4]) == pytest.approx(0.2222222222222222, rel=1e-12)
        assert float(cells[5]) == pytest.approx(0.11785113019775793, rel=1e-12)
        assert cells[6] == "thm3"

    def test_degenerate_rows_are_zero(self, capsys):
        assert run_cli(["bounds", "--m", "1", "--M", "1", "--p-grid", "0.5:1.5:0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# p_star=nan"
        for row in lines[2:]:
            cells = row.split(",")
            assert float(cells[4]) == 0.0 and float(cells[5]) == 0.0

    def test_csv_file_output(self, tmp_chdir, capsys):
        assert run_cli(["bounds", "--m", "1", "--M", "2", "--p-grid", "1:2:1",
                        "--csv", "table.csv"]) == 0
        text = (tmp_chdir / "table.csv").read_text()
        assert text.startswith("# p_star=4\nm,M,p,thm1,thm2,thm3,tightest\n")

    def test_bad_grid_exits_2(self, capsys):
        assert run_cli(["bounds", "--m", "1", "--M", "2", "--p-grid", "oops"]) == 2

    def test_bad_bounds_exit_2(self, capsys):
        assert run_cli(["bounds", "--m", "2", "--M", "1"]) == 2


class TestVerify:
    def test_small_run_passes(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        code = run_cli(["verify", "--trials", "30", "--seed", "0", "--out", "r.json"])
        assert code == 0
        report = json.loads((tmp_chdir / "r.json").read_text())
        assert report["schema"] == 1
        manifest = report["manifest"]
        assert manifest["subcommand"] == "verify"
        assert manifest["counters"]["failures"] == 0
        assert manifest["counters"]["passes"] == manifest["counters"]["checks_run"]
        assert report["pass"] is True
        assert report["failures"] == []
        assert report["checks"]["bhatia_davis"]["run"] == 30
        assert report["checks"]["thm2_abs"]["run"] == 90  # 30 trials x 3 exponents
        note = report["flagged_notes"][0]
        assert note["id"] == "thm2_tail_comparison"

    def test_deterministic_modulo_timestamps(self, tmp_chdir, monkeypatch, capsys):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run_cli(["verify", "--trials", "12", "--seed", "3", "--out", "a.json"])
        run_cli(["verify", "--trials", "12", "--seed", "3", "--out", "b.json"])
        a = json.loads((tmp_chdir / "a.json").read_text())
        b = json.loads((tmp_chdir / "b.json").read_text())
        assert json.dumps(stripped(a)) == json.dumps(stripped(b))

    def test_worker_independence(self, tmp_chdir, monkeypatch, capsys, pool_ranges):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run_cli(["verify", "--trials", "24", "--seed", "1", "--out", "serial.json"])
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "2")
        run_cli(["verify", "--trials", "24", "--seed", "1", "--out", "par.json"])
        assert pool_ranges == [(24, 48)]
        a = json.loads((tmp_chdir / "serial.json").read_text())
        b = json.loads((tmp_chdir / "par.json").read_text())
        assert json.dumps(stripped(a)) == json.dumps(stripped(b))

    def test_worker_independence_general_eigensolves(self, pool_ranges):
        # Rank 3 makes every compressed-product eigensolve a LAPACK call,
        # run inside forked pool workers at workers=2.
        params = cli.VerifyParams(
            trials=16, ambient=6, rank=3, out_dim=3, ancilla=2, m=1.0, M=10.0,
            p_values=(0.5, 1.0, 2.0), tol=1e-9, seed=4,
        )
        serial = cli.run_verify(params, workers=1)
        parallel = cli.run_verify(params, workers=2)
        assert pool_ranges == [(16, 32)]
        assert json.dumps(stripped(serial)) == json.dumps(stripped(parallel))

    def test_rank_one_runs(self, tmp_chdir, monkeypatch, capsys):
        # The lemma inputs are drawn at dimension 2 when the isometry rank is 1.
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        for extra in ([], ["--d", "1", "--k", "1"], ["--N", "5", "--M", "30"]):
            code = run_cli(["verify", "--trials", "40", "--n", "1", "--out", "r.json"] + extra)
            report = json.loads((tmp_chdir / "r.json").read_text())
            assert code == 0
            assert "trial_error" not in report["checks"]
            assert report["failures"] == []

    def test_chain_margin_relative_to_link_scale(self):
        # At M/m = 100, p = 6 the links reach about 1e23, so their absolute
        # gaps (link_margins) carry rounding of about 1e7.
        params = cli.VerifyParams(
            trials=100, ambient=4, rank=2, out_dim=2, ancilla=2, m=1.0, M=100.0,
            p_values=(6.0,), tol=1e-9, seed=11,
        )
        report = cli.run_verify(params)
        assert report["pass"]
        assert report["checks"]["thm1_chain"]["worst_margin"] >= -1e-13

    @pytest.mark.parametrize(
        "args",
        [["--N", "4", "--n", "2", "--d", "3", "--k", "2", "--M", "100", "--p", "0.1:6:0.1",
          "--trials", "50"],
         ["--m", "1e-13", "--M", "1e-11", "--p", "0.5,2"]],
        ids=["long-grid", "trial-errors"],
    )
    def test_chain_worst_trial_is_not_picked_by_rounding(self, args, tmp_chdir, monkeypatch,
                                                         capsys):
        # thm1_chain's smallest relative gaps lie within rounding of 0 on
        # these runs, so the reference QR's frames must give the same worst
        # margin and trial.
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        worst = []
        for frames in (contextlib.nullcontext, lapack_frames):
            with frames():
                run_cli(["verify", *args, "--out", "r.json"])
            chain = json.loads((tmp_chdir / "r.json").read_text())["checks"]["thm1_chain"]
            worst.append((chain["worst_margin"], chain["worst_trial"]))
        assert worst[0] == worst[1]

    def test_usage_errors(self, capsys):
        assert run_cli(["verify", "--m", "2", "--M", "1"]) == 2
        assert run_cli(["verify", "--trials", "0"]) == 2
        assert run_cli(["search", "--objective", "conjecture", "--trials", "0"]) == 2
        assert run_cli(["verify", "--p", "0"]) == 2
        assert run_cli(["verify", "--N", "3"]) == 2

    def test_failing_report_exits_1(self, tmp_chdir, capsys, monkeypatch):
        def fake_run_verify(params, workers=1):
            return {
                "schema": 1,
                "manifest": {
                    "subcommand": "verify",
                    "counters": {"checks_run": 5, "passes": 4, "failures": 1},
                },
                "pass": False,
                "flagged_notes": [],
                "checks": {"bhatia_davis": {"run": 5, "fail": 1, "worst_margin": -0.25}},
                "failures": [{"check": "bhatia_davis", "trial": 3}],
            }

        monkeypatch.setattr(cli, "run_verify", fake_run_verify)
        assert run_cli(["verify", "--trials", "5", "--out", "f.json"]) == 1
        report = json.loads((tmp_chdir / "f.json").read_text())
        assert report["pass"] is False


class TestSearchCommand:
    def test_small_conjecture_run(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        code = run_cli([
            "search", "--objective", "conjecture", "--trials", "50",
            "--seed", "0", "--out", "s.json",
        ])
        assert code == 0
        result = json.loads((tmp_chdir / "s.json").read_text())
        assert result["schema"] == 1
        assert result["discovery"] is False
        assert 0.9 < result["best_value"] <= 1.0 + 1e-9
        inst = instances.instance_from_json(result["best_instance"])
        assert search.conjecture_ratio(inst) == pytest.approx(
            result["best_value"], abs=1e-12
        )

    def test_p_only_for_tightness_objectives(self, tmp_chdir, capsys, monkeypatch):
        # the conjecture objective never reads p: refused before any trial
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        args = ["search", "--p", "2", "--trials", "5"]
        assert run_cli(args + ["--objective", "conjecture", "--out", "c.json"]) == 2
        assert "p applies only to the tightness objectives" in capsys.readouterr().err
        assert not (tmp_chdir / "c.json").exists()
        assert run_cli(args + ["--objective", "tightness_thm2", "--out", "t.json"]) == 0
        assert json.loads((tmp_chdir / "t.json").read_text())["config"]["p"] == 2.0

    def test_deterministic_modulo_timestamps(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        args = ["search", "--objective", "tightness_thm1", "--p", "1",
                "--trials", "40", "--seed", "2"]
        run_cli(args + ["--out", "x.json"])
        run_cli(args + ["--out", "y.json"])
        x = json.loads((tmp_chdir / "x.json").read_text())
        y = json.loads((tmp_chdir / "y.json").read_text())
        assert json.dumps(stripped(x)) == json.dumps(stripped(y))

    @pytest.mark.parametrize("refine, last, origin", [
        (["--refine-steps", "40"], ["refine", 32], "(refine step 32, from trial 17)"),
        ([], ["sample", 17], "(trial 17)"),
    ])
    def test_best_line_names_the_step_that_found_it(self, refine, last, origin, tmp_chdir,
                                                     capsys, monkeypatch):
        # best_index stays the sampled start; the line names the trace's last entry
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        code = run_cli(["search", "--objective", "tightness_thm3", "--p", "3", "--dims",
                        "5,2,3,2", "--M", "100", "--trials", "50", *refine, "--out", "b.json"])
        assert code == 0
        result = json.loads((tmp_chdir / "b.json").read_text())
        assert result["trace"][-1][:2] == last and result["best_index"] == 17
        assert f"best_value: {result['best_value']!r} {origin}\n" in capsys.readouterr().out

    def test_discovery_exit_code(self, tmp_chdir, capsys, monkeypatch):
        def fake_run_search(cfg, workers=1):
            return SearchRecord(
                objective=cfg.objective,
                best_value=1.5,
                best_instance=instances.extremal_instance(cfg.m, cfg.M),
                best_index=17,
                trials_done=cfg.trials,
                trace=[("sample", 0, 1.0), ("sample", 17, 1.5)],
                config=cfg,
            )

        monkeypatch.setattr(cli, "run_search", fake_run_search)
        code = run_cli([
            "search", "--objective", "conjecture", "--trials", "20",
            "--seed", "0", "--out", "d.json",
        ])
        assert code == 3
        result = json.loads((tmp_chdir / "d.json").read_text())
        assert result["discovery"] is True
        assert "DISCOVERY" in capsys.readouterr().out
        # witness is replayable
        assert instances.instance_from_json(result["best_instance"]).m == 1.0

    def test_singular_trials_counted_in_manifest(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        bad_trials = (3, 7, 11)
        real_block = search._block_values

        def flagged_block(cfg, indices):
            values, errors = real_block(cfg, indices)
            for lane, index in enumerate(indices):
                if index in bad_trials:
                    errors[lane] = Singular("forced")
            return values, errors

        monkeypatch.setattr(search, "_block_values", flagged_block)
        code = run_cli([
            "search", "--objective", "conjecture", "--trials", "20",
            "--seed", "0", "--out", "k.json",
        ])
        assert code == 0
        manifest = json.loads((tmp_chdir / "k.json").read_text())["manifest"]
        assert manifest["counters"]["skipped"] == 3

    def test_refine_errors_counted_in_manifest(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        fail_refine_proposals(monkeypatch, 0, NotPSD("forced"))
        code = run_cli([
            "search", "--objective", "conjecture", "--trials", "20",
            "--refine-steps", "10", "--seed", "0", "--out", "e.json",
        ])
        assert code == 0
        result = json.loads((tmp_chdir / "e.json").read_text())
        counters = result["manifest"]["counters"]
        assert counters["refine_errors"] == 3
        assert counters["skipped"] == 0
        assert counters["checks_run"] == result["trials"] == 30
        assert counters["passes"] == 30 - 3

    def test_usage_errors(self, capsys):
        assert run_cli(["search", "--objective", "conjecture", "--trials", "0"]) == 2
        assert run_cli(["search", "--objective", "tightness_thm1", "--trials", "5"]) == 2
        assert run_cli(["search", "--objective", "conjecture", "--dims", "1,2"]) == 2
        assert run_cli(["search", "--objective", "conjecture", "--m", "2", "--M", "1"]) == 2
        assert run_cli(["search", "--objective", "conjecture", "--m", "1", "--M", "1"]) == 2

    def test_unknown_objective_exits_2(self, capsys):
        assert run_cli(["search", "--objective", "nonsense"]) == 2


class TestEntryPoint:
    """`python -m wielandt_lab.cli` turns main's return code into the
    process exit code."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def run(self, tmp_path, *args):
        env = {**os.environ, "PYTHONPATH": str(self.SRC), "WIELANDT_LAB_THREADS": "1"}
        return subprocess.run([sys.executable, "-m", "wielandt_lab.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_version(self, tmp_path):
        out = self.run(tmp_path, "--version")
        assert (out.returncode, out.stdout.strip()) == (0, "wielandt-lab 0.1.0")

    def test_usage_error(self, tmp_path):
        out = self.run(tmp_path, "verify", "--trials", "0")
        assert out.returncode == 2
        assert out.stderr.startswith("error:")

    def test_failing_check(self, tmp_path):
        out = self.run(tmp_path, "verify", "--m", "1e-13", "--M", "1e-11", "--p", "0.5,2",
                       "--trials", "50")
        assert out.returncode == 1, out.stderr

    def test_discovery(self, tmp_path):
        out = self.run(tmp_path, "search", "--objective", "conjecture", "--trials", "4000",
                       "--refine-steps", "400", "--dims", "4,2,2,2", "--m", "1", "--M", "100",
                       "--seed", "0")
        assert out.returncode == 3, out.stderr
        assert "DISCOVERY" in out.stdout


class TestBadInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--p", "1e400"],
            ["verify", "--p", "nan"],
            ["verify", "--tol", "nan"],
            ["verify", "--tol", "-1"],
            # Below the 1e-14 floor rounding alone would fail checks.
            ["verify", "--tol", "0"],
            ["verify", "--tol", "1e-15"],
            ["verify", "--M", "inf"],
            ["verify", "--k", "0"],
            ["verify", "--d", "5"],
            ["bounds", "--p-grid", "1e400"],
            ["bounds", "--M", "inf"],
            ["search", "--objective", "conjecture", "--M", "inf"],
            ["search", "--objective", "conjecture", "--tol", "nan"],
            ["search", "--objective", "conjecture", "--tol", "0"],
            ["search", "--objective", "conjecture", "--tol", "1e-15"],
            ["search", "--objective", "conjecture", "--dims", "4,2,5,2"],
            ["extremal", "--p", "inf"],
            # Bounds and factors that overflow a double or underflow to 0.
            ["verify", "--p", "400"],
            ["bounds", "--p-grid", "399:401:1"],
            ["extremal", "--p", "400"],
            ["verify", "--M", "100", "--p", "200"],
            ["bounds", "--M", "1e300", "--p-grid", "1:3:1"],
            ["search", "--objective", "tightness_thm1", "--M", "1e300", "--p", "2"],
            ["verify", "--m", "1e-13", "--M", "1e-11", "--p", "30"],
            ["verify", "--M", "1e300", "--p", "0.01"],
            ["search", "--objective", "tightness_thm2", "--p", "400"],
            ["search", "--objective", "tightness_thm2", "--p", "330"],
            ["verify", "--M", "1e150", "--p", "0.01"],
            # A grid whose points would not fit in memory.
            ["bounds", "--p-grid", "1:1e9:1"],
            ["verify", "--p", "1:1e9:1"],
            # An exponent the objective ignores is still checked.
            ["search", "--objective", "conjecture", "--p", "-1"],
            ["search", "--objective", "conjecture", "--p", "nan"],
        ],
    )
    def test_exits_2_without_output(self, args, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run = ["--trials", "3", "--out", "o"]
        out = {"verify": run, "search": run, "bounds": ["--csv", "o"], "extremal": []}[args[0]]
        assert run_cli(args + out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not (tmp_chdir / "o").exists()

    @pytest.mark.parametrize("args", [
        ["verify", "--trials", "40"],
        ["search", "--objective", "conjecture", "--M", "100", "--trials", "300"],
        ["search", "--objective", "conjecture", "--M", "2", "--trials", "300"],
    ])
    def test_tol_floor_runs_and_is_named(self, args, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        assert run_cli(args + ["--tol", "1e-14", "--out", "o"]) == 0
        assert run_cli(args + ["--tol", "9e-15", "--out", "p"]) == 2
        assert "tol >= 1e-14" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_contrast_floor_exits_2_before_any_trial(self, seed, tmp_chdir, capsys, monkeypatch):
        # At M/m = 1 + 1e-7 refinement lifted the template's value, which the
        # classical Wielandt inequality caps at 1, to a discovery by rounding.
        def never(*args, **kwargs):
            raise AssertionError("ran before the contrast was checked")

        monkeypatch.setattr(cli, "run_search", never)
        assert run_cli(["search", "--objective", "conjecture", "--m", "1", "--M", "1.0000001",
                        "--trials", "200", "--refine-steps", "400", "--seed", seed,
                        "--out", "o.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need contrast (M-m)/(M+m) >= 1e-15/tol = 1e-06")
        assert list(tmp_chdir.iterdir()) == []

    @pytest.mark.parametrize("bad", [["verify", "--trials", "x"], ["verify", "--p", "nan"],
                                     ["search", "--objective", "nope"]])
    def test_usage_error_leaves_later_runs_unchanged(self, bad, tmp_chdir, capsys, monkeypatch):
        # main is called many times in one process; an argparse or a
        # command-level usage error between two runs must not change the next
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        args = ["verify", "--trials", "20", "--p", "0.5,2", "--seed", "4"]
        timestamp = re.compile(rb'^\s*"(started_at|finished_at)": .*\n', re.MULTILINE)
        reports = []
        for argv in (args + ["--out", "a.json"], bad, args + ["--out", "b.json"]):
            code = run_cli(argv)
            if argv is bad:
                assert code == 2
            else:
                assert code == 0
                reports.append(timestamp.sub(b"", (tmp_chdir / argv[-1]).read_bytes()))
        assert reports[0] == reports[1]


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv, runner", [
        (["verify", "--trials", "3", "--out"], "run_verify"),
        (["search", "--objective", "conjecture", "--trials", "3", "--out"], "run_search"),
        (["bounds", "--csv"], "bounds_table"),
    ], ids=["verify", "search", "bounds"])
    @pytest.mark.parametrize("target", ["missing/o.json", ".", ""],
                             ids=["no-directory", "directory", "empty"])
    def test_exits_2_before_any_trial(self, argv, runner, target, tmp_chdir, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(cli, runner, never)
        assert run_cli(argv + [target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
        assert list(tmp_chdir.iterdir()) == []

    def test_flag_errors_come_first(self, tmp_chdir, capsys):
        assert run_cli(["verify", "--M", "inf", "--out", "missing/o.json"]) == 2
        assert "cannot write" not in capsys.readouterr().err

    def test_existing_file_is_overwritten(self, tmp_chdir, capsys):
        (tmp_chdir / "t.csv").write_text("old\n")
        assert run_cli(["bounds", "--p-grid", "1", "--csv", "t.csv"]) == 0
        assert (tmp_chdir / "t.csv").read_text().startswith("# p_star=")


class TestManifest:
    def test_counters_consistent(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run_cli(["verify", "--trials", "10", "--out", "m.json"])
        manifest = json.loads((tmp_chdir / "m.json").read_text())["manifest"]
        c = manifest["counters"]
        assert list(c) == ["checks_run", "passes", "failures"]
        assert c["passes"] + c["failures"] == c["checks_run"]
        assert manifest["version"]
        assert manifest["config"]["trials"] == 10
        assert manifest["started_at"] <= manifest["finished_at"]
        assert "worst margin" not in capsys.readouterr().out

    def test_search_counters(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run_cli(["search", "--objective", "conjecture", "--trials", "10", "--out", "s.json"])
        counters = json.loads((tmp_chdir / "s.json").read_text())["manifest"]["counters"]
        assert counters == {"checks_run": 10, "passes": 10, "skipped": 0, "refine_errors": 0}


def _block_pid(block):
    return os.getpid(), block.start, block.stop


class TestFanOut:
    # At ambient dimension 4 a block holds BLOCK_SIZE trials.
    def test_blocks_come_back_in_index_order(self):
        results = fan_out(_block_pid, (), range(1, 30), 3, 4)
        # worker ranges [1, 10), [10, 20) and [20, 30), each cut at the
        # multiples of 4
        assert [(a, b) for _, a, b in results] == [
            (1, 4), (4, 8), (8, 10), (10, 12), (12, 16), (16, 20), (20, 24), (24, 28), (28, 30)
        ]

    def test_first_range_runs_in_the_caller(self):
        results = fan_out(_block_pid, (), range(3 * BLOCK_SIZE + 5), 3, block_size(4))
        # worker ranges start at 0, 513 and 1027; each walks to the next
        # multiple of BLOCK_SIZE, then the rest
        edges = [0, BLOCK_SIZE, 513, 2 * BLOCK_SIZE, 1027, 3 * BLOCK_SIZE, 1541]
        assert [(a, b) for _, a, b in results] == list(zip(edges[:-1], edges[1:]))
        pids = [pid for pid, _, _ in results]
        assert pids[:2] == [os.getpid()] * 2
        assert os.getpid() not in pids[2:]

    def test_small_runs_stay_serial(self):
        # A fresh process walks a first range below a full block per worker
        # in the caller; once the pool runs, a range of fewer trials than
        # workers still stays there.
        results = fan_out(_block_pid, (), range(3 * BLOCK_SIZE - 1), 3, block_size(4))
        assert results == [(os.getpid(), 0, BLOCK_SIZE), (os.getpid(), BLOCK_SIZE, 2 * BLOCK_SIZE),
                           (os.getpid(), 2 * BLOCK_SIZE, 3 * BLOCK_SIZE - 1)]
        assert len(_pool_pids(fan_out(_block_pid, (), range(3 * BLOCK_SIZE), 3, block_size(4)))) == 2
        assert fan_out(_block_pid, (), range(2), 3, block_size(4)) == [(os.getpid(), 0, 2)]
        assert fan_out(_block_pid, (), range(1), 3, block_size(4)) == [(os.getpid(), 0, 1)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_needs_a_full_block_per_worker(self, workers):
        trials = BLOCK_SIZE * workers
        serial = fan_out(_block_pid, (), range(trials - 1), workers, block_size(4))
        assert {pid for pid, _, _ in serial} == {os.getpid()}
        pids = [pid for pid, _, _ in fan_out(_block_pid, (), range(trials), workers, block_size(4))]
        assert len(pids) == workers and os.getpid() not in pids[1:]

    def test_empty_range_returns_nothing(self):
        assert fan_out(_block_pid, (), range(0), 3, block_size(4)) == []
        assert fan_out(_block_pid, (), range(5, 5), 1, block_size(4)) == []


def _fail_in_caller(caller, marker, block):
    """Raise in the calling process; in a pool process, write `marker` after
    a pause."""
    if os.getpid() == caller:
        raise ValueError("the caller's share failed")
    time.sleep(0.2)
    Path(marker).write_text("ran")
    return _block_pid(block)


def _fail_in_pool(marker, block):
    """Raise in the process walking the range from BLOCK_SIZE; in the one
    walking the range from 2 * BLOCK_SIZE, write `marker` after a pause."""
    if block.start == BLOCK_SIZE:
        raise KeyError(f"pool share {block.start} failed")
    if block.start == 2 * BLOCK_SIZE:
        time.sleep(0.3)
        Path(marker).write_text("ran")
    return _block_pid(block)


def _kill_own_process(block):
    """SIGKILL the process walking the range from BLOCK_SIZE."""
    if block.start == BLOCK_SIZE:
        os.kill(os.getpid(), signal.SIGKILL)
    return _block_pid(block)


def _lock(block):
    """A result that cannot be pickled."""
    return threading.Lock()


class _LockError(Exception):
    """An exception that cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _TwoArgError(Exception):
    """An exception that pickles but cannot be unpickled: its args hold one
    of its two required arguments."""

    def __init__(self, message, code):
        super().__init__(message)


def _raise_in_pool(error, args, block):
    """Raise ``error(message, *args)``, the message naming the range, in the
    process walking the range from BLOCK_SIZE."""
    if block.start == BLOCK_SIZE:
        raise error(f"pool share {block.start} failed", *args)
    return _block_pid(block)


def _pool_pids(results) -> set:
    return {pid for pid, _, _ in results} - {os.getpid()}


def _gone(pid: int, seconds: float = 10.0) -> bool:
    """Whether process `pid` has exited and been reaped within `seconds`."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


class TestSharedPool:
    # A full block per worker starts the pool; a range that gives each
    # worker a trial then reuses it.
    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_fan_outs_reuse_the_pool_processes(self):
        started = _pool_pids(fan_out(_block_pid, (), range(2 * BLOCK_SIZE), 2, block_size(4)))
        reused = fan_out(_block_pid, (), range(2), 2, block_size(4))
        assert [(a, b) for _, a, b in reused] == [(0, 1), (1, 2)]
        assert len(started) == 1 and _pool_pids(reused) == started
        assert fan_out(_block_pid, (), range(1), 2, block_size(4)) == [(os.getpid(), 0, 1)]

    def test_serial_walks_that_could_split_start_the_pool(self):
        # The first range that could split over 2 workers is walked serially
        # and the second starts the pool; ranges on one worker or of fewer
        # trials than workers could not split and do not count.
        for indices, workers in ((range(2), 1), (range(1), 2), (range(2), 2), (range(2), 1)):
            assert _pool_pids(fan_out(_block_pid, (), indices, workers, block_size(4))) == set()
        results = fan_out(_block_pid, (), range(2), 2, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2)]
        assert len(_pool_pids(results)) == 1

    def test_worker_count_change_rebuilds_the_pool(self):
        # Below a full block per worker, a new worker count waits for its
        # second range, as a first pool does; the old pool serves meanwhile.
        two = _pool_pids(fan_out(_block_pid, (), range(2 * BLOCK_SIZE), 2, block_size(4)))
        assert _pool_pids(fan_out(_block_pid, (), range(3), 3, block_size(4))) == set()
        assert _pool_pids(fan_out(_block_pid, (), range(2), 2, block_size(4))) == two
        results = fan_out(_block_pid, (), range(3), 3, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2), (2, 3)]
        three = _pool_pids(results)
        assert len(three) == 2 and not three & two
        assert all(_gone(pid) for pid in two)

    def test_dead_worker_is_replaced(self):
        (pid,) = _pool_pids(fan_out(_block_pid, (), range(2 * BLOCK_SIZE), 2, block_size(4)))
        os.kill(pid, signal.SIGKILL)
        # wait for the exit without reaping: the killed process stays a
        # zombie until the next fan_out polls the pool
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        assert not _gone(pid, 0.0)
        results = fan_out(_block_pid, (), range(2), 2, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2)]
        assert len(_pool_pids(results)) == 1 and pid not in _pool_pids(results)
        assert _gone(pid, 0.0)

    def test_process_killed_mid_share_is_named_and_replaced(self):
        # The error names the process and its signal; the pool is closed at
        # once, the third range's process too, and the next range that could
        # split starts a new pool.
        started = fan_out(_block_pid, (), range(3 * BLOCK_SIZE), 3, block_size(4))
        killed, other = (pid for pid, _, _ in started[1:])
        message = rf"^pool process {killed} was killed by signal {int(signal.SIGKILL)} \("
        with pytest.raises(RuntimeError, match=message) as raised:
            fan_out(_kill_own_process, (), range(3 * BLOCK_SIZE), 3, block_size(4))
        assert isinstance(raised.value.__cause__, EOFError)
        assert sampling._pool is None and _gone(killed, 0.0) and _gone(other, 0.0)
        results = fan_out(_block_pid, (), range(3), 3, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2), (2, 3)]
        assert len(_pool_pids(results)) == 2 and not _pool_pids(results) & {killed, other}

    @pytest.mark.parametrize("ambient,workers", [(4, 2), (4, 3), (8, 2), (8, 3)])
    def test_warm_pool_splits_from_one_trial_per_worker(self, ambient, workers, pool_submits):
        # Once a full block per worker has started the pool, a range splits
        # exactly when every worker gets a trial, at any N.
        fan_out(_block_pid, (), range(workers * BLOCK_SIZE), workers, block_size(ambient))
        below = fan_out(_block_pid, (), range(workers - 1), workers, block_size(ambient))
        assert below == [(os.getpid(), 0, workers - 1)]
        ones = fan_out(_block_pid, (), range(workers), workers, block_size(ambient))
        assert [(a, b) for _, a, b in ones] == [(i, i + 1) for i in range(workers)]
        assert pool_submits == [(i * BLOCK_SIZE, (i + 1) * BLOCK_SIZE) for i in range(1, workers)
                                ] + [(i, i + 1) for i in range(1, workers)]
        for trials in range(1, 601):
            split = bool(_pool_pids(fan_out(_block_pid, (), range(trials), workers, block_size(ambient))))
            assert split == (trials >= workers), trials

    def test_frontier_wide_search_splits_over_a_warm_pool(self, tmp_chdir, monkeypatch,
                                                          pool_submits):
        # frontier-wide's flags: 100 trials at N = 8, split over a warm pool
        # of 2 and 3 workers; trial 0 heads the caller's share.
        args = ["search", "--objective", "conjecture", "--dims", "8,4,4,2", "--m", "1",
                "--M", "100", "--refine-steps", "400", "--tol", "1e-9", "--trials", "100",
                "--seed", "11", "--out", "s.json"]
        timestamp = re.compile(rb'^\s*"(started_at|finished_at)": .*\n', re.MULTILINE)
        reports = set()
        for workers in (1, 2, 3):
            monkeypatch.setenv("WIELANDT_LAB_THREADS", str(workers))
            fan_out(_block_pid, (), range(workers * BLOCK_SIZE), workers, block_size(8))
            code = run_cli(args)
            reports.add((code, timestamp.sub(b"", (tmp_chdir / "s.json").read_bytes())))
        assert len(reports) == 1
        assert pool_submits == [(BLOCK_SIZE, 2 * BLOCK_SIZE), (50, 100),
                                (BLOCK_SIZE, 2 * BLOCK_SIZE), (2 * BLOCK_SIZE, 3 * BLOCK_SIZE),
                                (33, 66), (66, 100)]

    def test_caller_error_leaves_no_pool_work_running(self, tmp_path):
        # The pool's share finished before the error propagated, so it does
        # not run into the next call.
        marker = tmp_path / "ran"
        with pytest.raises(ValueError, match="caller's share"):
            fan_out(_fail_in_caller, (os.getpid(), str(marker)), range(2 * BLOCK_SIZE), 2, block_size(4))
        assert marker.exists()
        results = fan_out(_block_pid, (), range(2), 2, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2)]

    def test_pool_error_reaches_the_caller_after_every_share(self, tmp_path):
        # The second range's process raises; the third's, which replies
        # later, has finished by then, and the pool serves the next call.
        marker = tmp_path / "ran"
        with pytest.raises(KeyError, match="pool share 512 failed"):
            fan_out(_fail_in_pool, (str(marker),), range(3 * BLOCK_SIZE), 3, block_size(4))
        assert marker.exists()
        results = fan_out(_block_pid, (), range(3), 3, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2), (2, 3)]
        assert len(_pool_pids(results)) == 2

    def test_result_that_fails_to_pickle_is_an_error_reply(self):
        # The process pickles its reply before it sends it, so a result it
        # cannot pickle comes back as the pickling error, and the same
        # process serves the next range.
        (pid,) = _pool_pids(fan_out(_block_pid, (), range(2 * BLOCK_SIZE), 2, block_size(4)))
        with pytest.raises(TypeError, match="pickle"):
            fan_out(_lock, (), range(2), 2, block_size(4))
        assert _pool_pids(fan_out(_block_pid, (), range(2), 2, block_size(4))) == {pid}

    @pytest.mark.parametrize("error,args", [(_LockError, ()), (_TwoArgError, (0,))])
    def test_error_that_fails_to_pickle_comes_back_named(self, error, args):
        # An error the process cannot pickle, or the caller could not
        # unpickle, comes back as a RuntimeError naming its type and
        # message; every process serves the next range, and no reply of
        # the failed range is left in a pipe for it.
        pids = _pool_pids(fan_out(_block_pid, (), range(3 * BLOCK_SIZE), 3, block_size(4)))
        message = rf"^{error.__name__}: pool share {BLOCK_SIZE} failed$"
        with pytest.raises(RuntimeError, match=message):
            fan_out(_raise_in_pool, (error, args), range(3 * BLOCK_SIZE), 3, block_size(4))
        results = fan_out(_block_pid, (), range(3), 3, block_size(4))
        assert [(a, b) for _, a, b in results] == [(0, 1), (1, 2), (2, 3)]
        assert _pool_pids(results) == pids

    def _python(self, *lines, timeout=120):
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        return subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                              capture_output=True, text=True, timeout=timeout)

    def test_exit_ends_the_pool(self):
        out = self._python(
            "import os",
            "from wielandt_lab.sampling import BLOCK_SIZE, block_size, fan_out",
            "def pid(block):",
            "    return os.getpid()",
            "print(*set(fan_out(pid, (), range(2 * BLOCK_SIZE), 2, block_size(4))) - {os.getpid()})",
        )
        assert (out.returncode, out.stderr) == (0, "")
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 1 and _gone(pids[0], 0.0)

    def test_close_ends_every_process(self):
        # Each process closes the calling ends it inherited, so closing them
        # in the caller ends every process; otherwise close_pool hangs.
        out = self._python(
            "import os",
            "from wielandt_lab.sampling import BLOCK_SIZE, block_size, close_pool, fan_out",
            "def pid(block):",
            "    return os.getpid()",
            "print(*set(fan_out(pid, (), range(3 * BLOCK_SIZE), 3, block_size(4))) - {os.getpid()})",
            "close_pool()",
            timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2 and all(_gone(pid, 0.0) for pid in pids)

    def test_request_that_fails_to_unpickle_is_an_error_reply(self):
        # A function defined after the fork is not in a pool process's
        # __main__: the caller re-raises the process's AttributeError, and
        # the same process serves the next range.
        out = self._python(
            "import os",
            "from wielandt_lab.sampling import BLOCK_SIZE, block_size, fan_out",
            "def pid(block):",
            "    return os.getpid()",
            "print(*set(fan_out(pid, (), range(2 * BLOCK_SIZE), 2, block_size(4))) - {os.getpid()})",
            "def late(block):",
            "    return os.getpid()",
            "try:",
            "    fan_out(late, (), range(2), 2, block_size(4))",
            "except AttributeError as exc:",
            "    print(type(exc).__name__, 'late' in str(exc))",
            "print(*set(fan_out(pid, (), range(2), 2, block_size(4))) - {os.getpid()})",
        )
        assert (out.returncode, out.stderr) == (0, "")
        before, raised, after = out.stdout.splitlines()
        assert raised == "AttributeError True" and before == after

    def test_request_that_fails_to_pickle_raises_at_once(self):
        # Every range's request is pickled before any is sent, so one that
        # cannot be pickled raises in the caller, leaves no process waiting
        # for a request it never got (which hung the caller's receive), and
        # the same process serves the next range.
        out = self._python(
            "import os, threading",
            "from wielandt_lab.sampling import BLOCK_SIZE, block_size, fan_out",
            "def pid(*args):",
            "    return os.getpid()",
            "print(*set(fan_out(pid, (), range(2 * BLOCK_SIZE), 2, block_size(4))) - {os.getpid()})",
            "try:",
            "    fan_out(pid, (threading.Lock(),), range(8 * BLOCK_SIZE), 2, block_size(4))",
            "except TypeError as exc:",
            "    print(type(exc).__name__, 'pickle' in str(exc))",
            "print(*set(fan_out(pid, (), range(2), 2, block_size(4))) - {os.getpid()})",
            timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        before, raised, after = out.stdout.splitlines()
        assert raised == "TypeError True" and before == after

    def test_reply_that_fails_to_unpickle_leaves_no_reply_behind(self):
        # The second range's result pickles but cannot be unpickled.  Every
        # reply is read before any is unpickled, so the call raises with the
        # third range's reply read too, and the next call gets its own
        # results from the same processes.
        out = self._python(
            "import os",
            "from wielandt_lab.sampling import BLOCK_SIZE, block_size, fan_out",
            "class TwoArg(Exception):",
            "    def __init__(self, message, code):",
            "        super().__init__(message)",
            "def tagged(tag, block):",
            "    if tag == 'first' and block.start == BLOCK_SIZE:",
            "        return TwoArg(tag, 0)",
            "    return tag, os.getpid()",
            "print(*[pid for _, pid in fan_out(tagged, ('warm',), range(3 * BLOCK_SIZE), 3, BLOCK_SIZE)])",
            "try:",
            "    fan_out(tagged, ('first',), range(3 * BLOCK_SIZE), 3, BLOCK_SIZE)",
            "except TypeError as exc:",
            "    print(type(exc).__name__)",
            "print(*[f'{tag}:{pid}' for tag, pid in fan_out(tagged, ('second',), range(3), 3, 1)])",
            timeout=60,
        )
        assert (out.returncode, out.stderr) == (0, "")
        warm, raised, after = out.stdout.splitlines()
        assert raised == "TypeError"
        assert after.split() == [f"second:{pid}" for pid in warm.split()]

    def test_pool_forked_before_any_draw_probes_for_itself(self):
        # The pool starts on the first range, before the calling process has
        # probed numpy's lane path, so each pool process probes it itself;
        # the report equals the serial one.
        out = self._python(
            "import json",
            "from wielandt_lab import cli, sampling",
            "params = cli.VerifyParams(trials=2 * sampling.block_size(4), ambient=4, rank=2,",
            "                          out_dim=2, ancilla=2, m=1.0, M=2.0, p_values=(0.5, 2.0),",
            "                          tol=1e-9, seed=11)",
            "def report(workers):",
            "    out = cli.run_verify(params, workers=workers)",
            "    out['manifest'].pop('started_at'), out['manifest'].pop('finished_at')",
            "    return json.dumps(out)",
            "print(sampling._lane_path.cache_info().misses)",
            "two = report(2)",
            "print(len(sampling._pool[1]), two == report(1))",
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines() == ["0", "1 True"]

    def test_one_shot_search_below_a_full_block_starts_no_pool(self):
        out = self._python(
            "import sys",
            "from wielandt_lab import search",
            "search.run_search(search.SearchConfig(trials=400, seed=1), workers=2)",
            "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)",
        )
        assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "False False", "")

    def test_reports_do_not_depend_on_workers_at_real_thresholds(self, pool_submits):
        # Real block sizes: 384 trials give 2 and 3 workers less than a full
        # block each, once a full block per worker has started the pool; a
        # search's range starts at trial 0, so its one trial more goes to
        # the last share.  One pool serves all four configs at each worker
        # count.
        trials = 384
        rank3 = dict(ambient=6, rank=3, out_dim=3, ancilla=2)
        runs = {
            "verify-N4": lambda w: stripped(cli.run_verify(
                _params(SHAPES[0], trials=trials, seed=5), workers=w)),
            "verify-rank3": lambda w: stripped(cli.run_verify(
                _params(rank3, M=10.0, trials=trials, seed=5), workers=w)),
            "conjecture": lambda w: search.random_search(
                search.SearchConfig(trials=trials + 1, seed=5), workers=w).to_json(),
            "tightness_thm2": lambda w: search.random_search(search.SearchConfig(
                objective="tightness_thm2", p=2.0, trials=trials + 1, seed=5), workers=w).to_json(),
        }
        serial = {name: json.dumps(run(1)) for name, run in runs.items()}
        for workers in (2, 3):
            fan_out(_block_pid, (), range(workers * BLOCK_SIZE), workers, block_size(4))
            pools = []
            for name, run in runs.items():
                assert json.dumps(run(workers)) == serial[name], (name, workers)
                pools.append(sampling._pool)
            assert all(pool is pools[0] for pool in pools)
        half, third = trials // 2, trials // 3
        assert pool_submits == [
            (BLOCK_SIZE, 2 * BLOCK_SIZE),
            *[(trials, 2 * trials)] * 2, *[(half, trials + 1)] * 2,
            (BLOCK_SIZE, 2 * BLOCK_SIZE), (2 * BLOCK_SIZE, 3 * BLOCK_SIZE),
            *[(2 * third, 4 * third), (4 * third, 2 * trials)] * 2,
            *[(third, 2 * third), (2 * third, trials + 1)] * 2,
        ]

    def test_reports_of_a_few_trials_do_not_depend_on_workers(self, pool_submits):
        # A warm pool takes every run that gives each worker a unit (a trial
        # of a search, one family's checks of a trial of verify); from 2 to 9
        # trials at N = 4 and N = 8 its reports equal the 1-worker ones.
        shapes = {4: SHAPES[0], 8: dict(ambient=8, rank=4, out_dim=4, ancilla=2)}
        runs = {
            "verify": lambda shape, trials, w: stripped(cli.run_verify(
                _params(shape, trials=trials, seed=7), workers=w)),
            "search": lambda shape, trials, w: search.random_search(
                search.SearchConfig(trials=trials, seed=7, **shape), workers=w).to_json(),
        }
        cases = [(name, ambient, trials) for name in runs for ambient in shapes
                 for trials in range(2, 10)]
        serial = {case: json.dumps(runs[case[0]](shapes[case[1]], case[2], 1)) for case in cases}
        want = []
        for workers in (2, 3):
            fan_out(_block_pid, (), range(workers * BLOCK_SIZE), workers, block_size(4))
            want += [(i * BLOCK_SIZE, (i + 1) * BLOCK_SIZE) for i in range(1, workers)]
            pool = sampling._pool
            for name, ambient, trials in cases:
                report = json.dumps(runs[name](shapes[ambient], trials, workers))
                assert report == serial[name, ambient, trials], (name, ambient, trials, workers)
                units = 2 * trials if name == "verify" else trials
                if units >= workers:
                    want += [(units * i // workers, units * (i + 1) // workers)
                             for i in range(1, workers)]
            assert sampling._pool is pool
        assert pool_submits == want


# Reports may drift from those of the one-trial implementation by this much,
# relative to max(1, |value|); a worst margin, relative to max(1, |margin|,
# the magnitudes the check compares): a margin that is a difference of large
# values (thm1_chain at M/m = 100, p >= 2) carries their rounding.
DRIFT = 1e-13

# Timestamp-stripped verify reports of the one-trial implementation that
# preceded the stacked kernels (git c4569bc, the last release with both), for
# the configurations of TestStackedVerify.
DATA = Path(__file__).parent / "data"
FROZEN = json.loads((DATA / "verify_reports.json").read_text())


def _check_scale(reports, name):
    """max(1, |values compared|) over the reports of check `name`."""
    values = [1.0]
    for r in reports:
        if r.check == name:
            values += r.payload.get("links", [])
            values += [r.payload[k] for k in ("lhs", "bound", "t", "x_norm") if k in r.payload]
    return max(abs(v) for v in values)


SHAPES = [
    dict(ambient=4, rank=2, out_dim=2, ancilla=2),  # 2x2 closed form throughout
    dict(ambient=7, rank=3, out_dim=2, ancilla=3),  # LAPACK lemma solves, d != n
    dict(ambient=4, rank=2, out_dim=3, ancilla=2),  # LAPACK instance solves, d != n
]


def _shape_key(shape):
    return "{ambient},{rank},{out_dim},{ancilla}".format(**shape)


def _params(shape, m=1.0, M=2.0, p_values=(0.5, 2.0), trials=60, seed=0, tol=1e-9):
    return cli.VerifyParams(
        trials=trials, m=m, M=M, p_values=tuple(p_values), tol=tol, seed=seed, **shape
    )


def _scalar_reports(params, trial):
    """The Reports of one trial, through the one-trial entry points."""
    seed = mix_seed(params.seed, trial)
    inst = instances.gen_instance(
        seed, params.ambient, params.rank, params.out_dim, params.ancilla, params.m, params.M
    )
    reports = bounds.run_instance_checks(inst, params.p_values, params.tol)
    return reports + bounds.run_lemma_trial(
        seed, params.lemma_dim, params.ambient, params.m, params.M, params.tol,
        variant=trial % 4,
    )


def assert_close(got, want, path="report"):
    """Equal structure, keys, strings, integers, booleans and None; floats
    within DRIFT relative to max(1, |value|)."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (x, y) in enumerate(zip(got, want)):
            assert_close(x, y, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert abs(got - want) <= DRIFT * max(1.0, abs(want)), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def assert_matches_scalar(stacked, scalar, params):
    """Everything equal but floats (within DRIFT) and worst trials."""
    a, b = stripped(stacked), copy.deepcopy(scalar)
    worst = {}
    for name in a["checks"]:
        x, y = a["checks"][name], b["checks"].get(name, {})
        worst[name] = [x.pop("worst_margin"), x.pop("worst_trial")]
        worst[name] += [y.pop("worst_margin", None), y.pop("worst_trial", None)]
    assert_close(a, b)
    for name, (x, x_trial, y, y_trial) in worst.items():
        assert (x is None) == (y is None)
        if x is not None and name != "thm1_chain":  # frozen: absolute link gaps
            scale = max(
                _check_scale(_scalar_reports(params, trial), name) for trial in (x_trial, y_trial)
            )
            assert abs(x - y) <= DRIFT * max(abs(y), scale), (name, x, y)


class TestStackedVerify:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "M,p_values", [(2.0, (0.25, 1.0, 3.0)), (50.0, (0.5, 1.5)), (100.0, (0.75, 2.0, 3.0))]
    )
    def test_matches_scalar_walk(self, shape, M, p_values):
        params = _params(shape, M=M, p_values=p_values, trials=100, seed=11)
        stacked = cli.run_verify(params)
        assert stacked["pass"]
        assert_matches_scalar(stacked, FROZEN[f"walk {_shape_key(shape)} M={M!r}"], params)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_lane_margins_match_scalar_reports(self, shape):
        for m, M in ((1.0, 100.0), (1e-14, 3e-12)):
            params = _params(shape, m=m, M=M, p_values=(0.5, 1.0, 2.5), trials=64, seed=3)
            trials = range(params.trials)
            frozen = FROZEN[f"lanes {_shape_key(shape)} m={m!r} M={M!r}"]
            assert_matches_scalar(cli.run_verify(params), frozen, params)
            raised = {f["trial"] for f in frozen["failures"] if f["check"] == "trial_error"}
            # each family drawn in two pieces, cut at trial 29, on streams of
            # their own: a lane's margins and exception do not depend on
            # where its block is cut
            margins, errors = {trial: {} for trial in trials}, set()
            for rows, lanes in cli._FAMILIES:
                for piece in (range(0, 29), range(29, params.trials)):
                    seeds = mix_seeds(params.seed, piece)
                    checks = lanes(params, piece, seeds, rngs_from(rows(seeds)))
                    errors |= {piece[lane] for lane in checks.errors}
                    for name, _, margin, _ in checks.checks:
                        for lane, trial in enumerate(piece):
                            got = None if margin is None else float(margin[lane])
                            margins[trial].setdefault(name, []).append(got)
            assert errors == raised
            for trial in trials:
                if trial in raised:
                    continue
                reports = _scalar_reports(params, trial)
                assert all(r.passed for r in reports)
                scalar = {}
                for r in reports:
                    scalar.setdefault(r.check, []).append(r.margin)
                assert {k: len(v) for k, v in scalar.items()} == {
                    k: len(v) for k, v in margins[trial].items()
                }
                for name, got in margins[trial].items():
                    if got[0] is None:
                        continue
                    want = min(scalar[name])
                    scale = _check_scale(reports, name)
                    assert abs(min(got) - want) <= DRIFT * max(abs(want), scale), (trial, name)
            if m == 1.0:
                assert not raised
            else:
                assert raised  # singular compressed operators near scale 1e-12

    def test_block_size_and_workers_do_not_change_report(self, monkeypatch, pool_ranges):
        # fan_out walks blocks of sampling.block_size trials, and the
        # exponents are scored in groups of bounds.block_size // lanes, so
        # these (walk, group) blocks give groups of one, several and all six
        # exponents; every 2- and 3-worker run reaches the pool.
        params = _params(SHAPES[0], M=100.0, p_values=(0.25, 0.5, 1, 1.5, 2, 3), trials=90,
                         seed=4)
        groups = set()
        real_gamma_stack = bounds.gamma_stack

        def recording(s_eig, t_eig, bad, p_values):
            groups.add(len(p_values))
            return real_gamma_stack(s_eig, t_eig, bad, p_values)

        monkeypatch.setattr(bounds, "gamma_stack", recording)
        reports = set()
        for walk, group in ((1, 1), (7, 7), (30, 64), (30, BLOCK_SIZE)):
            monkeypatch.setattr(sampling, "block_size", lambda ambient: walk)
            monkeypatch.setattr(bounds, "block_size", lambda ambient: group)
            for workers in (1, 2, 3):
                reports.add(json.dumps(stripped(cli.run_verify(params, workers=workers))))
        assert pool_ranges == [(90, 180), (60, 120), (120, 180)] * 4
        assert len(reports) == 1
        assert {1, 6} < groups

    @pytest.mark.parametrize(
        "dims, trials, p_grid, mib",
        [((8, 4, 4, 2), BLOCK_SIZE, "0.25,0.5,1,1.5,2,3", 12),
         ((16, 4, 4, 2), BLOCK_SIZE, "0.25,0.5,1,1.5,2,3", 8),
         ((16, 8, 16, 2), 8, "0.1:6:0.1", 8)],
        ids=["8-4-12", "16-4-8", "16-8-16-2-long-grid"],
    )
    def test_full_block_memory(self, dims, trials, p_grid, mib):
        # 512 trials peak near 7.8 MiB of traced allocations at N = 8 (one
        # block of 512 lanes) and 4.7 MiB at N = 16 (four blocks of 128); a
        # kernel that keeps per-lane arrays alive, or a walk that ignores the
        # lane budget (18.5 MiB at N = 16), passes these limits.  A long grid
        # on a small block is scored in groups of block_size(d) // lanes
        # exponents (16 of the 60 here), which peak near 6.1 MiB; one group of
        # all 60 exponents peaks near 13.7 MiB.
        shape = dict(zip(("ambient", "rank", "out_dim", "ancilla"), dims))
        params = _params(shape, p_values=cli.parse_p_list(p_grid), trials=trials)
        block = block_size(params.ambient)
        cli.run_verify(replace(params, trials=2))  # first-call caches stay out of the trace
        tracemalloc.start()
        try:
            fan_out(cli._verify_part, (params, block), range(2 * trials), 1, 2 * block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20

    def test_forced_failures_match_scalar_walk(self, monkeypatch):
        real = bounds.bound_thm2
        monkeypatch.setattr(bounds, "bound_thm2", lambda m, M, p: 0.6 * real(m, M, p))
        params = _params(SHAPES[0], M=2.0, p_values=(0.5, 2.0), trials=80, seed=6)
        stacked = cli.run_verify(params)
        assert not stacked["pass"]
        assert {f["check"] for f in stacked["failures"]} >= {"thm2_abs", "gamma_norm_le_thm2"}
        frozen = json.loads((DATA / "forced_failures.json").read_text())
        assert_matches_scalar(stacked, frozen, params)

    def test_trial_errors_match_scalar_walk(self):
        # At spectral scale 1e-12 some compressed operators are numerically
        # singular, and those trials are reported as trial_error.
        params = _params(SHAPES[0], m=1e-13, M=1e-11, p_values=(0.5, 2.0), trials=80, seed=2)
        stacked = cli.run_verify(params)
        assert stacked["checks"]["trial_error"]["fail"] > 0
        assert_matches_scalar(stacked, FROZEN["trial-errors"], params)

    @pytest.mark.parametrize(
        "shape,M",
        [(dict(ambient=2, rank=1, out_dim=1, ancilla=1), 2.0),
         (dict(ambient=5, rank=1, out_dim=2, ancilla=2), 30.0)],
    )
    def test_rank_one_matches_scalar_walk(self, shape, M):
        params = _params(shape, M=M, p_values=(0.5, 1.0, 2.0), trials=100, seed=2)
        stacked = cli.run_verify(params)
        assert stacked["pass"] and "trial_error" not in stacked["checks"]
        assert_matches_scalar(stacked, FROZEN[f"rank-one {_shape_key(shape)} M={M!r}"], params)

    @pytest.mark.parametrize(
        "shape,message",
        [
            (dict(ambient=3, rank=2, out_dim=2, ancilla=2), "N must be >= 2n"),
            (dict(ambient=4, rank=2, out_dim=5, ancilla=2), "d <= n\\*k"),
        ],
        ids=["shape0", "shape1"],
    )
    def test_unstackable_shapes_are_rejected(self, shape, message):
        # No isometry pair exists with N < 2n, no isometry with d > n*k.
        with pytest.raises(ValueError, match=message):
            cli.run_verify(_params(shape, trials=10, seed=1))

    @pytest.mark.parametrize("shape,M", [(SHAPES[1], 50.0), (SHAPES[0], 100.0)])
    def test_worst_trial_reproduces_worst_margin(self, shape, M):
        params = _params(shape, M=M, p_values=(0.5, 3.0), trials=60, seed=5)
        report = cli.run_verify(params)
        for name, entry in report["checks"].items():
            if entry["worst_margin"] is None:
                assert entry["worst_trial"] is None
                continue
            reports = _scalar_reports(params, entry["worst_trial"])
            margin = min(r.margin for r in reports if r.check == name)
            scale = _check_scale(reports, name)
            assert abs(margin - entry["worst_margin"]) <= DRIFT * max(abs(margin), scale)


# verify-sweep's flags (perfbench/workloads.py) but --trials, --seed and --out.
VERIFY_SWEEP = ["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
                "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9"]


class TestCutBlocks:
    # A verify trial is two units, its instance checks then (after the
    # block's other instance units) its lemma checks, so a worker's share
    # can cut a block between families or inside one.
    TRIALS = (1, 2, 3, 49, 50, 51, 511, 512, 513, 1100)

    @staticmethod
    def _warm(workers):
        sampling.close_pool()
        fan_out(_block_pid, (), range(workers * BLOCK_SIZE), workers, block_size(4))

    @pytest.mark.parametrize("walk", [None, 7, 30])
    def test_reports_do_not_depend_on_workers(self, walk, monkeypatch):
        # Real blocks and (walk, group) blocks as in
        # test_block_size_and_workers_do_not_change_report; on warm pools of
        # 2 and 3 workers the cuts fall between families, inside the
        # instance units and inside the lemma units.
        if walk is not None:
            monkeypatch.setattr(sampling, "block_size", lambda ambient: walk)
            monkeypatch.setattr(bounds, "block_size", lambda ambient: walk)
        trials = self.TRIALS if walk is None else self.TRIALS[:6]  # many blocks already
        params = [_params(SHAPES[0], trials=t, seed=8) for t in trials]
        serial = [json.dumps(stripped(cli.run_verify(p))) for p in params]
        for workers in (1, 2, 3):
            self._warm(workers)
            for p, want in zip(params, serial):
                got = json.dumps(stripped(cli.run_verify(p, workers=workers)))
                assert got == want, (walk, p.trials, workers)

    def test_failures_and_trial_errors_survive_cut_blocks(self, monkeypatch):
        # The configs of test_forced_failures_match_scalar_walk and
        # test_trial_errors_match_scalar_walk: at 3 workers the second
        # share holds instance units of trials 53-79, so failing checks
        # come back in that part's tallies, and a trial error has the
        # caller check the cut block again as a whole.
        real = bounds.bound_thm2
        monkeypatch.setattr(bounds, "bound_thm2", lambda m, M, p: 0.6 * real(m, M, p))
        forced = _params(SHAPES[0], M=2.0, p_values=(0.5, 2.0), trials=80, seed=6)
        errors = _params(SHAPES[0], m=1e-13, M=1e-11, p_values=(0.5, 2.0), trials=80, seed=2)
        serial = {p: stripped(cli.run_verify(p)) for p in (forced, errors)}
        failing = {f["trial"] for f in serial[forced]["failures"]}
        raised = {f["trial"] for f in serial[errors]["failures"] if f["check"] == "trial_error"}
        assert min(failing) < 53 < max(failing) and min(raised) < 53 < max(raised)
        for workers in (2, 3):
            self._warm(workers)
            for p, want in serial.items():
                got = stripped(cli.run_verify(p, workers=workers))
                assert json.dumps(got) == json.dumps(want), (p.seed, workers)

    def test_a_trial_error_of_both_families_keeps_the_instance_one(self, monkeypatch):
        # Every lemma lane raises too: the trials whose instance checks
        # raised keep that message, whichever process checked which family.
        params = _params(SHAPES[0], m=1e-13, M=1e-11, p_values=(0.5, 2.0), trials=80, seed=2)
        raised = {f["trial"]: f["error"] for f in cli.run_verify(params)["failures"]
                  if f["check"] == "trial_error"}
        instance, (lemma_rows, lemma_lanes) = cli._FAMILIES

        def failing(*args):
            lanes = lemma_lanes(*args)
            lanes.errors.flag(np.ones(lanes.errors.lanes, dtype=bool),
                              lambda lane: PreconditionViolated("lemma family failed"))
            return lanes

        monkeypatch.setattr(cli, "_FAMILIES", (instance, (lemma_rows, failing)))
        serial = json.dumps(stripped(cli.run_verify(params)))
        errors = {f["trial"]: f["error"] for f in json.loads(serial)["failures"]}
        assert errors == {trial: raised.get(trial, "lemma family failed") for trial in range(80)}
        for workers in (2, 3):
            self._warm(workers)
            assert json.dumps(stripped(cli.run_verify(params, workers=workers))) == serial

    def test_verify_sweep_splits_between_families(self, tmp_chdir, monkeypatch, pool_submits):
        # On a warm 2-worker pool the caller checks the instance family of
        # all 50 trials and the pool process their lemma family.
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "2")
        self._warm(2)
        pool_submits.clear()
        assert run_cli(VERIFY_SWEEP + ["--trials", "50", "--out", "r.json"]) == 0
        assert pool_submits == [(50, 100)]

    def test_whole_blocks_are_tallied_where_they_run(self, monkeypatch, pool_submits):
        # Two full blocks over 2 workers: one range goes down the pipe, and
        # each part comes back as one tally of its whole block.
        parts = []
        real = cli.fan_out

        def recording(*args):
            results = real(*args)
            parts.extend(results)
            return results

        monkeypatch.setattr(cli, "fan_out", recording)
        cli.run_verify(_params(SHAPES[0], trials=2 * BLOCK_SIZE, seed=1), workers=2)
        assert pool_submits == [(2 * BLOCK_SIZE, 4 * BLOCK_SIZE)]
        assert [[(first, whole) for first, whole, *_ in part] for part in parts] == [
            [(0, True)], [(BLOCK_SIZE, True)]]
        assert _arrays_in(parts) == 0

    def test_serial_whole_blocks_return_tallies_not_tables(self, monkeypatch):
        # fan_out keeps every part's result until run_verify merges them, so
        # a part returns (stats, failures) tallies, not per-lane tables:
        # these would hold about 650 B a trial at six exponents and about
        # 6 KB a trial on a 60-point grid (about 650 MB for 10^6 trials), a
        # tally a few kilobytes whatever the block.
        monkeypatch.setattr(sampling, "block_size", lambda ambient: 16)
        params = _params(SHAPES[0], p_values=(0.25, 0.5, 1, 1.5, 2, 3), trials=48)
        block = sampling.block_size(params.ambient)
        parts = fan_out(cli._verify_part, (params, block), range(96), 1, 2 * block)
        assert [[(first, whole) for first, whole, *_ in part] for part in parts] == [
            [(0, True)], [(16, True)], [(32, True)]]
        assert _arrays_in(parts) == 0

    @pytest.mark.parametrize("m,M", [(1.0, 2.0), (1e-13, 1e-11)], ids=["sweep", "trial-errors"])
    def test_each_part_draws_on_one_lane_stream(self, monkeypatch, m, M):
        # verify-sweep's shape at 50 trials (a block of 100 units), with
        # forced failures: the whole block, one family, and the middle part
        # of 3 workers (instance trials 33-49, then lemma trials 0-15) each
        # open one stream, and the middle part's tallies equal those of its
        # families drawn on streams of their own.
        real = bounds.bound_thm2
        monkeypatch.setattr(bounds, "bound_thm2", lambda m, M, p: 0.6 * real(m, M, p))
        params = _params(SHAPES[0], m=m, M=M, p_values=(0.25, 0.5, 1, 1.5, 2, 3), trials=50)
        block = block_size(params.ambient)
        streams = []

        def counting(seeds):
            streams.append(seeds)
            return rngs_from(seeds)

        monkeypatch.setattr(cli, "rngs_from", counting)
        for units in (range(0, 100), range(0, 50), range(33, 66)):
            streams.clear()
            tallies = cli._verify_part(params, block, units)
            assert len(streams) == 1, units
        assert [(first, whole) for first, whole, *_ in tallies] == [(0, False), (0, False)]
        for (rows, lanes), trials, tally in zip(cli._FAMILIES, (range(33, 50), range(0, 16)),
                                                tallies):
            seeds = mix_seeds(params.seed, trials)
            alone = lanes(params, trials, seeds, rngs_from(rows(seeds)))
            want = (bool(alone.errors), *cli._tally_block(trials, alone))
            assert json.dumps(tally[2:]) == json.dumps(want), trials
        assert any(failures for *_, failures in tallies)
        assert m == 1.0 or any(raised for _, _, raised, _, _ in tallies)

    def test_no_pool_reply_holds_an_array(self, monkeypatch):
        # The configs of test_failures_and_trial_errors_survive_cut_blocks:
        # at 3 workers every part of their one block is cut, and the pool's
        # replies carry tallies only, failing reports and trial errors
        # included.
        real_thm2 = bounds.bound_thm2
        monkeypatch.setattr(bounds, "bound_thm2", lambda m, M, p: 0.6 * real_thm2(m, M, p))
        self._warm(3)  # forked after the patch
        replies = []
        real = sampling._replies

        def recording(workers):
            got = real(workers)
            replies.extend(got)
            return got

        monkeypatch.setattr(sampling, "_replies", recording)
        for p in (_params(SHAPES[0], M=2.0, p_values=(0.5, 2.0), trials=80, seed=6),
                  _params(SHAPES[0], m=1e-13, M=1e-11, p_values=(0.5, 2.0), trials=80, seed=2)):
            cli.run_verify(p, workers=3)
        assert len(replies) == 4 and all(ok for ok, _ in replies)
        assert _arrays_in(replies) == 0
        failures = [f for _, parts in replies for part in parts for *_, fails in part
                    for f in fails]
        assert {"thm2_abs", "trial_error"} <= {f["check"] for f in failures}

    def test_only_a_cut_block_with_a_trial_error_is_checked_again(self, monkeypatch):
        # 50 trials over a warm 2-worker pool: the caller checks the
        # instance family, the pool process the lemma family.  Without a
        # trial error neither is checked again; with one, the caller checks
        # the block again as a whole.
        monkeypatch.setattr(cli, "_verify_part", _recording_part)
        self._warm(2)
        for m, M, again in ((1.0, 2.0, []), (1e-13, 1e-11, [range(0, 100)])):
            params = _params(SHAPES[0], m=m, M=M, trials=50, seed=2)
            _CALLER_PARTS.clear()
            report = cli.run_verify(params, workers=2)
            assert _CALLER_PARTS == [range(0, 50)] + again
            assert ("trial_error" in report["checks"]) == bool(again)


_VERIFY_PART, _CALLER_PARTS = cli._verify_part, []


def _recording_part(params, block, units):
    """cli._verify_part, recording the units of each call in this process."""
    _CALLER_PARTS.append(units)
    return _VERIFY_PART(params, block, units)


def _arrays_in(value) -> int:
    """How many numpy arrays `value` holds in its tuples, lists and dict
    values, at any depth."""
    if isinstance(value, np.ndarray):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(_arrays_in, value)) if isinstance(value, (list, tuple)) else 0
