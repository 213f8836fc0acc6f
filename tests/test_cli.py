import copy
import itertools
import json
import os
import re

import pytest

from wielandt_lab import bounds, cli, instances, search
from wielandt_lab.errors import NotPSD, Singular, WielandtLabError
from wielandt_lab.sampling import fan_out, mix_seed
from wielandt_lab.search import SearchRecord


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

    def test_worker_independence(self, tmp_chdir, monkeypatch, capsys):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run_cli(["verify", "--trials", "24", "--seed", "1", "--out", "serial.json"])
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "2")
        run_cli(["verify", "--trials", "24", "--seed", "1", "--out", "par.json"])
        a = json.loads((tmp_chdir / "serial.json").read_text())
        b = json.loads((tmp_chdir / "par.json").read_text())
        assert json.dumps(stripped(a)) == json.dumps(stripped(b))

    def test_worker_independence_general_eigensolves(self):
        # Rank 3 makes every compressed-product eigensolve a LAPACK call,
        # run inside forked pool workers at workers=2.
        params = cli.VerifyParams(
            trials=16, ambient=6, rank=3, out_dim=3, ancilla=2, m=1.0, M=10.0,
            p_values=(0.5, 1.0, 2.0), tol=1e-9, seed=4,
        )
        serial = cli.run_verify(params, workers=1)
        parallel = cli.run_verify(params, workers=2)
        assert json.dumps(stripped(serial)) == json.dumps(stripped(parallel))

    def test_usage_errors(self, capsys):
        assert run_cli(["verify", "--m", "2", "--M", "1"]) == 2
        assert run_cli(["verify", "--trials", "0"]) == 2
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

    def test_deterministic_modulo_timestamps(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        args = ["search", "--objective", "tightness_thm1", "--p", "1",
                "--trials", "40", "--seed", "2"]
        run_cli(args + ["--out", "x.json"])
        run_cli(args + ["--out", "y.json"])
        x = json.loads((tmp_chdir / "x.json").read_text())
        y = json.loads((tmp_chdir / "y.json").read_text())
        assert json.dumps(stripped(x)) == json.dumps(stripped(y))

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
        bad_seeds = {mix_seed(0, i) for i in bad_trials}
        real = search.objective_value
        real_block = search._block_values

        def flaky(cfg, inst):
            if inst.seed in bad_seeds:
                raise Singular("forced")
            return real(cfg, inst)

        def flagged_block(cfg, indices):
            # NaN lanes bypass the stacked screen and reach objective_value.
            values = real_block(cfg, indices)
            for i, index in enumerate(indices):
                if index in bad_trials:
                    values[i] = float("nan")
            return values

        monkeypatch.setattr(search, "objective_value", flaky)
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
        real_refine = search.refine
        real_objective = search.objective_value

        def refine_with_errors(start, cfg):
            calls = itertools.count()

            def flaky(cfg_, inst):
                if next(calls) in (2, 4, 5):  # call 0 scores the start instance
                    raise NotPSD("forced")
                return real_objective(cfg_, inst)

            monkeypatch.setattr(search, "objective_value", flaky)
            try:
                return real_refine(start, cfg)
            finally:
                monkeypatch.setattr(search, "objective_value", real_objective)

        monkeypatch.setattr(search, "refine", refine_with_errors)
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


class TestBadInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--p", "1e400"],
            ["verify", "--p", "nan"],
            ["verify", "--tol", "nan"],
            ["verify", "--tol", "-1"],
            ["verify", "--M", "inf"],
            ["verify", "--k", "0"],
            ["verify", "--d", "5"],
            ["bounds", "--p-grid", "1e400"],
            ["bounds", "--M", "inf"],
            ["search", "--objective", "conjecture", "--M", "inf"],
            ["search", "--objective", "conjecture", "--tol", "nan"],
            ["search", "--objective", "conjecture", "--dims", "4,2,5,2"],
            ["extremal", "--p", "inf"],
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


def _range_pid(start, stop):
    return os.getpid(), start, stop


class TestFanOut:
    def test_first_range_runs_in_the_caller(self):
        results = fan_out(_range_pid, (), 40, 3)
        assert [(a, b) for _, a, b in results] == [(0, 13), (13, 26), (26, 40)]
        pids = [pid for pid, _, _ in results]
        assert pids[0] == os.getpid()
        assert os.getpid() not in pids[1:]

    def test_small_runs_stay_serial(self):
        assert fan_out(_range_pid, (), 11, 3) == [(os.getpid(), 0, 11)]


# Stacked worst margins may drift from the scalar ones by this much, relative
# to max(1, |margin|, the magnitudes the check compares): a margin that is a
# difference of large values (thm1_chain at M/m = 100, p >= 2) carries their
# rounding, on either path.
DRIFT = 1e-13


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


def _params(shape, m=1.0, M=2.0, p_values=(0.5, 2.0), trials=60, seed=0, tol=1e-9):
    return cli.VerifyParams(
        trials=trials, m=m, M=M, p_values=tuple(p_values), tol=tol, seed=seed, **shape
    )


def _scalar_reports(params, trial):
    seed = mix_seed(params.seed, trial)
    inst = instances.gen_instance(
        seed, params.ambient, params.rank, params.out_dim, params.ancilla, params.m, params.M
    )
    reports = bounds.run_instance_checks(inst, params.p_values, params.tol)
    return reports + bounds.run_lemma_trial(
        seed, params.rank, params.ambient, params.m, params.M, params.tol, variant=trial % 4
    )


def _scalar_verify_chunk(params, start, stop):
    """Reference: every trial on the scalar path, one by one."""
    stats, failures = {}, []
    for trial in range(start, stop):
        try:
            reports = _scalar_reports(params, trial)
        except WielandtLabError as exc:
            entry = stats.setdefault("trial_error", [0, 0, None, None])
            entry[0] += 1
            entry[1] += 1
            failures.append({"check": "trial_error", "trial": trial, "error": str(exc)})
            continue
        for report in reports:
            entry = stats.setdefault(report.check, [0, 0, None, None])
            entry[0] += 1
            margin = report.margin
            if margin is not None and (entry[2] is None or margin < entry[2]):
                entry[2], entry[3] = margin, trial
            if not report.passed:
                entry[1] += 1
                detail = report.to_json()
                detail["trial"] = trial
                failures.append(detail)
    return stats, failures


def _scalar_verify(params, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_verify_chunk", _scalar_verify_chunk)
        return cli.run_verify(params)


def assert_matches_scalar(stacked, scalar, params):
    """Everything equal but worst margins (within DRIFT) and worst trials."""
    a, b = stripped(stacked), stripped(scalar)
    worst = {}
    for name in a["checks"]:
        x, y = a["checks"][name], b["checks"].get(name, {})
        worst[name] = [x.pop("worst_margin"), x.pop("worst_trial")]
        worst[name] += [y.pop("worst_margin", None), y.pop("worst_trial", None)]
    assert a == b
    for name, (x, x_trial, y, y_trial) in worst.items():
        assert (x is None) == (y is None)
        if x is not None:
            scale = max(
                _check_scale(_scalar_reports(params, trial), name) for trial in (x_trial, y_trial)
            )
            assert abs(x - y) <= DRIFT * max(abs(y), scale), (name, x, y)


class TestStackedVerify:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize(
        "M,p_values", [(2.0, (0.25, 1.0, 3.0)), (50.0, (0.5, 1.5)), (100.0, (0.75, 2.0, 3.0))]
    )
    def test_matches_scalar_walk(self, shape, M, p_values, monkeypatch):
        params = _params(shape, M=M, p_values=p_values, trials=100, seed=11)
        stacked = cli.run_verify(params)
        assert stacked["pass"]
        assert_matches_scalar(stacked, _scalar_verify(params, monkeypatch), params)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_lane_margins_match_scalar_reports(self, shape):
        for m, M in ((1.0, 100.0), (1e-14, 3e-12)):
            params = _params(shape, m=m, M=M, p_values=(0.5, 1.0, 2.5), trials=64, seed=3)
            trials = range(params.trials)
            margins, clean = cli._stacked_lanes(params, trials)
            raised = set()
            for lane, trial in enumerate(trials):
                try:
                    reports = _scalar_reports(params, trial)
                except WielandtLabError:
                    raised.add(trial)
                    assert not clean[lane]
                    continue
                if not clean[lane]:
                    continue
                assert all(r.passed for r in reports)
                scalar = {}
                for r in reports:
                    scalar.setdefault(r.check, []).append(r.margin)
                assert {k: len(v) for k, v in scalar.items()} == {
                    k: len(v) for k, v in margins.items()
                }
                for name, entries in margins.items():
                    if entries[0] is None:
                        continue
                    want = min(scalar[name])
                    got = min(float(e[lane]) for e in entries)
                    scale = _check_scale(reports, name)
                    assert abs(got - want) <= DRIFT * max(abs(want), scale), (trial, name)
            if m == 1.0:
                assert clean.all()
            else:
                assert raised  # singular compressed operators near scale 1e-12

    def test_block_size_and_workers_do_not_change_report(self, monkeypatch):
        params = _params(SHAPES[0], M=100.0, p_values=(0.5, 1.0, 2.0), trials=90, seed=4)
        reports = set()
        for block in (1, 7, 64):
            monkeypatch.setattr(cli, "BLOCK_SIZE", block)
            for workers in (1, 2, 3):
                reports.add(json.dumps(stripped(cli.run_verify(params, workers=workers))))
        assert len(reports) == 1

    def test_forced_failures_match_scalar_walk(self, monkeypatch):
        real = bounds.bound_thm2
        monkeypatch.setattr(bounds, "bound_thm2", lambda m, M, p: 0.6 * real(m, M, p))
        params = _params(SHAPES[0], M=2.0, p_values=(0.5, 2.0), trials=80, seed=6)
        stacked = cli.run_verify(params)
        assert not stacked["pass"]
        assert {f["check"] for f in stacked["failures"]} >= {"thm2_abs", "gamma_norm_le_thm2"}
        assert_matches_scalar(stacked, _scalar_verify(params, monkeypatch), params)

    def test_trial_errors_match_scalar_walk(self, monkeypatch):
        # At spectral scale 1e-12 some compressed operators are numerically
        # singular, and those trials are reported as trial_error.
        params = _params(SHAPES[0], m=1e-13, M=1e-11, p_values=(0.5, 2.0), trials=80, seed=2)
        stacked = cli.run_verify(params)
        assert stacked["checks"]["trial_error"]["fail"] > 0
        assert_matches_scalar(stacked, _scalar_verify(params, monkeypatch), params)

    @pytest.mark.parametrize(
        "shape",
        [
            dict(ambient=2, rank=1, out_dim=1, ancilla=1),  # lemma inputs need dim >= 2
            dict(ambient=4, rank=2, out_dim=5, ancilla=2),  # no isometry with d > n*k
        ],
    )
    def test_unstackable_shapes_match_scalar_walk(self, shape, monkeypatch):
        params = _params(shape, trials=10, seed=1)
        stacked = cli.run_verify(params)
        assert stacked["checks"]["trial_error"]["fail"] == 10
        assert_matches_scalar(stacked, _scalar_verify(params, monkeypatch), params)

    def test_lane_inside_guard_band_goes_to_scalar_path(self, monkeypatch):
        params = _params(SHAPES[0], M=2.0, p_values=(0.5, 2.0), trials=30, seed=8)
        target = 5
        lhs = next(
            r.payload["lhs"] for r in _scalar_reports(params, target)
            if r.check == "thm3_abs" and r.payload["p"] == 2.0
        )
        # thm3_abs at p = 2 now passes on the target trial by 1e-11 of its
        # scale: far beyond the stacked drift, but inside the guard band
        bound = lhs - (params.tol - 1e-11) * max(1.0, lhs)
        real = bounds.bound_thm3
        monkeypatch.setattr(
            bounds, "bound_thm3", lambda m, M, p: bound if p == 2.0 else real(m, M, p)
        )
        assert all(r.passed for r in _scalar_reports(params, target))
        routed = []
        scalar_trial = cli._scalar_trial

        def spy(params_, trial, stats, failures):
            routed.append(trial)
            scalar_trial(params_, trial, stats, failures)

        monkeypatch.setattr(cli, "_scalar_trial", spy)
        stacked = cli.run_verify(params)
        assert target in routed
        assert_matches_scalar(stacked, _scalar_verify(params, monkeypatch), params)

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
