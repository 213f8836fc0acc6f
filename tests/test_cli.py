import copy
import itertools
import json
import re

import pytest

from wielandt_lab import cli, instances, search
from wielandt_lab.errors import NotPSD, Singular
from wielandt_lab.sampling import mix_seed
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
                    "counters": {
                        "checks_run": 5,
                        "passes": 4,
                        "failures": 1,
                        "worst_margin": -0.25,
                    },
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


class TestManifest:
    def test_counters_consistent(self, tmp_chdir, capsys, monkeypatch):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        run_cli(["verify", "--trials", "10", "--out", "m.json"])
        manifest = json.loads((tmp_chdir / "m.json").read_text())["manifest"]
        c = manifest["counters"]
        assert c["passes"] + c["failures"] == c["checks_run"]
        assert manifest["version"]
        assert manifest["config"]["trials"] == 10
        assert manifest["started_at"] <= manifest["finished_at"]
