"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them live)."""

import json
import re
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from wielandt_lab import bounds, cli, instances, search
from wielandt_lab import matcore as mc
from conftest import rand_complex, rand_herm


@contextmanager
def criterion(num, desc):
    """Print one PASS/FAIL line; notes appended to the yielded list follow
    the description on the PASS line."""
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"ACCEPTANCE CRITERION {num}: FAIL - {desc}")
        raise
    detail = f" ({'; '.join(notes)})" if notes else ""
    print(f"ACCEPTANCE CRITERION {num}: PASS - {desc}{detail}")


P_SUITE = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


@pytest.fixture(scope="module")
def theorem_suite_report():
    """Criterion 3's full verification sweep, shared with criteria 5 and 7."""
    params = cli.VerifyParams(
        trials=10_000,
        ambient=4,
        rank=2,
        out_dim=2,
        ancilla=2,
        m=1.0,
        M=2.0,
        p_values=P_SUITE,
        tol=1e-9,
        seed=0,
    )
    start = time.perf_counter()
    report = cli.run_verify(params, workers=1)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_extremal_equality(capsys):
    with criterion(1, "extremal equality LHS = RHS = 1/6 within 1e-12, under 1 s"):
        start = time.perf_counter()
        code = cli.main(["extremal", "--m", "1", "--M", "2"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        lhs = float(re.search(r"wielandt_lhs = (\S+)", out).group(1))
        rhs = float(re.search(r"wielandt_rhs = (\S+)", out).group(1))
        gap = float(re.search(r"equality_gap = (\S+)", out).group(1))
        assert lhs == pytest.approx(1 / 6, abs=1e-12)
        assert rhs == pytest.approx(1 / 6, abs=1e-12)
        assert gap <= 1e-12
        assert elapsed < 1.0


def test_criterion_2_bound_values_high_precision():
    with criterion(2, "bound values at (1,2,1) match 50-digit evaluation within 1e-12"):
        mp.mp.dps = 50
        m, M, p = mp.mpf(1), mp.mpf(2), mp.mpf(1)
        ratio = (M - m) / (M + m)
        ref1 = (ratio ** (4 * p) * M ** (2 * p) + m ** (-2 * p)) / 2
        ref2 = ratio ** (2 * p) * (M / m) ** p  # p = 1 > 1/2: right branch
        ref3 = ratio ** (2 * p) * (((M / m) ** (p / 2) + (m / M) ** (p / 2)) / 2) ** mp.ceil(p)
        assert abs(bounds.bound_thm1(1, 2, 1) - float(ref1)) <= 1e-12
        assert abs(bounds.bound_thm2(1, 2, 1) - float(ref2)) <= 1e-12
        assert abs(bounds.bound_thm3(1, 2, 1) - float(ref3)) <= 1e-12
        assert float(ref1) == pytest.approx(85 / 162, abs=1e-15)
        assert float(ref2) == pytest.approx(2 / 9, abs=1e-15)
        assert float(ref3) == pytest.approx(0.1178511301977579, abs=1e-15)


def test_criterion_3_theorem_suite(theorem_suite_report):
    with criterion(3, "10^4 instances x 6 exponents: zero failures at tol 1e-9, under 2 min") as notes:
        report, elapsed = theorem_suite_report
        assert report["pass"] is True
        checks = report["checks"]
        assert checks["bhatia_davis"]["run"] == 10_000
        assert checks["bhatia_davis"]["fail"] == 0
        for which in (1, 2, 3):
            for form in ("abs", "sym"):
                stat = checks[f"thm{which}_{form}"]
                assert stat["run"] == 60_000
                assert stat["fail"] == 0
        assert checks["abs_implies_sym"]["fail"] == 0
        assert elapsed < 120.0, f"theorem suite took {elapsed:.1f}s"
        notes.append(f"{elapsed:.1f} s, {120.0 / elapsed:.1f}x headroom under 120 s")


def test_criterion_4_lemma_suite():
    with criterion(4, "10^3 block-equivalence, square-order, and anticommutator trials"):
        # three-way equivalence including both boundary offsets t = ||X|| +/- 1e-6
        for i in range(1000):
            x, t = bounds.lemma_block_case(i, 2, i % 4)
            rep = bounds.check_lemma_block_equivalence(x, t, tol=1e-9)
            assert rep.passed, (i, rep)
        # squared comparison on constructed 0 <= A <= B pairs
        for i in range(1000):
            a, b = bounds.gen_square_order_pair(i, 2, 1.0, 2.0)
            assert bounds.check_lemma_square_order(a, b, 1.0, 2.0, tol=1e-9).passed, i
        # anticommutator norm fact on random PSD pairs, dimensions 2 through 6
        for i in range(1000):
            a, b = bounds.gen_psd_pair(i, 2 + i % 5)
            assert bounds.check_fact_norm_anticommutator(a, b, tol=1e-9).passed, i


def test_criterion_5_proof_chain_properties(theorem_suite_report):
    with criterion(5, "chain, power-monotonicity, and norm-domination hold on all instances"):
        report, _ = theorem_suite_report
        checks = report["checks"]
        assert checks["thm1_chain"]["run"] == 60_000
        assert checks["thm1_chain"]["fail"] == 0
        # power inequality applies to the exponents 0 < p <= 1 (three of six)
        assert checks["power_monotone"]["run"] == 30_000
        assert checks["power_monotone"]["fail"] == 0
        assert checks["sym_norm_le_gamma"]["run"] == 60_000
        assert checks["sym_norm_le_gamma"]["fail"] == 0


def test_criterion_6_ordering_grid():
    with criterion(6, "bound orderings on the (M, p) grid, zero exceptions at 1e-12"):
        p_values = cli.parse_p_list("0.1:6:0.1")
        assert len(p_values) == 60
        for M in (1.1, 1.5, 2.0, 4.0, 10.0):
            p_star = bounds.crossover_threshold(1.0, M)
            for p in p_values:
                cmp_ = bounds.compare_bounds(1.0, M, p, tol=1e-12)
                assert cmp_.ok, (M, p, cmp_.orderings)
                assert cmp_.orderings["thm1_ge_thm2"]
                if p <= 0.5:
                    assert cmp_.orderings["thm3_ge_thm2"]
                elif p <= 2.0:
                    assert cmp_.orderings["thm3_le_thm2"]
                if p > p_star:
                    assert cmp_.orderings["thm2_le_thm3"]


def test_criterion_7_tail_comparison_note(theorem_suite_report):
    with criterion(7, "single-exponent tail fails at (1,2,1) while the doubled form holds"):
        assert bounds.bound_thm2(1, 2, 1) == pytest.approx(2 / 9, rel=1e-14)
        assert bounds.bound_thm2(1, 2, 1) < (1 / 3) ** 1  # printed single-exponent form
        assert bounds.bound_thm2(1, 2, 1) >= (1 / 3) ** 2  # doubled-exponent variant
        report, _ = theorem_suite_report
        note = report["flagged_notes"][0]
        assert note["id"] == "thm2_tail_comparison"
        case = next(c for c in note["cases"] if c["p"] == 1.0)
        assert case["single_holds"] is False
        assert case["double_holds"] is True


def test_criterion_8_conjecture_probe():
    with criterion(8, "10^5-trial conjecture probe: best in (0.9, 1+1e-8], replayable") as notes:
        cfg = search.SearchConfig(
            objective="conjecture", ambient=4, rank=2, out_dim=2, ancilla=2,
            m=1.0, M=2.0, trials=100_000, seed=0, tol=1e-9,
        )
        start = time.perf_counter()
        record = search.random_search(cfg, workers=1)
        elapsed = time.perf_counter() - start
        assert 0.9 < record.best_value <= 1.0 + 1e-8
        # no discovery at this scale
        assert record.best_value <= 1.0 + cli.DISCOVERY_FACTOR * cfg.tol
        # witness replay from serialized form reproduces the value exactly
        payload = json.loads(json.dumps(record.to_json()))
        inst = instances.instance_from_json(payload["best_instance"])
        assert search.conjecture_ratio(inst) == pytest.approx(record.best_value, abs=1e-12)
        assert elapsed < 600.0, f"probe took {elapsed:.1f}s"
        notes.append(f"{elapsed:.1f} s, {600.0 / elapsed:.1f}x headroom under 600 s")


def test_criterion_9_numerical_core():
    with criterion(9, "10^3 eigendecompositions at 1e-12 and power round-trips at 1e-9"):
        rng = np.random.default_rng(123)
        for i in range(1000):
            dim = int(rng.integers(1, 9))
            h = rand_herm(i, dim)
            w, v = mc.herm_eig(h)
            scale = max(1.0, np.linalg.norm(h))
            assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-12 * scale, (i, dim)
        # round-trips at 1e-9: p in {1/2, 2} across conditions up to 1e6; the
        # cube is exercised at condition 1e3 (binary64 floors the smallest
        # eigenvalue of S^3 below eps*||S^3|| past condition ~4e3, for any
        # eigensolver -- see the matcore tests for the same carve-out)
        for p, max_cond in ((0.5, 1e6), (2.0, 1e6), (3.0, 1e3)):
            for seed in range(25):
                half = np.sqrt(max_cond)
                lam = np.exp(rng.uniform(np.log(1 / half), np.log(half), 4))
                lam[0], lam[-1] = 1 / half, half
                q, _ = np.linalg.qr(rand_complex(seed, 4, 4))
                s = (q * lam) @ q.conj().T
                s = (s + s.conj().T) / 2
                back = mc.mat_pow(mc.mat_pow(s, p), 1.0 / p)
                assert np.linalg.norm(back - s) <= 1e-9 * np.linalg.norm(s), (p, seed)


def test_criterion_10_determinism(tmp_chdir, monkeypatch, capsys):
    with criterion(10, "identical flags and seed reproduce reports modulo timestamps"):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")

        def load_stripped(path):
            data = json.loads((tmp_chdir / path).read_text())
            data["manifest"].pop("started_at")
            data["manifest"].pop("finished_at")
            return json.dumps(data)

        verify_args = ["verify", "--trials", "100", "--seed", "7"]
        assert cli.main(verify_args + ["--out", "v1.json"]) == 0
        assert cli.main(verify_args + ["--out", "v2.json"]) == 0
        assert load_stripped("v1.json") == load_stripped("v2.json")

        search_args = ["search", "--objective", "conjecture", "--trials", "1000",
                       "--seed", "11"]
        assert cli.main(search_args + ["--out", "s1.json"]) == 0
        assert cli.main(search_args + ["--out", "s2.json"]) == 0
        assert load_stripped("s1.json") == load_stripped("s2.json")

        bounds_args = ["bounds", "--m", "1", "--M", "2", "--p-grid", "0.5:3:0.5"]
        capsys.readouterr()  # drop output accumulated by the runs above
        assert cli.main(bounds_args) == 0
        first = capsys.readouterr().out
        assert cli.main(bounds_args) == 0
        second = capsys.readouterr().out
        assert first == second
