import hashlib
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from wielandt_lab import bounds, instances, maps, stacked
from wielandt_lab.errors import InvalidBounds, InvalidExponent, NotPSD, PreconditionViolated
from wielandt_lab.matcore import (
    EigDecomp, herm_eig, herm_eig_stack, hermitian_part, top_abs,
)
from wielandt_lab.sampling import haar_frames, mix_seed, rng_from, rngs_from

from conftest import rand_psd

# High-precision evaluations of the printed formulas (mpmath, 50 digits),
# frozen as binary64 values.
FROZEN = {
    ("thm1", 0.25): 0.73570226039551584,
    ("thm1", 1.0): 0.52469135802469136,
    ("thm2", 0.25): 0.57735026918962576,
    ("thm2", 0.5): 1.0 / 3.0,
    ("thm2", 1.0): 2.0 / 9.0,
    ("thm2", 5.0): 0.00054192280986976917,
    ("thm3", 0.5): 0.3383505883760726,
    ("thm3", 1.0): 0.11785113019775792,
    ("thm3", 5.0): 0.0035754625051011659,
}


def gamma_of(inst, p):
    """S, T and Gamma = S^p T^{-p} of one instance, with the eigen-
    decompositions of S and T, from the stacked kernels on a stack of one."""
    s, t, t_eig, errors = stacked.instance_products(inst)
    s_eig = stacked.flag_gamma(s, t_eig, errors, inst.m, inst.M)
    _, g = stacked.gamma_stack(s_eig, t_eig, errors.bad, [p])
    assert not errors
    return SimpleNamespace(
        s=s[0], t=t[0], gamma=g[0, 0],
        s_eig=EigDecomp(s_eig.eigenvalues[0], s_eig.vectors[0]),
        t_eig=EigDecomp(t_eig.eigenvalues[0], t_eig.vectors[0]),
    )


def lhs_values(gamma):
    """(Gamma+Gamma*)/2, its absolute value, and the norm the thm*_abs checks
    report, formed the way instance_checks_stack forms them."""
    half_sym = hermitian_part(gamma)
    w, v = herm_eig_stack(half_sym[np.newaxis])
    half_abs = (v[0] * np.abs(w[0])) @ v[0].conj().T
    return SimpleNamespace(
        half_abs=half_abs, half_sym=half_sym, half_abs_norm=float(top_abs(w)[0])
    )


def loose_scalar_instance():
    """A = 2I with loose bounds [1, 4]: the cross-compression vanishes."""
    frames = instances.gen_instance(3, 4, 2, 1, 1, 1.0, 4.0)
    return instances.Instance(
        a=2.0 * np.eye(4, dtype=complex),
        m=1.0,
        M=4.0,
        x=frames.x,
        y=frames.y,
        phi=maps.IdentityMap(2),
        seed=0,
    )


def instance_reports(inst, p=1.0):
    """run_instance_checks(inst, [p]), the code verify runs, by check name."""
    return {r.check: r for r in bounds.run_instance_checks(inst, [p])}


class TestBoundFormulas:
    @pytest.mark.parametrize(("name", "p"), sorted(FROZEN, key=str))
    def test_frozen_values(self, name, p):
        fn = {"thm1": bounds.bound_thm1, "thm2": bounds.bound_thm2, "thm3": bounds.bound_thm3}[name]
        assert fn(1.0, 2.0, p) == pytest.approx(FROZEN[(name, p)], rel=1e-14)

    def test_thm1_exact_rational(self):
        assert bounds.bound_thm1(1, 2, 1) == pytest.approx(85 / 162, rel=1e-15)

    def test_collapsed_bounds(self):
        m = 1.7
        for p in (0.25, 1.0, 3.0):
            assert bounds.bound_thm1(m, m, p) == pytest.approx(m ** (-2 * p) / 2, rel=1e-14)
            assert bounds.bound_thm2(m, m, p) == 0.0
            assert bounds.bound_thm3(m, m, p) == 0.0

    def test_branch_closed_at_half(self):
        # left branch applies exactly at p = 1/2
        assert bounds.bound_thm2(1, 2, 0.5) == pytest.approx((1 / 3) ** 1.0, rel=1e-15)
        assert bounds.bound_thm2(1, 2, 0.5 + 1e-9) > bounds.bound_thm2(1, 2, 0.5)

    def test_range_check(self):
        bounds.check_in_range(1.7, 1.7, (0.25, 3.0), square_order=True)  # exact zeros
        bounds.check_in_range(1.0, 100.0, (0.1, 6.0), square_order=True)
        with pytest.raises(InvalidBounds, match="bound_thm3 at p=400.0"):
            bounds.check_in_range(1.0, 2.0, (400.0,), bounds=(bounds.bound_thm3,))
        with pytest.raises(InvalidBounds, match="bound_thm2 at p=400.0"):  # underflows to 0
            bounds.check_in_range(1.0, 2.0, (400.0,), bounds=(bounds.bound_thm2,))
        # At p = 330 bound_thm2 is about 2e-216, a normal double, but its
        # contrast power 3^-660 is subnormal, so the bound has lost most bits.
        assert bounds.bound_thm2(1.0, 2.0, 330.0) > sys.float_info.min
        with pytest.raises(InvalidBounds, match=r"\(\(M-m\)/\(M\+m\)\)\^\(2p\) at p=330.0"):
            bounds.check_in_range(1.0, 2.0, (330.0,), bounds=(bounds.bound_thm2,))
        bounds.check_in_range(1.0, 2.0, (320.0,), bounds=(bounds.bound_thm1, bounds.bound_thm2))
        bounds.check_in_range(1.0, 2.0, (330.0,), bounds=(bounds.bound_thm1,))
        with pytest.raises(InvalidBounds, match=r"\(M\+m\)\^2/\(4Mm\)"):  # 4Mm underflows
            bounds.check_in_range(1e-200, 1e-190, square_order=True)
        bounds.check_in_range(1.0, 8.9e102, square_order=True)
        with pytest.raises(InvalidBounds):  # c M^2 overflows though c does not
            bounds.check_in_range(1.0, 9e102, square_order=True)

    @pytest.mark.parametrize("fn", [bounds.bound_thm1, bounds.bound_thm2, bounds.bound_thm3])
    def test_invalid_inputs(self, fn):
        with pytest.raises(InvalidBounds):
            fn(0.0, 1.0, 1.0)
        with pytest.raises(InvalidBounds):
            fn(2.0, 1.0, 1.0)
        with pytest.raises(InvalidBounds):
            fn(1.0, math.inf, 1.0)
        with pytest.raises(InvalidExponent):
            fn(1.0, 2.0, 0.0)

    def test_ceil_exponent(self):
        assert bounds.ceil_exponent(1.0) == 1
        assert bounds.ceil_exponent(1.5) == 2
        assert bounds.ceil_exponent(0.5) == 1
        assert bounds.ceil_exponent(3.0000000000000004) == 3
        assert bounds.ceil_exponent(2.0 + 1e-13) == 2
        assert bounds.ceil_exponent(2.0 + 1e-6) == 3

    def test_crossover(self):
        assert bounds.crossover_threshold(1, 2) == pytest.approx(4.0, abs=1e-13)
        assert bounds.crossover_threshold(1, 4) == pytest.approx(3.0, abs=1e-13)
        # approaches 2 from above as the contrast blows up
        assert 2.0 < bounds.crossover_threshold(1, 1e12) < 2.06

    def test_crossover_undefined_for_equal_bounds(self):
        with pytest.raises(InvalidBounds):
            bounds.crossover_threshold(2, 2)

    def test_wielandt_factor(self):
        assert bounds.wielandt_factor(1, 2) == pytest.approx(1 / 9, rel=1e-15)
        assert bounds.wielandt_factor(3, 3) == 0.0


class TestGamma:
    def test_extremal_scalar_values(self):
        inst = instances.extremal_instance(1.0, 2.0)
        g1 = gamma_of(inst, 1.0)
        assert g1.gamma[0, 0].real == pytest.approx(1 / 9, abs=1e-14)
        g2 = gamma_of(inst, 2.0)
        assert g2.gamma[0, 0].real == pytest.approx(1 / 81, abs=1e-14)

    def test_scalar_matrix_gives_zero(self):
        g = gamma_of(loose_scalar_instance(), 1.0)
        assert np.linalg.norm(g.s) <= 1e-14
        assert np.linalg.norm(g.gamma) <= 1e-14

    def test_rank_one_reduction(self):
        # with the identity map and rank-1 frames, Gamma at p=1 is the scalar
        # |a01|^2 / (a00 * a11)
        a = instances.gen_instance(5, 2, 1, 1, 1, 1.0, 3.0).a
        x = np.array([[1.0], [0.0]], dtype=complex)
        y = np.array([[0.0], [1.0]], dtype=complex)
        inst = instances.Instance(a, 1.0, 3.0, x, y, maps.IdentityMap(1), seed=0)
        g = gamma_of(inst, 1.0)
        expected = abs(a[0, 1]) ** 2 / (a[0, 0].real * a[1, 1].real)
        assert g.gamma[0, 0].real == pytest.approx(expected, rel=1e-12)

    def test_s_psd_and_t_bounded(self):
        for seed in range(10):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            g = gamma_of(inst, 0.7)
            assert g.s_eig.eigenvalues[0] >= -1e-10 * max(1.0, g.s_eig.eigenvalues[-1])
            assert g.t_eig.eigenvalues[0] >= 1.0 - 1e-8
            assert g.t_eig.eigenvalues[-1] <= 2.0 + 1e-8


class TestLhsValues:
    def test_scalar_case(self):
        inst = instances.extremal_instance(1.0, 2.0)
        vals = lhs_values(gamma_of(inst, 1.0).gamma)
        assert vals.half_abs[0, 0].real == pytest.approx(1 / 9, abs=1e-14)
        assert vals.half_sym[0, 0].real == pytest.approx(1 / 9, abs=1e-14)
        assert vals.half_abs_norm == pytest.approx(1 / 9, abs=1e-14)
        assert instance_reports(inst)["thm1_abs"].payload["lhs"] == vals.half_abs_norm

    def test_zero_case(self):
        vals = lhs_values(gamma_of(loose_scalar_instance(), 1.0).gamma)
        assert np.linalg.norm(vals.half_abs) <= 1e-14
        assert np.linalg.norm(vals.half_sym) <= 1e-14

    def test_nilpotent_gamma(self):
        # assembled by hand: gamma = [[0, 1], [0, 0]]
        vals = lhs_values(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        assert np.allclose(vals.half_sym, [[0, 0.5], [0.5, 0]], atol=1e-14)
        assert np.allclose(vals.half_abs, 0.5 * np.eye(2), atol=1e-12)
        assert vals.half_abs_norm == pytest.approx(0.5, abs=1e-13)

    def test_sym_below_abs_in_loewner_order(self):
        for seed in range(5):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            vals = lhs_values(gamma_of(inst, 1.5).gamma)
            gap = herm_eig(vals.half_abs - vals.half_sym).eigenvalues[0]
            scale = max(1.0, np.linalg.norm(vals.half_abs, 2), np.linalg.norm(vals.half_sym, 2))
            assert gap >= -1e-11 * scale


class TestBhatiaDavis:
    def test_extremal_equality_margin(self):
        rep = instance_reports(instances.extremal_instance(1.0, 2.0))["bhatia_davis"]
        assert rep.passed
        assert abs(rep.margin) <= 1e-12

    def test_scalar_matrix_passes(self):
        assert instance_reports(loose_scalar_instance())["bhatia_davis"].passed

    def test_random_batch(self):
        for seed in range(300):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            rep = instance_reports(inst)["bhatia_davis"]
            assert rep.passed, (seed, rep.margin)

    def test_report_serialization_fields(self):
        rep = instance_reports(instances.extremal_instance(1.0, 2.0))["bhatia_davis"]
        blob = rep.to_json()
        assert list(blob) == [
            "check", "lhs", "bound", "margin", "loewner_pass", "norm_pass",
            "tol", "seed", "dims", "m", "M", "p", "witness",
        ]
        assert blob["witness"]["eigenvalue"] == rep.margin


class TestTheoremChecks:
    def test_extremal_thm2_p1(self):
        reps = instance_reports(instances.extremal_instance(1.0, 2.0))
        rep_abs, rep_sym = reps["thm2_abs"], reps["thm2_sym"]
        assert rep_abs.passed and rep_sym.passed
        assert rep_abs.payload["lhs"] == pytest.approx(1 / 9, abs=1e-13)
        assert rep_abs.payload["bound"] == pytest.approx(2 / 9, rel=1e-14)

    def test_extremal_thm3_p1_margin(self):
        rep_abs = instance_reports(instances.extremal_instance(1.0, 2.0))["thm3_abs"]
        assert rep_abs.passed
        expected_margin = bounds.bound_thm3(1, 2, 1) - 1 / 9
        assert rep_abs.margin == pytest.approx(expected_margin, rel=1e-10)
        assert expected_margin == pytest.approx(0.0067400190866468, rel=1e-10)

    def test_degenerate_instance_trivially_passes(self):
        reps = instance_reports(instances.degenerate_instance(1.0))
        assert all(rep.passed for rep in reps.values())
        for which in (1, 2, 3):
            assert reps[f"thm{which}_abs"].payload["lhs"] <= 1e-14

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0])
    def test_random_batch_all_theorems(self, p):
        for seed in range(60):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            reps = instance_reports(inst, p)
            for which in (1, 2, 3):
                rep_abs, rep_sym = reps[f"thm{which}_abs"], reps[f"thm{which}_sym"]
                assert rep_abs.passed and rep_sym.passed, (seed, p, which)
                # the absolute-value form dominates the symmetric form
                assert rep_sym.margin >= rep_abs.margin - 1e-12


class TestGammaNorm:
    """gamma_norm_le_thm2 reports ||Gamma|| as its lhs."""

    def test_extremal_half_p_equality(self):
        rep = instance_reports(instances.extremal_instance(1.0, 2.0), 0.5)["gamma_norm_le_thm2"]
        assert rep.payload["lhs"] == pytest.approx(1 / 3, abs=1e-14)

    def test_zero_gamma(self):
        rep = instance_reports(loose_scalar_instance())["gamma_norm_le_thm2"]
        assert rep.payload["lhs"] <= 1e-14

    def test_norm_bounded_by_thm2_batch(self):
        for seed in range(60):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            for p in (0.25, 0.5, 1.0, 3.0):
                val = instance_reports(inst, p)["gamma_norm_le_thm2"].payload["lhs"]
                assert val <= bounds.bound_thm2(1.0, 2.0, p) * (1 + 1e-9), (seed, p)

    def test_sym_norm_dominated_by_gamma_norm(self):
        for seed in range(40):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            rep = instance_reports(inst, 1.5)["sym_norm_le_gamma"]
            assert rep.passed
            assert rep.payload["lhs"] <= rep.payload["bound"] + 1e-12


class TestChainAndMonotone:
    def test_chain_links_ordered(self):
        for seed in range(40):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            for p in (0.25, 1.0, 2.5):
                rep = instance_reports(inst, p)["thm1_chain"]
                links = rep.payload["links"]
                assert rep.passed, (seed, p, links)
                assert links[0] == lhs_values(gamma_of(inst, p).gamma).half_abs_norm
                assert links[3] == pytest.approx(bounds.bound_thm1(1, 2, p), rel=1e-14)

    def test_chain_report_json(self):
        rep = instance_reports(instances.extremal_instance(1, 2), 1.0)["thm1_chain"]
        blob = rep.to_json()
        assert blob["check"] == "thm1_chain"
        assert len(blob["links"]) == 4 and len(blob["link_margins"]) == 3

    def test_monotone_only_for_small_p(self):
        assert "power_monotone" not in instance_reports(instances.extremal_instance(1, 2), 2.0)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
    def test_monotone_batch(self, p):
        for seed in range(40):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            rep = instance_reports(inst, p).get("power_monotone")
            assert rep is not None and rep.passed, (seed, p)


class TestLemmaBlockEquivalence:
    def test_boundary_identity(self):
        rep = bounds.check_lemma_block_equivalence(np.eye(2), 1.0)
        blob = rep.payload
        assert blob["abs_ok"] and blob["norm_ok"] and blob["block_ok"] and rep.passed

    def test_all_false_below_norm(self):
        x = np.array([[0.0, 2.0], [0.0, 0.0]])
        rep = bounds.check_lemma_block_equivalence(x, 1.0)
        blob = rep.payload
        assert not blob["abs_ok"] and not blob["norm_ok"] and not blob["block_ok"]
        assert rep.passed  # three-way agreement
        assert blob["x_norm"] == pytest.approx(2.0, abs=1e-12)

    def test_all_true_at_norm(self):
        x = np.array([[0.0, 2.0], [0.0, 0.0]])
        blob = bounds.check_lemma_block_equivalence(x, 2.0).payload
        assert blob["abs_ok"] and blob["norm_ok"] and blob["block_ok"]

    def test_random_cases_agree(self):
        for seed in range(200):
            x, t = bounds.lemma_block_case(seed, 2, seed % 4)
            rep = bounds.check_lemma_block_equivalence(x, t)
            assert rep.passed, (seed, rep)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            bounds.check_lemma_block_equivalence(np.eye(2), -0.5)


class TestLemmaSquareOrder:
    def test_equal_operands(self):
        b = instances.gen_instance(2, 3, 1, 1, 1, 1.0, 2.0).a
        rep = bounds.check_lemma_square_order(b, b, 1.0, 2.0)
        assert rep.passed

    def test_zero_lower_operand(self):
        b = instances.gen_instance(3, 3, 1, 1, 1, 1.0, 2.0).a
        rep = bounds.check_lemma_square_order(np.zeros((3, 3)), b, 1.0, 2.0)
        assert rep.passed

    def test_diagonal_example(self):
        a = np.diag([1.0, 1.0])
        b = np.diag([1.0, 2.0])
        rep = bounds.check_lemma_square_order(a, b, 1.0, 2.0)
        assert rep.passed
        # factor 9/8: the binding direction is e1 with margin 9/8 - 1
        assert rep.margin == pytest.approx(9 / 8 - 1, rel=1e-12)

    def test_generated_pairs(self):
        for seed in range(200):
            a, b = bounds.gen_square_order_pair(seed, 2, 1.0, 2.0)
            rep = bounds.check_lemma_square_order(a, b, 1.0, 2.0)
            assert rep.passed, seed

    def test_precondition_violations(self):
        b = instances.gen_instance(4, 3, 1, 1, 1, 1.0, 2.0).a
        with pytest.raises(PreconditionViolated):
            bounds.check_lemma_square_order(2.0 * b, b, 1.0, 2.0)  # A > B
        with pytest.raises(PreconditionViolated):
            bounds.check_lemma_square_order(b, 3.0 * b, 1.0, 2.0)  # B escapes [m, M]


class TestFactAnticommutator:
    def test_equal_operands_equality(self):
        a = rand_psd(1, 3)
        rep = bounds.check_fact_norm_anticommutator(a, a)
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-11)

    def test_orthogonal_supports(self):
        rep = bounds.check_fact_norm_anticommutator(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert rep.passed
        assert rep.payload["lhs"] == pytest.approx(0.0, abs=1e-14)
        assert rep.payload["bound"] == pytest.approx(1.0, abs=1e-14)

    def test_random_batch(self):
        for seed in range(200):
            a, b = bounds.gen_psd_pair(seed, 3)
            assert bounds.check_fact_norm_anticommutator(a, b).passed, seed

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            bounds.check_fact_norm_anticommutator(np.diag([-1.0, 1.0]), np.eye(2))


class TestScalarWielandt:
    """scalar_wielandt_stack, the kernel lemma_checks_stack runs, on (x, y)
    = (e1, e2) unless a case draws its own."""

    E1 = np.array([[1.0, 0.0]], dtype=complex)
    E2 = np.array([[0.0, 1.0]], dtype=complex)

    def test_extremal_vectors_equality(self):
        a = instances.extremal_instance(1.0, 2.0).a
        rep = bounds.scalar_wielandt_stack(self.E1, self.E2, a[np.newaxis], 1.0, 2.0).reports(0)[0]
        assert rep.passed
        assert abs(rep.margin) <= 1e-12

    def test_scalar_matrix(self):
        a = 1.5 * np.eye(2, dtype=complex)
        rep = bounds.scalar_wielandt_stack(self.E1, self.E2, a[np.newaxis], 1.0, 2.0).reports(0)[0]
        assert rep.passed
        assert rep.payload["lhs"] == pytest.approx(0.0, abs=1e-14)

    def test_random_batch(self):
        seeds = range(200)
        a = instances.operator_stack(rngs_from(list(seeds)), len(seeds), 4, 1.0, 2.0)
        u = haar_frames(np.stack([rng_from(seed + 10_000).standard_normal((2, 4, 4))
                                  for seed in seeds]))
        lanes = bounds.scalar_wielandt_stack(u[:, :, 0], u[:, :, 1], a, 1.0, 2.0)
        for lane in seeds:
            assert lanes.reports(lane)[0].passed, lane

    def test_rejects_non_orthogonal(self):
        a = instances.gen_instance(0, 2, 1, 1, 1, 1.0, 2.0).a
        lanes = bounds.scalar_wielandt_stack(self.E1, self.E1 + self.E2, a[np.newaxis], 1.0, 2.0)
        with pytest.raises(PreconditionViolated):
            lanes.reports(0)


class TestCompareBounds:
    def test_values_and_tightest_at_p1(self):
        cmp_ = bounds.compare_bounds(1.0, 2.0, 1.0)
        assert cmp_.thm1 == pytest.approx(0.52469135802469136, rel=1e-14)
        assert cmp_.thm2 == pytest.approx(2 / 9, rel=1e-14)
        assert cmp_.thm3 == pytest.approx(0.11785113019775792, rel=1e-14)
        assert cmp_.tightest == "thm3"
        assert cmp_.orderings["thm1_ge_thm2"]
        assert cmp_.orderings["thm3_le_thm2"]
        assert cmp_.ok

    def test_small_p_region(self):
        cmp_ = bounds.compare_bounds(1.0, 2.0, 0.5)
        assert cmp_.thm2 == pytest.approx(1 / 3, rel=1e-14)
        assert cmp_.thm3 == pytest.approx(0.3383505883760726, rel=1e-14)
        assert cmp_.orderings["thm3_ge_thm2"]
        assert cmp_.tightest == "thm2"

    def test_beyond_crossover(self):
        cmp_ = bounds.compare_bounds(1.0, 2.0, 5.0)
        assert cmp_.p_star == pytest.approx(4.0, abs=1e-12)
        assert cmp_.orderings["thm2_le_thm3"]
        assert cmp_.tightest == "thm2"
        assert cmp_.ok

    def test_grid_everywhere_consistent(self):
        for M in (1.1, 1.5, 2.0, 4.0, 10.0):
            p = 0.1
            while p <= 6.0 + 1e-9:
                cmp_ = bounds.compare_bounds(1.0, M, p)
                assert cmp_.ok, (M, p, cmp_.orderings)
                p = round(p + 0.1, 10)

    def test_tightest_depends_only_on_contrast_and_p(self):
        for ratio in (1.2, 2.0, 5.0):
            for p in (0.3, 0.8, 1.7, 3.1, 5.7):
                base = bounds.compare_bounds(1.0, ratio, p)
                for c in (0.5, 3.0, 10.0):
                    scaled = bounds.compare_bounds(c, c * ratio, p)
                    assert scaled.tightest == base.tightest, (ratio, p, c)
                    # thm2 and thm3 are individually scale-invariant
                    assert scaled.thm2 == pytest.approx(base.thm2, rel=1e-12)
                    assert scaled.thm3 == pytest.approx(base.thm3, rel=1e-12)


class TestTailNote:
    def test_note_at_1_2(self):
        note = bounds.thm2_tail_note(1.0, 2.0, (1.0,))
        case = note["cases"][0]
        assert case["thm2"] == pytest.approx(2 / 9, rel=1e-14)
        assert case["single_exponent_rhs"] == pytest.approx(1 / 3, rel=1e-14)
        assert not case["single_holds"]
        assert case["double_exponent_rhs"] == pytest.approx(1 / 9, rel=1e-14)
        assert case["double_holds"]

    def test_contrast_boundary_biconditional(self):
        boundary = 1.0 + math.sqrt(2.0)
        for M in (1.5, 2.0, 2.4, 2.42, 3.0, 10.0):
            for p in (0.75, 1.0, 2.0, 4.0):
                case = bounds.thm2_tail_note(1.0, M, (p,))["cases"][0]
                assert case["single_holds"] == (M >= boundary), (M, p)
                assert case["double_holds"]

    def test_small_p_always_fails_single_form(self):
        for M in (1.5, 5.0):
            case = bounds.thm2_tail_note(1.0, M, (0.25,))["cases"][0]
            assert not case["single_holds"]
            assert case["double_holds"]


class TestBatchDrivers:
    def test_run_instance_checks_names_and_passes(self):
        inst = instances.gen_instance(5, 4, 2, 2, 2, 1.0, 2.0)
        reports = bounds.run_instance_checks(inst, (0.5, 1.0, 2.0))
        names = {r.check for r in reports}
        expected = {
            "bhatia_davis", "thm1_abs", "thm1_sym", "thm2_abs", "thm2_sym",
            "thm3_abs", "thm3_sym", "abs_implies_sym", "sym_norm_le_gamma",
            "gamma_norm_le_thm2", "thm1_chain", "power_monotone",
        }
        assert names == expected
        assert all(r.passed for r in reports)
        assert all(r.check in bounds.ALL_CHECK_NAMES for r in reports)

    def test_run_lemma_trial_all_variants(self):
        for variant in range(4):
            reports = bounds.run_lemma_trial(17, 2, 4, 1.0, 2.0, variant=variant)
            assert [r.check for r in reports] == [
                "block_norm_equivalence", "square_order",
                "anticommutator_norm", "scalar_wielandt",
            ]
            assert all(r.passed for r in reports)


# JSON keys of each kind of report, in emission order.
REPORT_KEYS = {
    "thm2_abs": ["check", "lhs", "bound", "margin", "loewner_pass", "norm_pass", "tol",
                 "seed", "dims", "m", "M", "p", "witness"],
    "abs_implies_sym": ["check", "passed", "detail"],
    "thm1_chain": ["check", "links", "link_margins", "passed", "tol", "seed", "m", "M", "p"],
    "block_norm_equivalence": ["check", "t", "x_norm", "abs_ok", "norm_ok", "block_ok",
                               "agree", "tol"],
    "scalar_wielandt": ["check", "lhs", "bound", "margin", "loewner_pass", "norm_pass", "tol",
                        "seed", "dims", "m", "M", "p"],
}
VERDICT_KEYS = ("loewner_pass", "norm_pass", "passed", "abs_ok", "norm_ok", "block_ok", "agree")
# The acceptance suite's exponents: power_monotone runs at those <= 1.
P_SUITE = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
PLAIN_LEAVES = (bool, int, float, str, type(None))


def json_leaves(blob):
    """Every scalar inside nested dicts and lists."""
    if isinstance(blob, dict):
        blob = list(blob.values())
    if isinstance(blob, list):
        for item in blob:
            yield from json_leaves(item)
    else:
        yield blob


def assert_plain_leaves(blob) -> None:
    """Every leaf is a plain Python bool, int, float, str or None (no numpy
    scalar, which json writes but a reader of the Report would not expect)."""
    odd = [leaf for leaf in json_leaves(blob) if type(leaf) not in PLAIN_LEAVES]
    assert not odd, odd


class TestReportRecord:
    # tol = nan fails every inequality verdict without tripping a precondition
    @pytest.mark.parametrize("tol", [1e-9, math.nan])
    def test_json_of_every_kind(self, tol):
        seed = mix_seed(3, 1)
        inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
        reports = bounds.run_instance_checks(inst, [0.5], tol)
        reports += bounds.run_lemma_trial(seed, 2, 4, 1.0, 2.0, tol, variant=1)
        by_name = {r.check: r for r in reports}
        for name, keys in REPORT_KEYS.items():
            rep = by_name[name]
            blob = rep.to_json()
            assert list(blob) == keys, name
            verdicts = [rep.passed] + [blob[k] for k in VERDICT_KEYS if blob.get(k) is not None]
            assert all(type(v) is bool for v in verdicts), name
            json.dumps(blob)
            # three-way agreement and the implication hold even when all verdicts fail
            if math.isnan(tol) and name not in ("abs_implies_sym", "block_norm_equivalence"):
                assert not rep.passed, name
        assert by_name["abs_implies_sym"].margin is None

    # sha256 of every report value of one trial that emits all 16 check
    # names, lemma variants 0-3 included, by tol
    VALUE_DIGESTS = {
        "1e-9": "e721db9f99001f54c56d2e421d72af65098c547305462fcc92a24061e1dde9dc",
        "nan": "d1e514228909f166bf6b059c7b6aae2a0b0fa3bb8d48a3d83ee1d287e5512840",
    }

    @pytest.mark.parametrize("tol", ["1e-9", "nan"])
    def test_values_of_every_check(self, tol):
        digest, tol = self.VALUE_DIGESTS[tol], float(tol)
        seed = mix_seed(3, 1)
        inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
        reports = bounds.run_instance_checks(inst, P_SUITE, tol)
        for variant in range(4):
            reports += bounds.run_lemma_trial(seed, 2, 4, 1.0, 2.0, tol, variant=variant)
        assert {r.check for r in reports} == set(bounds.ALL_CHECK_NAMES) - {"trial_error"}
        values = [[r.check, r.passed, r.margin, r.to_json()] for r in reports]
        assert_plain_leaves(values)
        assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == digest

    def test_numpy_leaf_is_not_plain(self):
        assert_plain_leaves({"a": [1, 2.0, "x", None, True]})
        with pytest.raises(AssertionError):
            assert_plain_leaves({"a": [1.0, {"b": np.float64(1.0)}]})
