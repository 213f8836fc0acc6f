import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from wielandt_lab import bounds, cli, instances, maps, sampling, search, stacked
from wielandt_lab.matcore import LaneErrors, from_eig, herm_eig_stack, hermitian_part
from wielandt_lab.sampling import (
    BLOCK_SIZE, complex_gaussian, haar_frames, mix_seed, qr_positive, rng_from, rngs_from,
)
from wielandt_lab.stacked import flag_gamma, gamma_stack
from wielandt_lab.errors import (
    DegenerateBounds,
    InvalidBounds,
    InvalidExponent,
    NotPSD,
    PreconditionViolated,
    Singular,
    WielandtLabError,
)

from conftest import (
    assert_instance_invariants, fail_refine_proposals, lapack_frames, transpose_map,
)
from test_bounds import loose_scalar_instance


class TestConjectureRatio:
    def test_extremal_is_exactly_one(self):
        assert search.conjecture_ratio(instances.extremal_instance(1.0, 2.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_scalar_matrix_is_zero(self):
        assert search.conjecture_ratio(loose_scalar_instance()) <= 1e-13

    def test_degenerate_bounds(self):
        with pytest.raises(DegenerateBounds):
            search.conjecture_ratio(instances.degenerate_instance(1.0))

    def test_random_batch_stays_below_one(self):
        worst = 0.0
        for seed in range(500):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            worst = max(worst, search.conjecture_ratio(inst))
        # reported, not asserted as a theorem; at this scale nothing crosses 1
        assert worst <= 1.0 + 1e-9


class TestObjectiveValue:
    def test_tightness_thm3_extremal(self):
        cfg = search.SearchConfig(objective="tightness_thm3", p=1.0, trials=1)
        val = search.objective_value(cfg, instances.extremal_instance(1.0, 2.0))
        assert val == pytest.approx(2 * np.sqrt(2) / 3, rel=1e-12)

    def test_tightness_thm2_half_p_equality(self):
        cfg = search.SearchConfig(objective="tightness_thm2", p=0.5, trials=1)
        val = search.objective_value(cfg, instances.extremal_instance(1.0, 2.0))
        assert val == pytest.approx(1.0, abs=1e-12)


class TestSearchConfig:
    def test_validation_catches_bad_configs(self):
        with pytest.raises(ValueError):
            search.SearchConfig(objective="nonsense").validate()
        with pytest.raises(ValueError):
            search.SearchConfig(trials=0).validate()
        with pytest.raises(InvalidBounds):
            search.SearchConfig(m=2.0, M=1.0).validate()
        with pytest.raises(InvalidBounds):
            search.SearchConfig(m=1.0, M=1.0).validate()
        with pytest.raises(InvalidBounds):
            search.SearchConfig(m=1.0, M=math.inf).validate()
        with pytest.raises(InvalidExponent):
            search.SearchConfig(objective="tightness_thm1", p=math.inf).validate()
        for tol in (math.nan, -1.0, math.inf, 0.0, 1e-15):
            with pytest.raises(ValueError):
                search.SearchConfig(tol=tol).validate()
        with pytest.raises(ValueError):
            search.SearchConfig(objective="tightness_thm1").validate()  # needs p
        with pytest.raises(ValueError):
            search.SearchConfig(ambient=3, rank=2).validate()


class TestRandomSearch:
    def test_single_trial_is_the_template(self):
        cfg = search.SearchConfig(objective="conjecture", trials=1, seed=0)
        rec = search.random_search(cfg)
        assert rec.best_index == 0
        assert rec.best_value == pytest.approx(1.0, abs=1e-12)
        assert rec.trials_done == 1

    def test_determinism(self):
        cfg = search.SearchConfig(objective="conjecture", trials=40, seed=5)
        r1 = search.random_search(cfg)
        r2 = search.random_search(cfg)
        assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())

    def test_template_attains_thm2_equality(self):
        cfg = search.SearchConfig(objective="tightness_thm2", p=0.5, trials=30, seed=2)
        rec = search.random_search(cfg)
        assert rec.best_value == pytest.approx(1.0, abs=1e-12)
        assert rec.best_index == 0

    def test_trace_is_monotone(self):
        cfg = search.SearchConfig(objective="tightness_thm1", p=1.0, trials=200, seed=3)
        rec = search.random_search(cfg)
        values = [entry[2] for entry in rec.trace]
        assert values == sorted(values)
        assert rec.best_value == values[-1]

    def test_worker_count_does_not_change_result(self, pool_ranges):
        cfg = search.SearchConfig(objective="conjecture", trials=64, seed=9)
        serial = search.random_search(cfg, workers=1)
        parallel = search.random_search(cfg, workers=2)
        assert pool_ranges == [(32, 64)]
        assert json.dumps(serial.to_json()) == json.dumps(parallel.to_json())

    # sha256 of the reports of trials = 1, 2 and 3 on the configs below, as
    # random_search gave them when it scored the template before its fan-out.
    FIRST_TRIALS_DIGEST = "b2127001cd6ca1252e35213b8bf1255fed5556677fad1cfa8286c767a915740e"

    def test_first_trials_keep_their_reports_when_trial_0_is_a_share(self, monkeypatch,
                                                                      pool_submits):
        # Blocks of one trial start the pool at one trial per worker, so at
        # 3 trials over 3 workers the caller's share is trial 0 alone, which
        # draws no random lanes.
        monkeypatch.setattr(sampling, "block_size", lambda ambient: 1)
        real, caller_lanes = search._block_values, []

        def counted(cfg, indices):
            caller_lanes.append(len(indices))
            return real(cfg, indices)

        monkeypatch.setattr(search, "_block_values", counted)
        cfgs = [dict(seed=7), dict(ambient=8, rank=4, out_dim=4, ancilla=2, M=100.0, seed=7),
                dict(objective="tightness_thm2", p=2.0, seed=7)]
        for workers in (1, 2, 3):
            reports = [search.random_search(search.SearchConfig(trials=trials, **kw),
                                            workers=workers).to_json()
                       for trials in (1, 2, 3) for kw in cfgs]
            digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
            assert digest == self.FIRST_TRIALS_DIGEST, workers
        assert pool_submits == [(1, 2)] * 3 + [(1, 3)] * 3 + [(1, 2), (2, 3)] * 3
        assert 0 not in caller_lanes

    def test_trace_and_witness_follow_one_trial_values(self):
        cfg = search.SearchConfig(objective="tightness_thm3", p=3.0, M=100.0, trials=120, seed=3)
        rec = search.random_search(cfg)
        want, running = [], -math.inf
        for index in range(cfg.trials):
            value = search.objective_value(cfg, search._trial_instance(cfg, index))
            if value > running:
                running = value
                want.append(("sample", index, value))
        assert len(want) > 2
        assert [entry[:2] for entry in rec.trace] == [entry[:2] for entry in want]
        for (_, _, got), (_, _, value) in zip(rec.trace, want):
            assert abs(got - value) <= DRIFT * max(1.0, abs(value))
        assert (rec.best_index, rec.best_value) == rec.trace[-1][1:] and rec.best_index > 0
        rebuilt = instances.instance_to_json(search._trial_instance(cfg, rec.best_index))
        assert json.dumps(instances.instance_to_json(rec.best_instance)) == json.dumps(rebuilt)

    def test_skipped_counts_the_singular_trials(self):
        cfg = search.SearchConfig(m=1e-13, M=1e-11, trials=150, seed=2)
        singular = 0
        for index in range(cfg.trials):
            try:
                search.objective_value(cfg, search._trial_instance(cfg, index))
            except Singular:
                singular += 1
        assert singular > 0
        assert search.random_search(cfg).skipped == singular


def _embedded(inst):
    """The instance C (+) m I_{N-2n} with X = [I; 0] and Y = [0; I; 0], C the
    compression [X Y]* A [X Y] of `inst`, and the same map."""
    n, size = inst.rank, inst.ambient
    frames = np.hstack([inst.x, inst.y])
    a = inst.m * np.eye(size, dtype=np.complex128)
    a[: 2 * n, : 2 * n] = frames.conj().T @ inst.a @ frames
    unit = np.eye(size, 2 * n, dtype=np.complex128)
    return instances.Instance(a, inst.m, inst.M, unit[:, :n], unit[:, n:], inst.phi, inst.seed)


def _mapped_compression(inst):
    """C' = (I_2 (x) W)* (C (x) I_k) (I_2 (x) W) for C = [X Y]* A [X Y] and
    `inst`'s Stinespring isometry W with ancilla k: the 2d x 2d matrix whose
    four d x d blocks are Phi(X*AX), Phi(X*AY), Phi(Y*AX) and Phi(Y*AY)."""
    frames = np.hstack([inst.x, inst.y])
    c = frames.conj().T @ inst.a @ frames
    lift = np.kron(np.eye(2), inst.phi.w)
    return lift.conj().T @ np.kron(c, np.eye(inst.phi.ancilla)) @ lift


def _identity_twin(inst):
    """The identity-map instance (C', [I;0], [0;I]) of `inst` (see
    _mapped_compression), of shape (2d, d, d)."""
    return instances.compression_instance(_mapped_compression(inst), inst.m, inst.M, inst.seed)


def _assert_same_checks(twin, inst):
    """run_instance_checks gives `twin` the verdicts of `inst`, and margins,
    lhs and bounds within 1e-13 relative to max(1, |value|)."""
    p_values = [0.25, 0.5, 1.0, 2.0, 3.0]
    reports = bounds.run_instance_checks(inst, p_values)
    twins = bounds.run_instance_checks(twin, p_values)
    assert [r.check for r in twins] == [r.check for r in reports]
    for got, want in zip(twins, reports):
        assert got.passed == want.passed
        pairs = [(got.margin, want.margin)] + [
            (got.payload[key], want.payload[key])
            for key in ("lhs", "bound") if key in want.payload
        ]
        for x, y in pairs:
            assert (x is None) == (y is None)
            if y is not None:
                assert abs(x - y) <= 1e-13 * max(1.0, abs(y)), (want.check, x, y)


class TestCompressionIdentity:
    """Every objective and check sees (A, X, Y, Phi) only through the four
    mapped blocks of the compression."""

    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (6, 3, 2, 3), (8, 4, 4, 2), (5, 2, 3, 2),
                                      (4, 1, 1, 1)])
    @pytest.mark.parametrize("M", [2.0, 10.0, 100.0])
    def test_embedded_compression_gives_the_same_values(self, dims, M):
        for seed in range(10):
            inst = instances.gen_instance(seed, *dims, 1.0, M)
            twin = _embedded(inst)
            ratio = search.conjecture_ratio(inst)
            assert abs(search.conjecture_ratio(twin) - ratio) <= 1e-13 * abs(ratio)
            _assert_same_checks(twin, inst)

    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (6, 3, 2, 3), (8, 4, 4, 2), (5, 2, 3, 2)])
    @pytest.mark.parametrize("M", [2.0, 10.0, 100.0])
    def test_mapped_compression_gives_the_same_values(self, dims, M):
        # By Cauchy interlacing C' has its spectrum in [m, M], though its
        # ends need not reach m and M.
        for seed in range(5):
            inst = instances.gen_instance(seed, *dims, 1.0, M)
            twin = _identity_twin(inst)
            assert twin.a.shape == (2 * dims[2],) * 2
            phi = maps.stinespring_lift(inst.phi.w[np.newaxis], inst.phi.ancilla)
            c = stacked.compression_stack(inst.a[np.newaxis], inst.x[np.newaxis],
                                          inst.y[np.newaxis], phi)[0]
            assert np.abs(c - twin.a).max() <= 1e-13 * np.abs(twin.a).max()
            w = np.linalg.eigvalsh(twin.a)
            assert 1.0 - 1e-12 * M <= w[0] and w[-1] <= M * (1 + 1e-12)
            for objective, p in ALL_OBJECTIVES:
                cfg = _cfg(objective, dims, p, m=1.0, M=M)
                want = search.objective_value(cfg, inst)
                got = search.objective_value(cfg, twin)
                assert abs(got - want) <= 1e-13 * abs(want), (objective, p, got, want)
            _assert_same_checks(twin, inst)


def _four_block_compression(inst):
    """C' built block by block, each block mapped on its own: W*(T (x) I_k)W
    through np.kron for a Stinespring map, T for the identity, the action on
    row-major vec(T) for a linear map."""
    phi = inst.phi
    if isinstance(phi, maps.StinespringMap):
        def act(t):
            return phi.w.conj().T @ np.kron(t, np.eye(phi.ancilla)) @ phi.w
    elif isinstance(phi, maps.IdentityMap):
        def act(t):
            return t
    else:
        def act(t):
            return (phi.matrix @ t.reshape(-1)).reshape(phi.out_dim, phi.out_dim)
    xa, ya = inst.x.conj().T @ inst.a, inst.y.conj().T @ inst.a
    return np.block([[act(xa @ inst.x), act(xa @ inst.y)],
                     [act(ya @ inst.x), act(ya @ inst.y)]])


def _herm_pow(h, p):
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    return (v * np.where(w < 0.0, 0.0, w) ** p) @ v.conj().T


def _four_block_values(c, m, M):
    """S = C'_xy C'_yy^-1 C'_yx, T = C'_xx and every objective of
    ALL_OBJECTIVES, from explicit inverses and powers."""
    d = c.shape[0] // 2
    t = (c[:d, :d] + c[:d, :d].conj().T) / 2
    s = c[:d, d:] @ np.linalg.inv(c[d:, d:]) @ c[d:, :d]
    s = (s + s.conj().T) / 2
    values = []
    for objective, p in ALL_OBJECTIVES:
        if objective == "conjecture":
            norm = np.linalg.norm(s @ np.linalg.inv(t), 2)
            values.append(norm / bounds.wielandt_factor(m, M))
        else:
            g = _herm_pow(s, p) @ _herm_pow(np.linalg.inv(t), p)
            top = np.abs(np.linalg.eigvalsh((g + g.conj().T) / 2)).max()
            values.append(top / search._BOUND_FNS[objective](m, M, p))
    return s, t, values


class TestKrausFormDrift:
    """C' is Z*AZ mapped in one Kraus-form pass, and S is read as
    B* diag(1/w) B; both sum in another order than the four-block
    construction, within 1e-13."""

    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (8, 4, 4, 2), (5, 2, 3, 2), (6, 3, 1, 3),
                                      (7, 3, 2, 3)])
    @pytest.mark.parametrize("M", [2.0, 10.0, 100.0])
    @pytest.mark.parametrize("kind", ["stinespring", "identity", "transpose"])
    def test_matches_four_block_construction(self, dims, M, kind):
        for seed in range(12):
            inst = instances.gen_instance(seed, *dims, 1.0, M)
            if kind != "stinespring":
                phi = maps.IdentityMap(dims[1]) if kind == "identity" else transpose_map(dims[1])
                inst = instances.Instance(inst.a, inst.m, inst.M, inst.x, inst.y, phi, seed)
            want_c = _four_block_compression(inst)
            want_s, want_t, want_values = _four_block_values(want_c, 1.0, M)
            c = stacked.instance_compression(inst)[0]
            s, t, _, errors = stacked.instance_products(inst)
            assert not errors
            for got, want in ((c, want_c), (s[0], want_s), (t[0], want_t)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            for (objective, p), want in zip(ALL_OBJECTIVES, want_values):
                got = search.objective_value(_cfg(objective, dims, p, m=1.0, M=M), inst)
                assert abs(got - want) <= 1e-13 * abs(want), (objective, p, got, want)


class TestLapackFrameDrift:
    """Sampled blocks score every objective within DRIFT of the values they
    score with the reference LAPACK QR (conftest lapack_qr_positive) drawing
    their frames, and flag the same lanes.  At d = 1 values fall to 1e-8, so
    the drift is relative to max(1, |value|), as for the one-trial values."""

    @pytest.mark.parametrize("dims", [(2, 1, 1, 1), (4, 2, 2, 2), (5, 2, 3, 2), (6, 3, 1, 3),
                                      (7, 3, 2, 3), (8, 4, 4, 2)])
    @pytest.mark.parametrize("M", [2.0, 10.0, 100.0])
    def test_block_values(self, dims, M):
        indices = range(1, 201)
        for objective, p in ALL_OBJECTIVES:
            cfg = _cfg(objective, dims, p, m=1.0, M=M, seed=9)
            values, errors = search._block_values(cfg, indices)
            with lapack_frames():
                want, want_errors = search._block_values(cfg, indices)
            assert sorted(errors) == sorted(want_errors)
            ok = ~errors.bad
            scale = np.maximum(1.0, np.abs(want[ok]))
            assert np.all(np.abs(values - want)[ok] <= DRIFT * scale), (objective, p)


class TestRefine:
    def test_zero_steps_returns_start_unchanged(self):
        start = instances.gen_instance(11, 4, 2, 2, 2, 1.0, 2.0)
        cfg = search.SearchConfig(objective="conjecture", trials=1, refine_steps=0, seed=0)
        rec = search.refine(start, cfg)
        assert rec.best_instance is start
        assert rec.trials_done == 0
        assert len(rec.trace) == 1

    def test_never_decreases(self):
        start = instances.gen_instance(4, 4, 2, 2, 2, 1.0, 2.0)
        cfg = search.SearchConfig(objective="conjecture", trials=1, refine_steps=60, seed=1)
        initial = search.conjecture_ratio(start)
        rec = search.refine(start, cfg)
        assert rec.best_value >= initial - 1e-15
        values = [entry[2] for entry in rec.trace]
        assert values == sorted(values)

    def test_extremal_start_stays_at_one(self):
        start = instances.extremal_instance(1.0, 2.0)
        cfg = search.SearchConfig(objective="conjecture", trials=1, refine_steps=80, seed=7)
        rec = search.refine(start, cfg)
        assert rec.best_value == pytest.approx(1.0, abs=1e-9)
        assert rec.best_value <= 1.0 + 1e-9

    def test_rounding_gains_from_the_template_are_not_accepted(self):
        # frontier-wide's config refines from the template; at 1e-14 relative
        # no proposal gains more than rounding over its value
        start = instances.extremal_instance(1.0, 100.0)
        for seed in range(300):
            cfg = _cfg("conjecture", (8, 4, 4, 2), m=1.0, M=100.0, tol=1e-9, trials=100,
                       refine_steps=400, seed=seed)
            rec = search.refine(start, cfg)
            assert len(rec.trace) == 1 and rec.best_instance is start, seed

    def test_refined_instance_still_valid(self):
        start = instances.gen_instance(21, 4, 2, 2, 2, 1.0, 2.0)
        cfg = search.SearchConfig(
            objective="tightness_thm2", p=1.0, trials=1, refine_steps=50, seed=3
        )
        rec = search.refine(start, cfg)
        assert_instance_invariants(rec.best_instance)

    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (8, 4, 4, 2), (5, 2, 3, 2), (6, 3, 1, 3)])
    @pytest.mark.parametrize("objective,p", [("conjecture", None), ("tightness_thm2", 2.0)])
    def test_witness_is_the_identity_map_compression(self, dims, objective, p):
        # (5, 2, 3, 2) has d > n: the witness, 6 x 6, is larger than A
        d = dims[2]
        start = instances.gen_instance(3, *dims, 1.0, 100.0)
        cfg = _cfg(objective, dims, p, m=1.0, M=100.0, trials=1, refine_steps=60, seed=5)
        rec = search.refine(start, cfg)
        assert len(rec.trace) > 1
        witness = rec.best_instance
        assert (witness.ambient, witness.rank) == (2 * d, d)
        assert isinstance(witness.phi, maps.IdentityMap) and witness.phi.dim == d
        assert_instance_invariants(witness)
        replayed = instances.instance_from_json(instances.instance_to_json(witness))
        value = search.objective_value(cfg, replayed)
        assert abs(value - rec.best_value) <= 1e-12 * max(1.0, abs(rec.best_value))

    def test_start_outside_the_hypotheses_is_refused(self):
        # The transpose is positive, not 2-positive: the compression C' of
        # this start has an eigenvalue near -0.772, outside [m, M] = [1, 100].
        a = instances.operator_stack(rngs_from([3]), 1, 4, 1.0, 100.0)[0]
        u = haar_frames(rng_from(4).standard_normal((2, 4, 4)))
        x, y = u[:, :2], u[:, 2:4]
        start = instances.Instance(a, 1.0, 100.0, x, y, transpose_map(2), seed=0)
        cfg = search.SearchConfig(M=100.0, trials=1, refine_steps=400, seed=6)
        with pytest.raises(PreconditionViolated, match=r"spectrum \[-0\.77\d*, \S+\] escapes"):
            search.refine(start, cfg)


class TestReplayability:
    def test_best_value_reproduces_from_serialized_instance(self):
        cfg = search.SearchConfig(objective="conjecture", trials=150, seed=4)
        rec = search.run_search(cfg)
        blob = json.dumps(rec.to_json())
        payload = json.loads(blob)
        inst = instances.instance_from_json(payload["best_instance"])
        again = search.conjecture_ratio(inst)
        assert again == pytest.approx(rec.best_value, abs=1e-12)

    @pytest.mark.parametrize("objective,p,dims", [
        ("conjecture", None, (4, 2, 2, 2)),
        ("conjecture", None, (8, 4, 4, 2)),
        ("tightness_thm2", 2.0, (5, 2, 3, 2)),
    ])
    def test_block_values_replay_bit_for_bit(self, objective, p, dims):
        # A witness is the trial rebuilt through its JSON; its value must be
        # the one the sampled block scored, to the last bit.
        cfg = _cfg(objective, dims, p, m=1.0, M=100.0, seed=11)
        cfg.validate()
        indices = range(1, 44)
        values, errors = search._block_values(cfg, indices)
        assert not errors
        for lane, index in enumerate(indices):
            inst = instances.instance_from_json(
                instances.instance_to_json(search._trial_instance(cfg, index)))
            assert values[lane] == search.objective_value(cfg, inst), index

    def test_worker_count_independent_with_general_eigensolves(self, pool_ranges):
        # Rank 4 at M/m = 100: every sampled eigensolve is a LAPACK call,
        # run inside forked pool workers at workers=2, then refined.
        cfg = search.SearchConfig(
            objective="conjecture", ambient=8, rank=4, out_dim=4, ancilla=2,
            m=1.0, M=100.0, trials=24, refine_steps=30, seed=3,
        )
        serial = search.run_search(cfg, workers=1)
        parallel = search.run_search(cfg, workers=2)
        assert pool_ranges == [(12, 24)]
        assert json.dumps(serial.to_json()) == json.dumps(parallel.to_json())

    def test_run_search_with_refinement_keeps_monotone_trace(self):
        cfg = search.SearchConfig(
            objective="tightness_thm1", p=1.0, trials=50, refine_steps=40, seed=6
        )
        rec = search.run_search(cfg)
        values = [entry[2] for entry in rec.trace]
        assert values == sorted(values)
        inst = instances.instance_from_json(rec.to_json()["best_instance"])
        assert search.objective_value(cfg, inst) == pytest.approx(rec.best_value, abs=1e-12)


# Values, singular trials and search records of the one-trial objective that
# preceded the stacked kernels (git c4569bc, the last release with both), for
# the configurations below.  A record's best_instance is kept as the sha256
# of its JSON.
REFERENCE = json.loads((Path(__file__).parent / "data" / "search_reference.json").read_text())

# Stacked values may drift from the one-trial ones by this much, relative to
# max(1, |value|).
DRIFT = 1e-13


def _dims_key(dims):
    return ",".join(map(str, dims))


def _cfg(objective, dims=(4, 2, 2, 2), p=None, **kw):
    n_amb, n, d, k = dims
    return search.SearchConfig(
        objective=objective, ambient=n_amb, rank=n, out_dim=d, ancilla=k, p=p, **kw
    )


ALL_OBJECTIVES = [
    ("conjecture", None),
    ("tightness_thm1", 0.5),
    ("tightness_thm1", 2.0),
    ("tightness_thm2", 0.5),
    ("tightness_thm2", 2.0),
    ("tightness_thm3", 0.5),
    ("tightness_thm3", 2.0),
]


class TestStackedScreen:
    """Stacked search values against the frozen one-trial reference."""

    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (8, 4, 4, 2), (6, 3, 2, 3)])
    @pytest.mark.parametrize("M", [2.0, 100.0])
    @pytest.mark.parametrize("objective,p", ALL_OBJECTIVES)
    def test_stacked_values_match_scalar(self, dims, M, objective, p):
        cfg = _cfg(objective, dims, p, m=1.0, M=M, seed=8)
        indices = range(1, 31)
        stacked, errors = search._block_values(cfg, indices)
        want = REFERENCE["values"][f"{objective} p={p!r} {_dims_key(dims)} M={M!r}"]
        for lane, (value, scalar) in enumerate(zip(stacked, want)):
            if scalar is None:  # the one-trial objective raised Singular
                assert isinstance(errors.get(lane), Singular)
                continue
            assert lane not in errors
            assert abs(value - scalar) <= DRIFT * max(1.0, abs(scalar))

    @pytest.mark.parametrize("objective,p", [("conjecture", None), ("tightness_thm2", 2.0)])
    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (8, 4, 4, 2)])
    def test_singular_lanes_are_flagged(self, objective, p, dims):
        # At spectral scale 1e-12 the compressed operators fall under the
        # relative singularity threshold on some trials.
        cfg = _cfg(objective, dims, p, m=1e-13, M=1e-11, seed=2)
        indices = range(1, 61)
        _, errors = search._block_values(cfg, indices)
        singular = set(REFERENCE["singular"][f"{objective} p={p!r} {_dims_key(dims)}"])
        flagged = {indices[lane] for lane in errors}
        assert singular and singular == flagged
        assert all(isinstance(exc, Singular) for exc in errors.values())
        with pytest.raises(Singular, match=r"minimum eigenvalue \S+ below 1e-12\*1$"):
            search.objective_value(cfg, search._trial_instance(cfg, min(singular)))

    @pytest.mark.parametrize("objective,p", ALL_OBJECTIVES)
    def test_random_search_matches_scalar_walk(self, objective, p):
        cfgs = [
            _cfg(objective, (4, 2, 2, 2), p, m=1.0, M=100.0, trials=300, seed=5),
            _cfg(objective, (8, 4, 4, 2), p, m=1.0, M=2.0, trials=150, seed=77),
            _cfg(objective, (4, 2, 2, 2), p, m=1e-13, M=1e-11, trials=150, seed=2),
        ]
        for cfg in cfgs:
            dims = (cfg.ambient, cfg.rank, cfg.out_dim, cfg.ancilla)
            want = REFERENCE["records"][
                f"{objective} p={p!r} {_dims_key(dims)} m={cfg.m!r} M={cfg.M!r} seed={cfg.seed}"
            ]
            rec = search.random_search(cfg)
            got = json.loads(json.dumps(rec.to_json()))
            got["best_instance"] = hashlib.sha256(
                json.dumps(rec.to_json()["best_instance"]).encode()
            ).hexdigest()
            got["skipped"] = rec.skipped
            for blob in (got, want):
                blob["values"] = [blob.pop("best_value")] + [entry.pop() for entry in blob["trace"]]
            values = zip(got.pop("values"), want.pop("values"))
            assert got == want
            assert all(abs(x - y) <= DRIFT * max(1.0, abs(y)) for x, y in values)
        assert want["skipped"] > 0

    def test_block_size_and_workers_do_not_change_result(self, monkeypatch, pool_ranges):
        cfg = _cfg("tightness_thm3", (4, 2, 2, 2), 2.0, m=1.0, M=100.0, trials=90, seed=4)
        reports = set()
        # Below a block of 30, every run of 2 and 3 workers gets a full block
        # per worker and starts its pool.  At a full block the 2-worker run
        # is the first that could split over 2, so the caller walks it, and
        # the 3-worker run takes the warm pool.
        for block in (1, 7, 29, BLOCK_SIZE):
            monkeypatch.setattr(sampling, "block_size", lambda ambient: block)
            for workers in (1, 2, 3):
                rec = search.random_search(cfg, workers=workers)
                reports.add(json.dumps(rec.to_json()))
        assert pool_ranges == [(45, 90), (30, 60), (60, 90)] * 3 + [(30, 60), (60, 90)]
        assert len(reports) == 1
        assert len(json.loads(reports.pop())["trace"]) > 1


class TestRefineErrors:
    def test_failed_proposals_are_counted(self, monkeypatch):
        start = instances.gen_instance(4, 4, 2, 2, 2, 1.0, 2.0)
        cfg = search.SearchConfig(objective="conjecture", trials=1, refine_steps=10, seed=1)
        clean = search.refine(start, cfg)
        assert clean.refine_errors == 0
        fail_refine_proposals(monkeypatch, cfg.seed, PreconditionViolated("forced"))
        rec = search.refine(start, cfg)
        assert rec.refine_errors == 3
        assert rec.trials_done == 10
        assert all(entry[1] not in (2, 4, 5) for entry in rec.trace)


def _small_unitary(rng, dim, step):
    """exp(i * step * G) for a random Hermitian generator G with unit scale,
    one matrix at a time."""
    g = hermitian_part(complex_gaussian(rng, dim, dim))
    norm = float(np.linalg.norm(g, axis=(-2, -1)))
    if norm > 0.0:
        g = g / norm
    w, v = herm_eig_stack(g[np.newaxis])
    return (v[0] * np.exp(1j * step * w[0])) @ v[0].conj().T


def _perturbed(start, state, rng, step):
    lam = state.lam.copy()
    size = lam.shape[1]
    lam[:, 1:-1] = np.clip(
        lam[:, 1:-1] + step * (start.M - start.m) * rng.standard_normal(size - 2),
        start.m,
        start.M,
    )
    return search._RefineState(lam, qr_positive(state.basis @ _small_unitary(rng, size, step)))


def sequential_refine(start, cfg):
    """Reference: the step-halving ascent scored one proposal at a time."""
    rng = rng_from(mix_seed(cfg.seed, "refine"))
    _, state = search._start_state(start)
    best_value = search.objective_value(cfg, start)
    best_instance = start
    trace = [("refine", 0, best_value)]
    step, done, errors = 0.1, 0, 0
    for i in range(cfg.refine_steps):
        if step < 1e-6:
            break
        candidate_state = _perturbed(start, state, rng, step)
        candidate = instances.compression_instance(
            from_eig(candidate_state.lam[0], candidate_state.basis[0]), start.m, start.M,
            start.seed)
        try:
            value = search.objective_value(cfg, candidate)
        except WielandtLabError:
            value = -math.inf
            errors += 1
        done += 1
        if value - best_value > 1e-14 * max(1.0, abs(best_value)):
            best_value, best_instance, state = value, candidate, candidate_state
            trace.append(("refine", i + 1, value))
        else:
            step *= 0.5
    return search.SearchRecord(cfg.objective, best_value, best_instance, -1, done, trace, cfg,
                               refine_errors=errors)


_LADDER_CASES = [
    (instances.gen_instance(8, 8, 4, 4, 2, 1.0, 100.0),
     search.SearchConfig(ambient=8, rank=4, out_dim=4, M=100.0, trials=1, refine_steps=400,
                         seed=2), 5),
    (instances.gen_instance(5, 4, 2, 2, 2, 1.0, 100.0),
     search.SearchConfig(M=100.0, trials=1, refine_steps=400, seed=4), 5),
    (instances.extremal_instance(1.0, 100.0),
     search.SearchConfig(M=100.0, trials=1, refine_steps=400, seed=1), 0),
    (instances.gen_instance(21, 4, 2, 2, 2, 1.0, 2.0),
     search.SearchConfig(objective="tightness_thm2", p=1.0, trials=1, refine_steps=400,
                         seed=3), 5),
    (instances.gen_instance(5, 4, 2, 2, 2, 1.0, 100.0),
     search.SearchConfig(M=100.0, trials=1, refine_steps=5, seed=4), 1),
]
_LADDER_IDS = ["stinespring-8442", "accept-heavy-4222", "extremal", "thm2-p1", "budget-5"]


class TestRefineLadder:
    @pytest.mark.parametrize("start, cfg, min_accepts", _LADDER_CASES, ids=_LADDER_IDS)
    def test_matches_sequential_ascent(self, start, cfg, min_accepts):
        rec, ref = search.refine(start, cfg), sequential_refine(start, cfg)
        assert json.dumps(rec.to_json()) == json.dumps(ref.to_json())
        assert (rec.trials_done, rec.refine_errors) == (ref.trials_done, ref.refine_errors)
        assert len(ref.trace) - 1 >= min_accepts

    @pytest.mark.parametrize("lanes", [1, 7, 17])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_small_unitaries_match_one_matrix_bits(self, lanes, dim):
        steps = search._ladder_steps(0.1, lanes)
        draws = rng_from(9).standard_normal((lanes, 2, dim, dim))
        stacked = search._small_unitaries(draws, steps)
        rng = rng_from(9)
        for lane, step in enumerate(steps.tolist()):
            assert stacked[lane].tobytes() == _small_unitary(rng, dim, step).tobytes()


class TestRefinePin:
    """sha256 of refine records and of the DISCOVERY report.  The sequential
    ascent above shares the state helpers with refine, so only these pins
    catch a change in how a state becomes an instance."""

    @pytest.mark.parametrize("case, digest", zip(_LADDER_CASES, [
        "7a0c73616b8e62ae91d0300d69b129aea613dc8e627c72717b4889e4a3697a8b",
        "d46dde3244ab67e2c2874a2e64e3b5b7672bc64c9d9271ff7a5e5ada79e57cd5",
        "0abca5b96df4f349c384261607a904d23447c72bf3dbc16e51a7de5bc9e09e43",
        "a3d9377674032ce994b3d6b99034e112db3855b7f214951e7732a9ee4f718576",
        "c14473e1323ed14f01f2478058e7971abebce69ff1749e0dd9e6eac0de70dcaa",
    ]), ids=_LADDER_IDS)
    def test_record_digest(self, case, digest):
        start, cfg, _ = case
        record = json.dumps(search.refine(start, cfg).to_json())
        assert hashlib.sha256(record.encode()).hexdigest() == digest

    def test_discovery_report_digest(self, tmp_chdir, monkeypatch, capsys):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        args = ["search", "--objective", "conjecture", "--trials", "4000", "--refine-steps",
                "400", "--dims", "4,2,2,2", "--m", "1", "--M", "100", "--seed", "0"]
        assert cli.main(args + ["--out", "d.json"]) == 3
        raw = (tmp_chdir / "d.json").read_bytes()
        report = json.loads(raw)
        assert (report["best_value"], report["best_index"]) == (1.5354057569352633, 1179)
        assert report["trace"][-1][:2] == ["refine", 43]
        body = re.sub(rb'^\s*"(started_at|finished_at)": .*\n', b"", raw, flags=re.MULTILINE)
        assert hashlib.sha256(body).hexdigest() == (
            "9a24288a97a343c14d7ea52f65d8161bc12bcfe06d1129611770ef0f440fec35")


class TestGammaStack:
    def test_flags_and_values(self):
        # lane 0 is clean, lane 1 has S below the PSD window, lane 2 has T
        # outside the spectrum window [m, M] = [1, 2]
        s = np.stack([np.diag([0.1, 0.2]), np.diag([-1e-3, 0.2]), np.diag([0.1, 0.2])])
        t = np.stack([np.diag([1.5, 1.5]), np.diag([1.5, 1.5]), np.diag([0.5, 1.5])])
        t_eig = herm_eig_stack(t.astype(complex))
        errors = LaneErrors(3)
        s_eig = flag_gamma(s.astype(complex), t_eig, errors, 1.0, 2.0)
        sp, g = gamma_stack(s_eig, t_eig, errors.bad, (2.0, 0.5))
        assert sp.shape == g.shape == (2, 3, 2, 2)
        assert sorted(errors) == [1, 2]
        assert isinstance(errors[1], NotPSD)
        assert str(errors[1]) == "minimum eigenvalue -0.001 below -1e-10*1"
        assert isinstance(errors[2], PreconditionViolated)
        assert str(errors[2]) == "compressed operator spectrum [0.5, 1.5] escapes [1, 2]"
        assert np.allclose(sp[0, 0], np.diag([0.01, 0.04]), atol=1e-15)
        assert np.allclose(g[0, 0], np.diag([0.01, 0.04]) / 2.25, atol=1e-15)
        assert np.allclose(sp[1, 0], np.diag(np.sqrt([0.1, 0.2])), atol=1e-15)
        assert np.allclose(g[1, 0], np.diag(np.sqrt([0.1, 0.2] / np.float64(1.5))), atol=1e-15)
