import itertools
import json
import math

import numpy as np
import pytest

from wielandt_lab import instances, search
from wielandt_lab.matcore import herm_eig_stack
from wielandt_lab.stacked import gamma_stack
from wielandt_lab.errors import (
    DegenerateBounds,
    InvalidBounds,
    InvalidExponent,
    PreconditionViolated,
    Singular,
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
        for tol in (math.nan, -1.0, math.inf):
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

    def test_worker_count_does_not_change_result(self):
        cfg = search.SearchConfig(objective="conjecture", trials=64, seed=9)
        serial = search.random_search(cfg, workers=1)
        parallel = search.random_search(cfg, workers=2)
        assert json.dumps(serial.to_json()) == json.dumps(parallel.to_json())


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

    def test_refined_instance_still_valid(self):
        start = instances.gen_instance(21, 4, 2, 2, 2, 1.0, 2.0)
        cfg = search.SearchConfig(
            objective="tightness_thm2", p=1.0, trials=1, refine_steps=50, seed=3
        )
        rec = search.refine(start, cfg)
        assert instances.validate_instance(rec.best_instance) == []


class TestReplayability:
    def test_best_value_reproduces_from_serialized_instance(self):
        cfg = search.SearchConfig(objective="conjecture", trials=150, seed=4)
        rec = search.run_search(cfg)
        blob = json.dumps(rec.to_json())
        payload = json.loads(blob)
        inst = instances.instance_from_json(payload["best_instance"])
        again = search.conjecture_ratio(inst)
        assert again == pytest.approx(rec.best_value, abs=1e-12)

    def test_worker_count_independent_with_general_eigensolves(self):
        # Rank 4 at M/m = 100: every sampled eigensolve is a LAPACK call,
        # run inside forked pool workers at workers=2, then refined.
        cfg = search.SearchConfig(
            objective="conjecture", ambient=8, rank=4, out_dim=4, ancilla=2,
            m=1.0, M=100.0, trials=24, refine_steps=30, seed=3,
        )
        serial = search.run_search(cfg, workers=1)
        parallel = search.run_search(cfg, workers=2)
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


def _scalar_eval_range(cfg, start, stop):
    """Reference: every trial scored by the scalar objective, one by one."""
    best_value = -math.inf
    best_index = -1
    best_json = None
    improvements = []
    skipped = 0
    for index in range(start, stop):
        inst = search._trial_instance(cfg, index)
        try:
            value = search.objective_value(cfg, inst)
        except Singular:
            skipped += 1
            continue
        if value > best_value:
            best_value = value
            best_index = index
            best_json = instances.instance_to_json(inst)
            improvements.append((index, value))
    return best_value, best_index, best_json, improvements, skipped


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
    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (8, 4, 4, 2), (6, 3, 2, 3)])
    @pytest.mark.parametrize("M", [2.0, 100.0])
    @pytest.mark.parametrize("objective,p", ALL_OBJECTIVES)
    def test_stacked_values_match_scalar(self, dims, M, objective, p):
        cfg = _cfg(objective, dims, p, m=1.0, M=M, seed=8)
        indices = range(1, 31)
        stacked = search._block_values(cfg, indices)
        for index, value in zip(indices, stacked):
            try:
                scalar = search.objective_value(cfg, search._trial_instance(cfg, index))
            except Singular:
                assert np.isnan(value)
                continue
            assert not np.isnan(value)
            assert abs(value - scalar) <= 1e-13 * max(1.0, abs(scalar))

    @pytest.mark.parametrize("objective,p", [("conjecture", None), ("tightness_thm2", 2.0)])
    @pytest.mark.parametrize("dims", [(4, 2, 2, 2), (8, 4, 4, 2)])
    def test_singular_lanes_are_flagged(self, objective, p, dims):
        # At spectral scale 1e-12 the compressed operators fall under the
        # relative singularity threshold on some trials.
        cfg = _cfg(objective, dims, p, m=1e-13, M=1e-11, seed=2)
        indices = range(1, 61)
        stacked = search._block_values(cfg, indices)
        singular = set()
        for index in indices:
            try:
                search.objective_value(cfg, search._trial_instance(cfg, index))
            except Singular:
                singular.add(index)
        flagged = {i for i, v in zip(indices, stacked) if np.isnan(v)}
        assert singular and singular <= flagged

    @pytest.mark.parametrize("objective,p", ALL_OBJECTIVES)
    def test_random_search_matches_scalar_walk(self, objective, p, monkeypatch):
        cfgs = [
            _cfg(objective, (4, 2, 2, 2), p, m=1.0, M=100.0, trials=300, seed=5),
            _cfg(objective, (8, 4, 4, 2), p, m=1.0, M=2.0, trials=150, seed=77),
            _cfg(objective, (4, 2, 2, 2), p, m=1e-13, M=1e-11, trials=150, seed=2),
        ]
        stacked = [search.random_search(cfg) for cfg in cfgs]
        monkeypatch.setattr(search, "_eval_range", _scalar_eval_range)
        scalar = [search.random_search(cfg) for cfg in cfgs]
        for a, b in zip(stacked, scalar):
            assert json.dumps(a.to_json()) == json.dumps(b.to_json())
            assert a.skipped == b.skipped
        assert scalar[2].skipped > 0

    def test_block_size_and_workers_do_not_change_result(self, monkeypatch):
        cfg = _cfg("tightness_thm3", (4, 2, 2, 2), 2.0, m=1.0, M=100.0, trials=90, seed=4)
        reports = set()
        for block in (1, 7, 64):
            monkeypatch.setattr(search, "BLOCK_SIZE", block)
            for workers in (1, 2, 3):
                rec = search.random_search(cfg, workers=workers)
                reports.add(json.dumps(rec.to_json()))
        assert len(reports) == 1
        assert len(json.loads(reports.pop())["trace"]) > 1


class TestRefineErrors:
    def test_failed_proposals_are_counted(self, monkeypatch):
        start = instances.gen_instance(4, 4, 2, 2, 2, 1.0, 2.0)
        cfg = search.SearchConfig(objective="conjecture", trials=1, refine_steps=10, seed=1)
        clean = search.refine(start, cfg)
        assert clean.refine_errors == 0
        real = search.objective_value
        calls = itertools.count()

        def flaky(cfg_, inst):
            if next(calls) in (2, 4, 5):  # call 0 scores the start instance
                raise PreconditionViolated("forced")
            return real(cfg_, inst)

        monkeypatch.setattr(search, "objective_value", flaky)
        rec = search.refine(start, cfg)
        assert rec.refine_errors == 3
        assert rec.trials_done == 10
        assert all(entry[1] not in (2, 4, 5) for entry in rec.trace)


class TestGammaStack:
    def test_flags_and_values(self):
        # lane 0 is clean, lane 1 has S below the PSD window, lane 2 has T
        # outside the spectrum window [m, M] = [1, 2]
        s = np.stack([np.diag([0.1, 0.2]), np.diag([-1e-3, 0.2]), np.diag([0.1, 0.2])])
        t = np.stack([np.diag([1.5, 1.5]), np.diag([1.5, 1.5]), np.diag([0.5, 1.5])])
        t_eig = herm_eig_stack(t.astype(complex))
        bad = np.zeros(3, dtype=bool)
        _, flagged, [(sp, g)] = gamma_stack(s.astype(complex), t_eig, bad, 1.0, 2.0, (2.0,))
        assert flagged.tolist() == [False, True, True]
        assert not bad.any()  # the caller's mask is left alone
        assert np.allclose(sp[0], np.diag([0.01, 0.04]), atol=1e-15)
        assert np.allclose(g[0], np.diag([0.01, 0.04]) / 2.25, atol=1e-15)
