import json

import numpy as np
import pytest

from wielandt_lab import instances, search
from wielandt_lab.errors import DegenerateBounds, InvalidBounds

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


class TestCorollaryRatios:
    def test_extremal(self):
        r2, r3 = search.corollary_ratios(instances.extremal_instance(1.0, 2.0))
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert r3 == pytest.approx(1.0, abs=1e-12)

    def test_zero_case(self):
        r2, r3 = search.corollary_ratios(loose_scalar_instance())
        assert abs(r2) <= 1e-13 and abs(r3) <= 1e-13

    def test_r3_never_exceeds_r2(self):
        for seed in range(100):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            r2, r3 = search.corollary_ratios(inst)
            assert r3 <= r2 + 1e-13

    def test_batch_maximum_reported(self):
        # empirical finding, reported rather than asserted as a theorem
        best_r2 = best_r3 = 0.0
        for seed in range(500):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            r2, r3 = search.corollary_ratios(inst)
            best_r2 = max(best_r2, r2)
            best_r3 = max(best_r3, r3)
        print(f"corollary ratio batch maxima over 500 seeds: r2={best_r2}, r3={best_r3}")
        assert np.isfinite(best_r2) and np.isfinite(best_r3)
        assert best_r3 <= best_r2 + 1e-13


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
