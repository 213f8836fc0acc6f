import hashlib
import re

import numpy as np
import pytest

from wielandt_lab import cli, sampling, search
from wielandt_lab.sampling import MASK64, mix_seed, mix_seeds, rngs_from

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _random_seeds(count):
    return np.random.default_rng(2024).integers(0, 2**64, size=count, dtype=np.uint64)


class TestBlockSize:
    def test_lane_budget(self):
        sizes = [sampling.block_size(n) for n in (2, 4, 8, 9, 16, 22, 23, 64)]
        assert sizes == [512, 512, 512, 404, 128, 67, 64, 64]

    def test_fan_out_uses_the_shape_block(self, monkeypatch):
        # A heavier shape has smaller blocks, so its runs reach a pool sooner.
        blocks = []

        def recording(fn, head, trials, workers, block):
            blocks.append(block)
            return sampling.fan_out(fn, head, trials, workers, block)

        monkeypatch.setattr(cli, "fan_out", recording)
        monkeypatch.setattr(search, "fan_out", recording)
        shape = dict(rank=2, out_dim=2, ancilla=2, m=1.0, M=2.0, seed=0)
        cli.run_verify(cli.VerifyParams(trials=2, ambient=32, p_values=(1.0,), tol=1e-9, **shape))
        search.random_search(search.SearchConfig(trials=2, ambient=16, **shape))
        assert blocks == [64, 128]


class TestRngsFrom:
    def test_states_match_default_rng(self):
        seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), _random_seeds(10_000)])
        for seed, rng in zip(seeds.tolist(), rngs_from(seeds)):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_draws_match_default_rng(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64).reshape(2, 3)  # C order
        for seed, rng in zip(seeds.ravel().tolist(), rngs_from(seeds)):
            ref = np.random.default_rng(seed)
            assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
            assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)

    @pytest.mark.parametrize("count", [1, 3, 512])
    def test_block_lanes_match_default_rng(self, count):
        # Each lane draws as operator_stack does: normals, then uniforms.
        seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), _random_seeds(count)])[:count]
        g, u = np.empty((count, 2, 3, 3)), np.empty((count, 3))
        for i, (seed, rng) in enumerate(zip(seeds.tolist(), rngs_from(seeds))):
            ref = np.random.default_rng(seed)
            assert rng.bit_generator.state == ref.bit_generator.state
            rng.standard_normal(out=g[i])
            rng.random(out=u[i])
            assert np.array_equal(g[i], ref.standard_normal((2, 3, 3)))
            assert np.array_equal(u[i], ref.random(3))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_interleaved_iterators_keep_their_lanes(self):
        # Each iterator owns its generator, so advancing one leaves the
        # other's lanes as default_rng gives them.
        seeds = _random_seeds(40).reshape(2, 20)
        iters = [rngs_from(row) for row in seeds]
        for lane in range(20):
            for row, rngs in zip(seeds, iters):
                rng, ref = next(rngs), np.random.default_rng(int(row[lane]))
                assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
                assert np.array_equal(rng.random(2), ref.random(2))

    @pytest.mark.parametrize("m,M", [(1e-13, 1e-11), (1.0, 2.0), (1.0, 100.0), (1.0, 1e6)])
    def test_scaled_random_is_uniform(self, m, M):
        # operator_stack maps Generator.random draws onto [m, M] itself
        seed = mix_seed(5, "operator")
        got = m + (M - m) * np.random.default_rng(seed).random(1000)
        assert np.array_equal(got, np.random.default_rng(seed).uniform(m, M, 1000))

    def test_self_check_raises_when_numpy_seeding_differs(self, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(sampling.np.random, "default_rng", lambda seed: real(seed ^ 1))
        with pytest.raises(RuntimeError):
            next(rngs_from(np.array([5, 6], dtype=np.uint64)))

    def test_self_check_raises_on_swapped_words(self, monkeypatch):
        # High and low words swapped in state and increment: the first lane's
        # state is wrong, so no generator may be handed out.
        real = sampling._pcg64_states
        monkeypatch.setattr(sampling, "_pcg64_states", lambda seeds: real(seeds)[:, [1, 0, 3, 2]])
        rngs = rngs_from(np.array([5, 6], dtype=np.uint64))
        with pytest.raises(RuntimeError):
            next(rngs)
        assert next(rngs, None) is None

    def test_empty_block_yields_nothing(self):
        assert list(rngs_from(np.array([], dtype=np.uint64))) == []
        assert list(rngs_from(np.empty((0, 3), dtype=np.uint64))) == []


class TestLaneDraws:
    SEEDS = (0, 7, 12345, 2**63, 2**64 - 1)

    @pytest.mark.parametrize("uniforms", [0, 3])
    @pytest.mark.parametrize("block", [False, True])
    def test_lanes_match_numpy(self, uniforms, block):
        # Lane i: default_rng(seed_i).standard_normal(shape), then .random(u).
        shape, lanes = (2, 3, 4), len(self.SEEDS)
        gens = [np.random.default_rng(s) for s in self.SEEDS]
        rngs = rngs_from(np.array(self.SEEDS, dtype=np.uint64)) if block else iter(gens)
        g, u = sampling.lane_draws(rngs, lanes, shape, uniforms)
        assert g.shape == (lanes, *shape) and u.shape == (lanes, uniforms)
        for lane, seed in enumerate(self.SEEDS):
            ref = np.random.default_rng(seed)
            assert np.array_equal(g[lane], ref.standard_normal(shape))
            assert np.array_equal(u[lane], ref.random(uniforms))
            if not block:  # no draw beyond the lane's own
                assert gens[lane].bit_generator.state == ref.bit_generator.state


class TestMixSeeds:
    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1, 2**70 + 5])
    def test_string_tags(self, seed):
        tags = ("operator", "isometries", "map", "")
        lanes = mix_seeds(seed, tags)
        assert lanes.dtype == np.uint64
        assert lanes.tolist() == [mix_seed(seed, tag) for tag in tags]

    def test_integer_tags(self):
        tags = np.array([0, 1, 63, 2**40, -1], dtype=np.int64)
        assert mix_seeds(11, tags).tolist() == [mix_seed(11, int(t)) for t in tags]
        assert mix_seeds(11, range(5, 9)).tolist() == [mix_seed(11, t) for t in range(5, 9)]
        assert mix_seeds(11, 4).tolist() == [mix_seed(11, 4)]

    def test_seed_arrays_broadcast_against_tags(self):
        seeds = _random_seeds(50)
        lanes = mix_seeds(seeds[:, np.newaxis], ("square_b", "square_p"))
        assert lanes.shape == (50, 2)
        for seed, row in zip(seeds.tolist(), lanes.tolist()):
            assert row == [mix_seed(seed, "square_b"), mix_seed(seed, "square_p")]
        assert mix_seeds(seeds, "map").tolist() == [mix_seed(s, "map") for s in seeds.tolist()]
        assert max(mix_seeds(seeds, 3).tolist()) <= MASK64


_TIMESTAMP_LINE = re.compile(rb'^\s*"(started_at|finished_at)": .*\n', re.MULTILINE)


class TestStreamPin:
    """sha256 of timestamp-stripped reports, with each run's exit code.  Any
    change to the sampled instance stream (seed mixing, generator seeding or
    draw order) or to the exponent arithmetic changes them, so such a change
    must update these pins on purpose.  The bits also depend on the LAPACK
    build that solves the eigenproblems."""

    @pytest.mark.parametrize(
        "args,code,digest",
        [
            (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
              "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "100", "--seed", "3"],
             0, "802fd7204e6a23e8195000d3cc513c329c8d7802ca9b1271176c158602758d7c"),
            (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
              "--M", "2", "--tol", "1e-9", "--trials", "300", "--seed", "3"],
             0, "d52f805da869ab7b27fa834b030810b0381c602c24d16b70992aa9bd167a2dba"),
            # Runs past one 512-trial block, pinned to digests taken with
            # 64-trial blocks.
            (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
              "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "600", "--seed", "3"],
             0, "972bb955c1ad9c4ca08bb2efaaba037408eb5f3528aacdf55766ea11b4aa5f4a"),
            (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
              "--M", "2", "--tol", "1e-9", "--trials", "1100", "--seed", "3"],
             0, "b73603a4cfe37ba4f1a5505a0869a00f61fd27a30045698ff70723ef6b09e949"),
            # Exponent grids that split into several groups at some block
            # sizes, and the other caller of gamma_stack.
            (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
              "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "50", "--seed", "3"],
             0, "53d9e0d1d3863347838ceb2ad806f1eb600942e4d61e5bd88302c9711746f835"),
            (["verify", "--N", "4", "--n", "2", "--d", "3", "--k", "2", "--M", "100",
              "--p", "0.1:6:0.1", "--trials", "50"],
             0, "646735ea4b0000214e5c7f7b228e1dcba540d833c66a7c21d982b10631de46a1"),
            (["verify", "--N", "7", "--n", "3", "--d", "2", "--k", "3", "--M", "50",
              "--p", "0.5,0.75,1.5"],
             0, "1b60cd24eb2821059b78b074f8ae14866d0342bb826886cb50095f20d161b6ae"),
            (["verify", "--m", "1e-13", "--M", "1e-11", "--p", "0.5,2"],
             1, "3f0e423d193ae654d45bd0ec633bff2c5f403db8a775a81dcfdc528479b203ae"),
            (["search", "--objective", "tightness_thm2", "--p", "2", "--dims", "5,2,3,2",
              "--trials", "1100"],
             0, "02c441c355f1262bd6edc3b871b7e71ab8f00cd6343acac29aea84bfe9ce20a8"),
            # Draws at N = 8 and M/m = 100, then refines.
            (["search", "--objective", "conjecture", "--dims", "8,4,4,2", "--m", "1",
              "--M", "100", "--refine-steps", "400", "--trials", "100", "--seed", "3"],
             0, "9a842d49c3ccd356d36902d6a9b6bbc3154ab2f6bc58722034d35f69cd3d3c68"),
        ],
        ids=["verify", "search", "verify-two-blocks", "search-three-blocks", "verify-sweep",
             "verify-long-grid", "verify-rank-three", "verify-trial-errors", "search-thm2",
             "frontier-wide"],
    )
    def test_report_digest(self, args, code, digest, tmp_chdir, monkeypatch, capsys):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        assert cli.main(args + ["--out", "r.json"]) == code
        body = _TIMESTAMP_LINE.sub(b"", (tmp_chdir / "r.json").read_bytes())
        assert hashlib.sha256(body).hexdigest() == digest
