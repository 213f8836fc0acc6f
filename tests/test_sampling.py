import hashlib
import re

import numpy as np
import pytest

from wielandt_lab import cli, sampling, search
from wielandt_lab.sampling import MASK64, mix_seed, mix_seeds, rngs_from

from conftest import lapack_qr_positive

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
        real = sampling.block_size

        def recording(ambient):
            blocks.append(real(ambient))
            return blocks[-1]

        monkeypatch.setattr(sampling, "block_size", recording)
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

    def test_lanes_follow_default_rng_when_numpy_seeding_differs(self, monkeypatch):
        # The vectorized seeding no longer matches default_rng, so each lane
        # draws from default_rng itself.
        real = np.random.default_rng
        monkeypatch.setattr(sampling.np.random, "default_rng", lambda seed: real(seed ^ 1))
        rngs = rngs_from(np.array([5, 6], dtype=np.uint64))
        for seed in (5, 6):
            assert next(rngs).bit_generator.state == real(seed ^ 1).bit_generator.state
        assert next(rngs, None) is None

    def test_swapped_words_fall_back_to_default_rng(self, monkeypatch):
        # High and low words swapped in state and increment: the first lane's
        # state is wrong, so every lane draws from its own default_rng.
        real = sampling._pcg64_states
        monkeypatch.setattr(sampling, "_pcg64_states", lambda seeds: real(seeds)[:, [1, 0, 3, 2]])
        rngs = rngs_from(np.array([5, 6], dtype=np.uint64))
        for seed, rng in zip((5, 6), rngs):
            assert rngs.words is None
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        assert next(rngs, None) is None

    def test_empty_block_yields_nothing(self):
        assert list(rngs_from(np.array([], dtype=np.uint64))) == []
        assert list(rngs_from(np.empty((0, 3), dtype=np.uint64))) == []


class TestLaneDraws:
    SEEDS = (0, 7, 12345, 2**63, 2**64 - 1)
    SHAPE = (2, 3, 4)

    def _seeds(self, count):
        return np.concatenate([np.array(self.SEEDS, dtype=np.uint64), _random_seeds(count)])[:count]

    @pytest.mark.parametrize("uniforms", [0, 1, 3])
    @pytest.mark.parametrize("lanes", [0, 1, 512])
    def test_lanes_match_numpy(self, lanes, uniforms):
        # Lane i: default_rng(seed_i).standard_normal(shape), then .random(u).
        seeds = self._seeds(lanes)
        g, u = sampling.lane_draws(rngs_from(seeds), lanes, self.SHAPE, uniforms)
        assert g.shape == (lanes, *self.SHAPE) and u.shape == (lanes, uniforms)
        for lane, seed in enumerate(seeds.tolist()):
            ref = np.random.default_rng(seed)
            assert np.array_equal(g[lane], ref.standard_normal(self.SHAPE))
            assert np.array_equal(u[lane], ref.random(uniforms))

    def test_split_draws_equal_one_draw(self):
        seeds = self._seeds(5)
        whole = sampling.lane_draws(rngs_from(seeds), 5, self.SHAPE, 2)
        stream = rngs_from(seeds)
        parts = [sampling.lane_draws(stream, lanes, self.SHAPE, 2) for lanes in (3, 2)]
        for i, want in enumerate(whole):
            assert np.array_equal(np.concatenate([part[i] for part in parts]), want)

    def test_interleaved_streams_keep_their_lanes(self):
        # Each stream owns its generator, so drawing from one leaves the
        # other's lanes as default_rng gives them.
        seeds = _random_seeds(40).reshape(2, 20)
        streams = [rngs_from(row) for row in seeds]
        for lane in range(20):
            for row, stream in zip(seeds, streams):
                g, u = sampling.lane_draws(stream, 1, (5,), 2)
                ref = np.random.default_rng(int(row[lane]))
                assert np.array_equal(g[0], ref.standard_normal(5))
                assert np.array_equal(u[0], ref.random(2))

    def test_drawing_past_the_last_lane_raises(self):
        seeds = self._seeds(3)
        stream = rngs_from(seeds)
        sampling.lane_draws(stream, 2, self.SHAPE)
        with pytest.raises(IndexError):
            sampling.lane_draws(stream, 2, self.SHAPE)
        # the refused draw took no lane: the last one is still there
        g, _ = sampling.lane_draws(stream, 1, self.SHAPE)
        ref = np.random.default_rng(int(seeds[2]))
        assert np.array_equal(g[0], ref.standard_normal(self.SHAPE))
        with pytest.raises(IndexError):
            sampling.lane_draws(stream, 1, self.SHAPE)
        with pytest.raises(IndexError):
            sampling.lane_draws(rngs_from(np.array([], dtype=np.uint64)), 1, self.SHAPE)

    @pytest.mark.parametrize("names", [("random_standard_normal_fill",) * 2,
                                       ("random_standard_normal_fill", "no_such_fill")],
                             ids=["draws-other-bits", "missing"])
    def test_failed_fill_probe_falls_back_to_default_rng(self, names, monkeypatch, request):
        # normals where the uniforms should be, or a routine numpy lacks
        monkeypatch.setattr(sampling, "_FILL_NAMES", names)
        # the check runs once per process: run it afresh, and again after
        sampling._fills.cache_clear()
        request.addfinalizer(sampling._fills.cache_clear)
        assert sampling._fills() is None
        seeds = self._seeds(3)
        g, u = sampling.lane_draws(rngs_from(seeds), 3, self.SHAPE, 2)
        for lane, seed in enumerate(seeds.tolist()):
            ref = np.random.default_rng(seed)
            assert np.array_equal(g[lane], ref.standard_normal(self.SHAPE))
            assert np.array_equal(u[lane], ref.random(2))


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


def _conditioned_stack(rng, lanes, rows, cols):
    """`lanes` complex (rows, cols) matrices: the first half Gaussian, the
    rest U diag(s) V* with Haar U and V and singular values log-spaced from
    1 down to 1/cond, cond up to 1e12 (nearly dependent columns)."""
    g = sampling.complex_draws(rng.standard_normal((lanes, 2, rows, cols)))
    half = lanes // 2
    u = lapack_qr_positive(g[half:])
    square = rng.standard_normal((lanes - half, 2, cols, cols))
    v = lapack_qr_positive(sampling.complex_draws(square))
    cond = 10.0 ** rng.uniform(0.0, 12.0, lanes - half)
    s = cond[:, np.newaxis] ** -np.linspace(0.0, 1.0, cols)
    g[half:] = (u * s[:, np.newaxis, :]) @ v.conj().swapaxes(-1, -2)
    return g


class TestQrPositive:
    @pytest.mark.parametrize("rows,cols", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 4), (6, 3), (8, 4),
                                           (8, 8)])
    def test_orthonormal_triangular_positive(self, rows, cols):
        # 20 000 draws: Q*Q = I within 2e-15, and Q*A upper triangular with a
        # positive real diagonal, within 1e-14 of ||A||.
        a = _conditioned_stack(np.random.default_rng(rows * 10 + cols), 20_000, rows, cols)
        q = sampling.qr_positive(a)
        qa = q.conj().swapaxes(-1, -2)
        assert np.abs(qa @ q - np.eye(cols)).max() <= 2e-15
        r = qa @ a
        scale = np.linalg.norm(a, axis=(-2, -1))[:, np.newaxis]
        below = np.tril(np.ones((cols, cols), dtype=bool), -1)
        assert np.all(np.abs(r[:, below]) <= 1e-14 * scale)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.all(diag.real > 0.0)
        assert np.all(np.abs(diag.imag) <= 1e-14 * scale)


_TIMESTAMP_LINE = re.compile(rb'^\s*"(started_at|finished_at)": .*\n', re.MULTILINE)


_PINS = [
    (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
      "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "100", "--seed", "3"],
     0, "307f1ecabebd11bf90b920f63ba703005e084a935d51ac1c8abad2c791497dde"),
    (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
      "--M", "2", "--tol", "1e-9", "--trials", "300", "--seed", "3"],
     0, "d52f805da869ab7b27fa834b030810b0381c602c24d16b70992aa9bd167a2dba"),
    # Runs past one 512-trial block, pinned to digests taken with
    # 64-trial blocks.
    (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
      "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "600", "--seed", "3"],
     0, "53fd2a73e14060eeee40acb25158d200f1e2ec4c5a5461e9e585a0a6b80ba55d"),
    (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
      "--M", "2", "--tol", "1e-9", "--trials", "1100", "--seed", "3"],
     0, "b73603a4cfe37ba4f1a5505a0869a00f61fd27a30045698ff70723ef6b09e949"),
    # Exponent grids that split into several groups at some block
    # sizes, and the other caller of gamma_stack.
    (["verify", "--n", "2", "--d", "2", "--k", "2", "--m", "1", "--M", "2",
      "--p", "0.25,0.5,1,1.5,2,3", "--tol", "1e-9", "--trials", "50", "--seed", "3"],
     0, "a141b69f2b01318678e2a57360432059982118dc0afcb41d8bbc99d08dad9ce5"),
    (["verify", "--N", "4", "--n", "2", "--d", "3", "--k", "2", "--M", "100",
      "--p", "0.1:6:0.1", "--trials", "50"],
     0, "8b3fcc7d11bf80a99bf1308476485695c7d37e0b534d713ba764bc67ae4ee1c5"),
    (["verify", "--N", "7", "--n", "3", "--d", "2", "--k", "3", "--M", "50",
      "--p", "0.5,0.75,1.5"],
     0, "ffe58a1f521e1c3a2a0a90977e040ab0a307d81c40f1c407084e820ca45950b9"),
    (["verify", "--m", "1e-13", "--M", "1e-11", "--p", "0.5,2"],
     1, "f92229a1a3e24087b525afac72834e82d9d0f576884c2163990df7c2388ee433"),
    (["search", "--objective", "tightness_thm2", "--p", "2", "--dims", "5,2,3,2",
      "--trials", "1100"],
     0, "02c441c355f1262bd6edc3b871b7e71ab8f00cd6343acac29aea84bfe9ce20a8"),
    # Draws at N = 8 and M/m = 100, then refines.
    (["search", "--objective", "conjecture", "--dims", "8,4,4,2", "--m", "1",
      "--M", "100", "--refine-steps", "400", "--trials", "100", "--seed", "3"],
     0, "9a842d49c3ccd356d36902d6a9b6bbc3154ab2f6bc58722034d35f69cd3d3c68"),
    # A sampled trial beats the template: trial 1179 at M/m = 100
    # exceeds the conjectured bound, so every sampled frame counts.
    (["search", "--objective", "conjecture", "--dims", "4,2,2,2", "--m", "1",
      "--M", "100", "--trials", "1200", "--seed", "0"],
     3, "6983419038b6bb86dd17cd037cf32e05ae6d1dd1d0587b0f3051b641b2ae1c9c"),
]


class TestStreamPin:
    """sha256 of timestamp-stripped reports, with each run's exit code.  Any
    change to the sampled instance stream (seed mixing, generator seeding,
    draw order or the Gram-Schmidt that turns draws into frames) or to the
    exponent arithmetic changes them, so such a change must update these pins
    on purpose.  The bits also depend on the BLAS build that runs the stacked
    products and the LAPACK build that solves the eigenproblems beyond
    2x2."""

    @pytest.mark.parametrize(
        "args,code,digest",
        _PINS,
        ids=["verify", "search", "verify-two-blocks", "search-three-blocks", "verify-sweep",
             "verify-long-grid", "verify-rank-three", "verify-trial-errors", "search-thm2",
             "frontier-wide", "search-sampled-win"],
    )
    def test_report_digest(self, args, code, digest, tmp_chdir, monkeypatch, capsys):
        monkeypatch.setenv("WIELANDT_LAB_THREADS", "1")
        assert cli.main(args + ["--out", "r.json"]) == code
        body = _TIMESTAMP_LINE.sub(b"", (tmp_chdir / "r.json").read_bytes())
        assert hashlib.sha256(body).hexdigest() == digest

    @pytest.mark.parametrize("probe", ["fills", "state-words"])
    def test_failed_probe_keeps_the_digest(self, probe, tmp_chdir, monkeypatch, request):
        # Lanes drawn through default_rng, after a probe of numpy's fill
        # routines or state words fails, give the same reports.
        if probe == "fills":
            monkeypatch.setattr(sampling, "_FILL_NAMES", ("no_such_fill",) * 2)
            sampling._fills.cache_clear()
            request.addfinalizer(sampling._fills.cache_clear)
        else:
            monkeypatch.setattr(sampling, "_state_words", lambda bit_generator: None)
        for args, code, digest in _PINS[:2]:
            self.test_report_digest(args, code, digest, tmp_chdir, monkeypatch, None)
