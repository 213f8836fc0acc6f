import hashlib
import itertools
import json

import numpy as np
import pytest

from wielandt_lab import bounds, instances, maps, stacked
from wielandt_lab.errors import DimensionMismatch, InvalidBounds
from wielandt_lab.maps import IdentityMap
from wielandt_lab.matcore import herm_eig
from wielandt_lab.sampling import mix_seeds, rngs_from

from conftest import assert_instance_invariants, lapack_frames, rand_herm
from test_bounds import gamma_of


class TestGenOperator:
    """The operator A of a one-seed gen_instance draw."""

    def test_collapsed_spectrum_gives_scalar_matrix(self):
        for seed in (0, 1, 99):
            a = instances.gen_instance(seed, 3, 1, 1, 1, 2.5, 2.5).a
            assert np.linalg.norm(a - 2.5 * np.eye(3)) <= 1e-12

    def test_forced_endpoints_exact(self):
        a = instances.gen_instance(7, 2, 1, 1, 1, 1.0, 2.0).a
        w = herm_eig(a).eigenvalues
        assert w[0] == pytest.approx(1.0, abs=1e-13)
        assert w[-1] == pytest.approx(2.0, abs=1e-13)

    def test_determinism(self):
        a1 = instances.gen_instance(12, 4, 1, 1, 1, 1.0, 3.0).a
        a2 = instances.gen_instance(12, 4, 1, 1, 1, 1.0, 3.0).a
        assert np.array_equal(a1, a2)

    def test_spectrum_within_bounds(self):
        for seed in range(20):
            a = instances.gen_instance(seed, 5, 1, 1, 1, 0.5, 4.0).a
            w = herm_eig(a).eigenvalues
            assert w[0] >= 0.5 - 1e-12 and w[-1] <= 4.0 + 1e-12

    @pytest.mark.parametrize(
        "m,M", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, np.inf), (np.nan, 1.0)]
    )
    def test_invalid_bounds(self, m, M):
        with pytest.raises(InvalidBounds):
            instances.gen_instance(0, 3, 1, 1, 1, m, M)


class TestGenIsometryPair:
    """The frames X, Y of a one-seed gen_instance draw."""

    def test_minimal_pair(self):
        inst = instances.gen_instance(5, 2, 1, 1, 1, 1.0, 2.0)
        assert abs(np.vdot(inst.x[:, 0], inst.y[:, 0])) <= 1e-12
        assert np.linalg.norm(inst.x[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_over_many_seeds(self):
        for seed in range(100):
            inst = instances.gen_instance(seed, 4, 2, 1, 1, 1.0, 2.0)
            assert np.linalg.norm(inst.x.conj().T @ inst.y) <= 1e-12

    def test_gram_identities(self):
        inst = instances.gen_instance(8, 4, 2, 1, 1, 1.0, 2.0)
        assert np.linalg.norm(inst.x.conj().T @ inst.x - np.eye(2)) <= 1e-12
        assert np.linalg.norm(inst.y.conj().T @ inst.y - np.eye(2)) <= 1e-12

    def test_ambient_too_small(self):
        with pytest.raises(DimensionMismatch):
            instances.gen_instance(0, 3, 2, 1, 1, 1.0, 2.0)


class TestShapeRule:
    """One shape rule for (N, n, d, k): every sampler that takes a shape
    raises DimensionMismatch for a bad one, which is a ValueError as well."""

    @staticmethod
    def assert_rejected(call):
        with pytest.raises(DimensionMismatch) as info:
            call()
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("N,n,d,k", [(3, 2, 2, 2), (1, 1, 1, 1), (4, 0, 1, 1), (4, 2, 0, 2),
                                         (4, 2, 2, 0), (4, 2, 5, 2), (8, 1, 2, 1)])
    def test_instance_shapes(self, N, n, d, k):
        self.assert_rejected(lambda: instances.check_dims(N, n, d, k))
        self.assert_rejected(lambda: instances.gen_instance(0, N, n, d, k, 1.0, 2.0))

    @pytest.mark.parametrize("N,n", [(3, 2), (1, 1), (0, 0), (4, 0)])
    def test_isometry_pair_shapes(self, N, n):
        self.assert_rejected(lambda: instances.gen_instance(0, N, n, 1, 1, 1.0, 2.0))

    @pytest.mark.parametrize("n_dim", [1, 0])
    def test_operator_shapes(self, n_dim):
        self.assert_rejected(lambda: instances.gen_instance(0, n_dim, 1, 1, 1, 1.0, 2.0))

    @pytest.mark.parametrize("n,d,k", [(0, 1, 1), (2, 0, 2), (2, 2, 0), (1, 5, 2), (2, 3, 1)])
    def test_map_shapes(self, n, d, k):
        self.assert_rejected(lambda: maps.random_unital_cp(0, n, d, k))


class TestExtremalInstance:
    def test_structure(self):
        inst = instances.extremal_instance(1.0, 2.0)
        assert np.allclose(inst.a.real, [[1.5, 0.5], [0.5, 1.5]])
        w = herm_eig(inst.a).eigenvalues
        assert np.allclose(w, [1.0, 2.0], atol=1e-13)
        assert isinstance(inst.phi, IdentityMap)

    def test_equality_scalars(self):
        inst = instances.extremal_instance(1.0, 2.0)
        s, t = bounds.compressed_products(inst)
        assert s[0, 0].real == pytest.approx(1 / 6, abs=1e-14)
        assert bounds.wielandt_factor(1, 2) * t[0, 0].real == pytest.approx(1 / 6, abs=1e-14)

    def test_degenerate_limit(self):
        eps = 1e-6
        inst = instances.extremal_instance(2.0 - eps, 2.0)
        assert abs(gamma_of(inst, 1.0).gamma[0, 0]) < 1e-10

    @pytest.mark.parametrize("m,M", [(1.0, 1.0), (2.0, 1.0), (0.0, 1.0)])
    def test_requires_strict_bounds(self, m, M):
        with pytest.raises(InvalidBounds):
            instances.extremal_instance(m, M)

    def test_degenerate_companion(self):
        inst = instances.degenerate_instance(1.5)
        assert np.allclose(inst.a, 1.5 * np.eye(2))
        s, _ = bounds.compressed_products(inst)
        assert abs(s[0, 0]) <= 1e-15
        for m in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidBounds):
                instances.degenerate_instance(m)


class TestCompressionInstance:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_compression_is_c(self, d):
        for seed in range(5):
            c = rand_herm(seed, 2 * d)
            inst = instances.compression_instance(c, 1.0, 3.0, seed=seed)
            assert (inst.ambient, inst.rank, inst.phi.out_dim) == (2 * d, d, d)
            assert stacked.instance_compression(inst)[0].tobytes() == c.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_json_replays(self, d):
        inst = instances.compression_instance(rand_herm(7, 2 * d), 1.0, 3.0, seed=11)
        blob = json.dumps(instances.instance_to_json(inst))
        back = instances.instance_from_json(json.loads(blob))
        assert json.dumps(instances.instance_to_json(back)) == blob
        assert stacked.instance_compression(back)[0].tobytes() == inst.a.tobytes()


class TestGenInstance:
    def test_invariants(self):
        for seed in range(10):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            assert_instance_invariants(inst)

    def test_compressed_bounds_hold(self):
        # the implicit step: m <= Phi(X*AX) <= M and Phi(Y*AY) invertible
        for seed in range(10):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            a = inst.a
            for frame in (inst.x, inst.y):
                comp = frame.conj().T @ a @ frame
                out = inst.phi.apply(comp)
                out = (out + out.conj().T) / 2
                w = herm_eig(out).eigenvalues
                assert w[0] >= 1.0 - 2e-10 and w[-1] <= 2.0 + 2e-10
            yy = inst.phi.apply(inst.y.conj().T @ a @ inst.y)
            w = herm_eig((yy + yy.conj().T) / 2).eigenvalues
            assert w[0] >= 1.0 - 1e-10

    def test_determinism(self):
        i1 = instances.gen_instance(33, 4, 2, 2, 2, 1.0, 2.0)
        i2 = instances.gen_instance(33, 4, 2, 2, 2, 1.0, 2.0)
        assert json.dumps(instances.instance_to_json(i1)) == json.dumps(
            instances.instance_to_json(i2)
        )

    def test_ambient_guard(self):
        with pytest.raises(DimensionMismatch):
            instances.gen_instance(0, 3, 2, 2, 2, 1.0, 2.0)

    def test_wider_ambient_supported(self):
        inst = instances.gen_instance(5, 6, 2, 2, 2, 1.0, 2.0)
        assert inst.ambient == 6
        assert_instance_invariants(inst)


def _sampler_outputs(name, seed, shape):
    N, n, d, k = shape
    if name == "random_unital_cp":
        return [maps.random_unital_cp(seed, n, d, k).w]
    inst = instances.gen_instance(seed, N, n, d, k, 1.0, 3.0)
    return [inst.a, inst.x, inst.y, inst.phi.w]


class TestSamplerPin:
    """sha256 of the one-seed samplers' outputs over four seeds and four
    (N, n, d, k) shapes.  Any change to seeding, draw order or the Haar
    construction (qr_positive's Gram-Schmidt) changes them; like
    TestStreamPin, the bits also depend on the BLAS build that runs its
    stacked products."""

    SEEDS = (0, 1, 12345, 2**64 - 1)
    SHAPES = ((2, 1, 1, 1), (4, 2, 2, 2), (6, 3, 2, 3), (8, 4, 4, 2))

    DIGESTS = {
        "random_unital_cp": "eb8f1aa0a072bcf4d54c286ec27c22c4489591eb0c9db7a4c7e89b67006e95fd",
        "gen_instance": "59b77f634ec7027eed96fcd62d405dda8bdf2c91f54144b0dc85829c0218afeb",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_output_digest(self, name):
        digest = self.DIGESTS[name]
        h = hashlib.sha256()
        for shape in self.SHAPES:
            for seed in self.SEEDS:
                for a in _sampler_outputs(name, seed, shape):
                    h.update(np.ascontiguousarray(a, dtype=np.complex128).tobytes())
        assert h.hexdigest() == digest


def _lemma_sampler_outputs(name, seed, dim):
    if name.startswith("lemma_block_case"):
        x, t = bounds.lemma_block_case(seed, dim, int(name[-1]))
        return [x, np.array([t])]
    if name == "gen_square_order_pair":
        return list(bounds.gen_square_order_pair(seed, dim, 1.0, 3.0))
    return list(bounds.gen_psd_pair(seed, dim))


class TestLemmaSamplerPin:
    """sha256 of the criterion-4 one-seed samplers' outputs over
    TestSamplerPin's seeds and dims 2, 3 and 4; lemma_block_case's
    threshold t is hashed after X."""

    DIMS = (2, 3, 4)

    DIGESTS = {
        "lemma_block_case_0": "82352124ad346b632db7046305ac48c6ddf7fb6cc5329fa06be09031a6926c47",
        "lemma_block_case_1": "2d362097b1c949aebb22ffc9c23a19a27824f75fa48adbdf6c5adbccb1d71ed1",
        "lemma_block_case_2": "400ed310ef0e3ba3126035a4abd804c0a5088bbcdad254778384ded52a1be1d8",
        "lemma_block_case_3": "29b9cb1471460dc1f68586521c0e6b76f2fde3a99e5f27a9dd6ae2f38947b4a8",
        "gen_square_order_pair": "9346ba74bc34dd08980185c983c7734a01fbb227a15a051e0482322e6c0d731f",
        "gen_psd_pair": "7efac58d011fab0801cab7deb4a29d3a63c0cab6833103c0b1fe480e6d1966fb",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_output_digest(self, name):
        digest = self.DIGESTS[name]
        h = hashlib.sha256()
        for dim in self.DIMS:
            for seed in TestSamplerPin.SEEDS:
                for a in _lemma_sampler_outputs(name, seed, dim):
                    h.update(np.ascontiguousarray(a, dtype=np.complex128).tobytes())
        assert h.hexdigest() == digest


def _wielandt_draws(seed, dim):
    tags = (bounds.TAG_WIELANDT_A, bounds.TAG_WIELANDT_XY)
    return [part[0] for part in bounds.wielandt_draws(rngs_from(mix_seeds(seed, tags)), 1, dim,
                                                      1.0, 3.0)]


class TestLapackFrameDrift:
    """Every sampler that draws a Haar frame gives, per entry, within 1e-13
    of what it gives with the reference LAPACK QR (conftest
    lapack_qr_positive) as sampling.qr_positive; so do the operators built
    on those frames."""

    SEEDS = (*TestSamplerPin.SEEDS, *range(2, 50))

    @pytest.mark.parametrize("name", ["random_unital_cp", "gen_instance"])
    def test_instance_samplers(self, name):
        for shape in (*TestSamplerPin.SHAPES, (5, 2, 3, 2), (7, 3, 2, 3)):
            for seed in self.SEEDS:
                got = _sampler_outputs(name, seed, shape)
                with lapack_frames():
                    want = _sampler_outputs(name, seed, shape)
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-13, (shape, seed)

    @pytest.mark.parametrize("name", ["gen_square_order_pair", "wielandt_draws"])
    def test_lemma_samplers(self, name):
        def outputs(seed, dim):
            if name == "wielandt_draws":
                return _wielandt_draws(seed, dim)
            return _lemma_sampler_outputs(name, seed, dim)

        for dim in (*TestLemmaSamplerPin.DIMS, 8):
            for seed in self.SEEDS:
                got = outputs(seed, dim)
                with lapack_frames():
                    want = outputs(seed, dim)
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-13, (dim, seed)


def _default_rng_draws(seeds, lanes, shape, uniforms=0):
    """lane_draws' reference: lane i draws from default_rng of the i-th next
    sub-seed of `seeds`, its normals, then its uniforms."""
    rngs = [np.random.default_rng(seed) for seed in itertools.islice(seeds, lanes)]
    return (np.stack([rng.standard_normal(shape) for rng in rngs]),
            np.stack([rng.random(uniforms) for rng in rngs]))


class TestDrawInstances:
    @pytest.mark.parametrize("shape", TestSamplerPin.SHAPES)
    def test_lanes_equal_gen_instance(self, shape, monkeypatch):
        # a stacked block seeds its lanes in one vectorized pass, and
        # each lane's components are those of default_rng at its sub-seeds
        seeds = mix_seeds(5, range(1, 41))
        sub_seeds = instances.instance_seeds(seeds)
        got = instances.draw_instances(rngs_from(sub_seeds), len(seeds), *shape, 1.0, 3.0)
        monkeypatch.setattr(instances, "lane_draws", _default_rng_draws)
        want = instances.draw_instances(iter(sub_seeds.ravel().tolist()), len(seeds), *shape,
                                        1.0, 3.0)
        monkeypatch.undo()
        for lane, seed in enumerate(seeds.tolist()):
            inst = instances.gen_instance(seed, *shape, 1.0, 3.0)
            for got_part, want_part, one in zip(got, want, (inst.a, inst.x, inst.y, inst.phi.w)):
                assert np.array_equal(got_part[lane], want_part[lane]), lane
                assert np.array_equal(got_part[lane], one), lane


class TestSerialization:
    def test_bit_identical_roundtrip(self):
        inst = instances.gen_instance(77, 4, 2, 2, 2, 1.0, 2.0)
        blob = json.dumps(instances.instance_to_json(inst))
        back = instances.instance_from_json(json.loads(blob))
        assert np.array_equal(back.a, inst.a)
        assert np.array_equal(back.x, inst.x)
        assert np.array_equal(back.y, inst.y)
        assert np.array_equal(back.phi.w, inst.phi.w)
        assert back.m == inst.m and back.M == inst.M and back.seed == inst.seed
        # serializing again reproduces the same bytes
        assert json.dumps(instances.instance_to_json(back)) == blob

    def test_extremal_roundtrip(self):
        inst = instances.extremal_instance(1.0, 2.0)
        back = instances.instance_from_json(
            json.loads(json.dumps(instances.instance_to_json(inst)))
        )
        assert np.array_equal(back.a, inst.a)
        assert back.phi.in_dim == 1
