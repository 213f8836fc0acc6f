import json

import numpy as np
import pytest

from wielandt_lab import bounds, instances
from wielandt_lab.errors import DimensionMismatch, InvalidBounds
from wielandt_lab.maps import IdentityMap
from wielandt_lab.matcore import herm_eig

from test_bounds import gamma_of


class TestGenOperator:
    def test_collapsed_spectrum_gives_scalar_matrix(self):
        for seed in (0, 1, 99):
            a = instances.gen_operator(seed, 3, 2.5, 2.5)
            assert np.linalg.norm(a - 2.5 * np.eye(3)) <= 1e-12

    def test_forced_endpoints_exact(self):
        a = instances.gen_operator(7, 2, 1.0, 2.0)
        w = herm_eig(a).eigenvalues
        assert w[0] == pytest.approx(1.0, abs=1e-13)
        assert w[-1] == pytest.approx(2.0, abs=1e-13)

    def test_determinism(self):
        a1 = instances.gen_operator(12, 4, 1.0, 3.0)
        a2 = instances.gen_operator(12, 4, 1.0, 3.0)
        assert np.array_equal(a1, a2)

    def test_spectrum_within_bounds(self):
        for seed in range(20):
            a = instances.gen_operator(seed, 5, 0.5, 4.0)
            w = herm_eig(a).eigenvalues
            assert w[0] >= 0.5 - 1e-12 and w[-1] <= 4.0 + 1e-12

    @pytest.mark.parametrize(
        "m,M", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, np.inf), (np.nan, 1.0)]
    )
    def test_invalid_bounds(self, m, M):
        with pytest.raises(InvalidBounds):
            instances.gen_operator(0, 3, m, M)


class TestGenIsometryPair:
    def test_minimal_pair(self):
        x, y = instances.gen_isometry_pair(5, 2, 1)
        assert abs(np.vdot(x[:, 0], y[:, 0])) <= 1e-12
        assert np.linalg.norm(x[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_over_many_seeds(self):
        for seed in range(100):
            x, y = instances.gen_isometry_pair(seed, 4, 2)
            assert np.linalg.norm(x.conj().T @ y) <= 1e-12

    def test_gram_identities(self):
        x, y = instances.gen_isometry_pair(8, 4, 2)
        assert np.linalg.norm(x.conj().T @ x - np.eye(2)) <= 1e-12
        assert np.linalg.norm(y.conj().T @ y - np.eye(2)) <= 1e-12

    def test_ambient_too_small(self):
        with pytest.raises(DimensionMismatch):
            instances.gen_isometry_pair(0, 3, 2)


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


class TestGenInstance:
    def test_invariants(self):
        for seed in range(10):
            inst = instances.gen_instance(seed, 4, 2, 2, 2, 1.0, 2.0)
            assert instances.validate_instance(inst) == []

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

    def test_identity_override(self):
        inst = instances.gen_instance(4, 4, 2, 2, 2, 1.0, 2.0, identity_phi=True)
        assert isinstance(inst.phi, IdentityMap)
        assert instances.validate_instance(inst) == []

    def test_identity_override_needs_matching_dims(self):
        with pytest.raises(DimensionMismatch):
            instances.gen_instance(4, 4, 2, 3, 2, 1.0, 2.0, identity_phi=True)

    def test_ambient_guard(self):
        with pytest.raises(DimensionMismatch):
            instances.gen_instance(0, 3, 2, 2, 2, 1.0, 2.0)

    def test_wider_ambient_supported(self):
        inst = instances.gen_instance(5, 6, 2, 2, 2, 1.0, 2.0)
        assert inst.ambient == 6
        assert instances.validate_instance(inst) == []


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

    def test_validate_catches_bad_bundle(self):
        inst = instances.gen_instance(1, 4, 2, 2, 2, 1.0, 2.0)
        bad = instances.Instance(
            a=inst.a * 3.0,  # spectrum escapes [m, M]
            m=inst.m,
            M=inst.M,
            x=inst.x,
            y=inst.y,
            phi=inst.phi,
            seed=inst.seed,
        )
        assert instances.validate_instance(bad) != []

    def test_validate_flags_unpinned_endpoints(self):
        inst = instances.gen_instance(1, 4, 2, 2, 2, 1.0, 2.0)
        loose = instances.Instance(inst.a, 0.9, 2.1, inst.x, inst.y, inst.phi, seed=inst.seed)
        assert any("not pinned" in p for p in instances.validate_instance(loose))

    def test_validate_flags_non_orthonormal_frame(self):
        inst = instances.gen_instance(2, 4, 2, 2, 2, 1.0, 2.0)
        bad = instances.Instance(inst.a, 1.0, 2.0, 2.0 * inst.x, inst.y, inst.phi)
        assert any("orthonormal" in p for p in instances.validate_instance(bad))
