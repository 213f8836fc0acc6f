import json

import numpy as np
import pytest

from wielandt_lab import maps
from wielandt_lab.errors import DimensionMismatch
from wielandt_lab.maps import map_stack
from wielandt_lab.matcore import herm_eig, hermitian_part

from conftest import rand_complex, rand_herm, rand_psd, transpose_map


def kraus_ops(phi):
    """Ancilla slices of a Stinespring isometry: K_a[i, :] = W[i*k + a, :]."""
    n, k, d = phi.in_dim, phi.ancilla, phi.out_dim
    return [phi.w.reshape(n, k, d)[:, a, :] for a in range(k)]


def stacked_kraus(ops):
    """The Stinespring map of Kraus operators K_a (n x d): they stack on the ancilla."""
    return maps.StinespringMap(np.stack(ops, axis=1).reshape(-1, ops[0].shape[1]), len(ops))


def convex_cp(weights, parts):
    """A convex mix of CP maps: each part's Kraus operators scaled by sqrt(weight)."""
    return stacked_kraus([np.sqrt(w) * k for w, p in zip(weights, parts) for k in kraus_ops(p)])


def _sample_maps():
    """One map of each kind, all with input dimension 2."""
    ident = maps.IdentityMap(2)
    stine = maps.random_unital_cp(5, 2, 2, 2)
    v = np.array([[1.0], [0.0]], dtype=complex)
    comp = maps.StinespringMap(v, 1)
    kraus = stacked_kraus(kraus_ops(stine))
    convex = convex_cp((0.25, 0.75), (maps.StinespringMap(np.eye(2), 1),
                                     maps.random_unital_cp(6, 2, 2, 1)))
    return {"identity": ident, "stinespring": stine, "compression": comp,
            "kraus": kraus, "convex": convex, "linear": transpose_map(2)}


class TestApply:
    def test_identity(self):
        t = rand_complex(0, 2, 2)
        assert np.array_equal(maps.IdentityMap(2).apply(t), t)

    def test_corner_compression(self):
        t = rand_complex(1, 2, 2)
        v = np.array([[1.0], [0.0]], dtype=complex)
        out = maps.StinespringMap(v, 1).apply(t)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(t[0, 0])

    def test_kraus_unitary_mixture_unital(self):
        rng = np.random.default_rng(3)
        u1, _ = np.linalg.qr(rand_complex(3, 2, 2))
        u2, _ = np.linalg.qr(rand_complex(4, 2, 2))
        phi = stacked_kraus([u1 / np.sqrt(2), u2 / np.sqrt(2)])
        assert np.allclose(phi.apply(np.eye(2)), np.eye(2), atol=1e-12)

    def test_stinespring_matches_kraus_expansion(self):
        phi = maps.random_unital_cp(11, 3, 2, 2)
        t = rand_complex(7, 3, 3)
        direct = phi.apply(t)
        expanded = sum(k.conj().T @ t @ k for k in kraus_ops(phi))
        assert np.allclose(direct, expanded, atol=1e-12)

    def test_stinespring_apply_bits_match_kron_form(self):
        for n, d, k in [(2, 2, 2), (3, 2, 3), (4, 4, 2)]:
            phi = maps.random_unital_cp(n + d + k, n, d, k)
            t = rand_complex(n, n, n)
            expected = phi.w.conj().T @ np.kron(t, np.eye(k, dtype=np.complex128)) @ phi.w
            # the Kraus form sums the same products in another order
            assert np.abs(phi.apply(t) - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            maps.IdentityMap(2).apply(np.eye(3))

    @pytest.mark.parametrize(
        "name", ["identity", "stinespring", "compression", "kraus", "convex", "linear"]
    )
    def test_linearity_and_adjoints(self, name):
        phi = _sample_maps()[name]
        t1 = rand_complex(21, 2, 2)
        t2 = rand_complex(22, 2, 2)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        lin = phi.apply(a * t1 + b * t2) - a * phi.apply(t1) - b * phi.apply(t2)
        assert np.linalg.norm(lin) <= 1e-12
        adj = phi.apply(t1.conj().T) - phi.apply(t1).conj().T
        assert np.linalg.norm(adj) <= 1e-12

    @pytest.mark.parametrize("name", ["identity", "stinespring", "compression", "kraus", "convex"])
    def test_unitality_and_psd_preservation(self, name):
        phi = _sample_maps()[name]
        image = phi.apply(np.eye(phi.in_dim))
        unital_defect = np.linalg.norm(image - np.eye(phi.out_dim))
        assert unital_defect <= 1e-12 * max(1.0, np.linalg.norm(image))
        for seed in range(5):
            t = rand_psd(seed, phi.in_dim)
            w, _ = herm_eig(hermitian_part(phi.apply(t)))
            assert w[0] >= -1e-11 * max(1.0, w[-1])

    def test_spectral_bound_preservation(self):
        # unital positive maps keep the spectrum inside [min, max]
        for seed in range(8):
            phi = maps.random_unital_cp(seed, 2, 2, 2)
            t = rand_herm(seed + 50, 2)
            wt = herm_eig(t).eigenvalues
            wo = herm_eig(hermitian_part(phi.apply(t))).eigenvalues
            assert wo[0] >= wt[0] - 1e-11
            assert wo[-1] <= wt[-1] + 1e-11


class TestRandomUnitalCp:
    def test_unitary_conjugation_special_case(self):
        phi = maps.random_unital_cp(9, 3, 3, 1)
        assert phi.w.shape == (3, 3)  # k=1, d=n: W is a unitary
        t = rand_complex(5, 3, 3)
        assert np.allclose(phi.apply(t), phi.w.conj().T @ t @ phi.w, atol=1e-13)

    def test_deterministic_kraus(self):
        k1 = kraus_ops(maps.random_unital_cp(42, 2, 2, 3))
        k2 = kraus_ops(maps.random_unital_cp(42, 2, 2, 3))
        assert len(k1) == len(k2) == 3
        assert all(np.array_equal(a, b) for a, b in zip(k1, k2))

    def test_unital_within_tolerance(self):
        phi = maps.random_unital_cp(13, 2, 2, 2)
        image = phi.apply(np.eye(2))
        assert np.linalg.norm(image - np.eye(2)) <= 1e-12

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            maps.random_unital_cp(0, 1, 5, 2)  # n*k = 2 < d = 5


class TestSerialization:
    @pytest.mark.parametrize(
        "name", ["identity", "stinespring", "compression", "kraus", "convex", "linear"]
    )
    def test_roundtrip(self, name):
        phi = _sample_maps()[name]
        blob = json.dumps(maps.map_to_json(phi))
        back = maps.map_from_json(json.loads(blob))
        assert back.in_dim == phi.in_dim and back.out_dim == phi.out_dim
        t = rand_complex(31, phi.in_dim, phi.in_dim)
        assert np.array_equal(back.apply(t), phi.apply(t))

    def test_linear_action_roundtrip(self):
        phi = transpose_map(2)
        back = maps.map_from_json(json.loads(json.dumps(maps.map_to_json(phi))))
        t = rand_complex(8, 2, 2)
        assert np.array_equal(back.apply(t), t.T)

    def test_linear_dims_must_match_matrix(self):
        obj = maps.map_to_json(transpose_map(2))
        for key, value in (("in_dim", 3), ("out_dim", 1)):
            with pytest.raises(DimensionMismatch):
                maps.map_from_json(dict(obj, **{key: value}))

    def test_linear_action_must_preserve_adjoints(self):
        # I + 0.3 G sends a Hermitian T to a non-Hermitian image, so C' would
        # not be Hermitian and S would be read off half of it; transposes and
        # a complex compression V*TV (3 x 3 to 2 x 2, vec(V*TV) = (V* (x) V^T)
        # vec(T)) written as linear actions keep Phi(T*) = Phi(T)*
        bent = maps.LinearActionMap(np.eye(4) + 0.3 * rand_complex(1, 4, 4))
        with pytest.raises(ValueError, match="does not preserve adjoints"):
            maps.map_from_json(json.loads(json.dumps(maps.map_to_json(bent))))
        v = np.linalg.qr(rand_complex(2, 3, 2))[0]
        for phi in (transpose_map(2), transpose_map(3),
                    maps.LinearActionMap(np.kron(v.conj().T, v.T))):
            back = maps.map_from_json(json.loads(json.dumps(maps.map_to_json(phi))))
            assert np.array_equal(back.matrix, phi.matrix)

    def test_unknown_tag(self):
        # the compression, Kraus and convex forms are Stinespring maps
        for tag in ("nonsense", "compression", "kraus", "convex"):
            with pytest.raises(ValueError):
                maps.map_from_json({"type": tag})


class TestValidation:
    def test_bad_compression_frame(self):
        with pytest.raises(ValueError):
            maps.StinespringMap(np.array([[1.0], [1.0]], dtype=complex), 1)

    def test_non_unital_kraus(self):
        with pytest.raises(ValueError):
            stacked_kraus([np.eye(2, dtype=complex)] * 2)

    def test_convex_weights_must_sum_to_one(self):
        ident = maps.StinespringMap(np.eye(2), 1)
        with pytest.raises(ValueError):
            convex_cp((0.5, 0.2), (ident, ident))

class TestStackedAction:
    @pytest.mark.parametrize("name", ["stinespring", "compression", "kraus", "convex", "linear"])
    def test_matches_apply_bit_for_bit(self, name):
        phi = _sample_maps()[name]
        stack = rand_complex(41, 7 * phi.in_dim, phi.in_dim).reshape(7, phi.in_dim, phi.in_dim)
        want = np.stack([phi.apply(t) for t in stack])
        assert map_stack(phi)(stack).tobytes() == want.tobytes()

    def test_rectangular_linear_map(self):
        phi = maps.LinearActionMap(rand_complex(42, 9, 4))
        stack = rand_complex(43, 10, 2).reshape(5, 2, 2)
        got = map_stack(phi)(stack)
        assert got.shape == (5, 3, 3)
        assert got.tobytes() == np.stack([phi.apply(t) for t in stack]).tobytes()
