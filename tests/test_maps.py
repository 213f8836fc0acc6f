import json

import numpy as np
import pytest

from wielandt_lab import maps
from wielandt_lab.errors import DimensionMismatch
from wielandt_lab.matcore import herm_eig, hermitian_part

from conftest import rand_complex, rand_herm, rand_psd


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
            "kraus": kraus, "convex": convex, "linear": maps.transpose_map(2)}


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

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 3)])
    def test_tensor_identity_equals_kron(self, n, k):
        t = rand_complex(n * 10 + k, n, n)
        assert np.array_equal(maps.tensor_identity(t, k), np.kron(t, np.eye(k)))
        stack = np.stack([rand_complex(100 + i, n, n) for i in range(5)])
        big = maps.tensor_identity(stack, k)
        assert big.shape == (5, n * k, n * k)
        for i in range(5):
            assert np.array_equal(big[i], np.kron(stack[i], np.eye(k)))

    def test_stinespring_apply_bits_match_kron_form(self):
        for n, d, k in [(2, 2, 2), (3, 2, 3), (4, 4, 2)]:
            phi = maps.random_unital_cp(n + d + k, n, d, k)
            t = rand_complex(n, n, n)
            expected = phi.w.conj().T @ np.kron(t, np.eye(k, dtype=np.complex128)) @ phi.w
            assert np.array_equal(phi.apply(t), expected)

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
        assert maps.is_unital(phi)
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


class TestChoi:
    def test_identity_choi_is_entangled_projector(self):
        c = maps.choi(maps.IdentityMap(2))
        w = np.linalg.eigvalsh(c)
        assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)

    def test_compression_choi_psd(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        w = np.linalg.eigvalsh(maps.choi(maps.StinespringMap(v, 1)))
        assert w[0] >= -1e-12

    def test_transpose_choi_is_swap(self):
        c = maps.choi(maps.transpose_map(2))
        w = np.linalg.eigvalsh(c)
        assert np.allclose(w, [-1, 1, 1, 1], atol=1e-12)

    def test_choi_convexity(self):
        p1 = maps.random_unital_cp(1, 2, 2, 2)
        p2 = maps.random_unital_cp(2, 2, 2, 1)
        direct = maps.choi(convex_cp((0.3, 0.7), (p1, p2)))
        combo = 0.3 * maps.choi(p1) + 0.7 * maps.choi(p2)
        assert np.linalg.norm(direct - combo) <= 1e-12
        # a mix with a non-CP part is a linear action
        mix = maps.LinearActionMap(0.3 * maps.transpose_map(2).matrix + 0.7 * np.eye(4))
        combo = 0.3 * maps.choi(maps.transpose_map(2)) + 0.7 * maps.choi(maps.IdentityMap(2))
        assert np.linalg.norm(maps.choi(mix) - combo) <= 1e-12


class TestIsCp:
    def test_stinespring_cp(self):
        assert maps.is_cp(maps.random_unital_cp(0, 2, 3, 2))

    def test_transpose_not_cp(self):
        assert not maps.is_cp(maps.transpose_map(2))

    def test_convex_of_cp_is_cp(self):
        mix = convex_cp(
            (0.5, 0.5),
            (maps.random_unital_cp(1, 2, 2, 2), maps.random_unital_cp(2, 2, 2, 2)),
        )
        assert maps.is_unital(mix) and maps.is_cp(mix)


class TestTwoPositivityProbe:
    def test_identity_clean(self):
        report = maps.two_positivity_probe(maps.IdentityMap(2), trials=25, seed=0)
        assert not report.violated
        assert report.trials_done == 25
        assert "no violation found in 25 trials" == report.message

    def test_transpose_caught_by_first_deterministic_sample(self):
        report = maps.two_positivity_probe(maps.transpose_map(2), trials=10, seed=0)
        assert report.violated
        assert report.trials_done == 1
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        # the witness is the rank-one matrix-unit block structure
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
        assert np.allclose(report.witness, expected, atol=1e-12)

    def test_compression_clean(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        report = maps.two_positivity_probe(maps.StinespringMap(v, 1), trials=25, seed=3)
        assert not report.violated

    def test_cp_maps_never_flagged(self):
        for seed in range(6):
            phi = maps.random_unital_cp(seed, 2, 2, 2)
            assert maps.is_cp(phi)
            assert not maps.two_positivity_probe(phi, trials=15, seed=seed).violated

    def test_determinism(self):
        r1 = maps.two_positivity_probe(maps.IdentityMap(2), trials=10, seed=7)
        r2 = maps.two_positivity_probe(maps.IdentityMap(2), trials=10, seed=7)
        assert r1.min_eigenvalue == r2.min_eigenvalue


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


class TestClassify:
    def test_cp_map_certified(self):
        assert maps.classify_map(maps.random_unital_cp(3, 2, 2, 2)) == "certified CP"

    def test_transpose_violated(self):
        assert maps.classify_map(maps.transpose_map(2)) == "violated"


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
        phi = maps.transpose_map(2)
        back = maps.map_from_json(json.loads(json.dumps(maps.map_to_json(phi))))
        t = rand_complex(8, 2, 2)
        assert np.array_equal(back.apply(t), t.T)

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

    def test_probe_requires_trials(self):
        with pytest.raises(ValueError):
            maps.two_positivity_probe(maps.IdentityMap(2), trials=0, seed=0)
