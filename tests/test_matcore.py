import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wielandt_lab import matcore as mc
from wielandt_lab.errors import (
    DimensionMismatch,
    InvalidExponent,
    NotPSD,
    Singular,
)
from wielandt_lab.sampling import qr_positive

from conftest import rand_complex, rand_herm, rand_psd
from test_bounds import lhs_values


class TestHermEig:
    def test_identity(self):
        w, v = mc.herm_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-12

    def test_2x2_known_spectrum(self):
        # characteristic polynomial lambda^2 - 4 lambda + 3 has roots 1, 3
        w, v = mc.herm_eig([[2, 1], [1, 2]])
        assert np.allclose(w, [1, 3], atol=1e-12)
        assert np.linalg.norm((v * w) @ v.conj().T - np.array([[2, 1], [1, 2]])) < 1e-12

    def test_diagonal_permutation(self):
        w, v = mc.herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1, 3], atol=0)
        # eigenvector for the smaller eigenvalue is e2 up to phase
        assert abs(abs(v[1, 0]) - 1) < 1e-12

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_reconstruction_and_unitarity(self, seed, dim):
        h = rand_herm(seed, dim)
        w, v = mc.herm_eig(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-12 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8, 12])
    def test_against_numpy(self, dim):
        for seed in range(20):
            h = rand_herm(seed, dim)
            w, _ = mc.herm_eig(h)
            assert np.max(np.abs(w - np.linalg.eigvalsh(h))) < 1e-11

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            mc.herm_eig([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            mc.herm_eig([[1, 2, 0], [0, 1, 0], [0, 0, 1]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            mc.herm_eig([[np.nan, 0], [0, 1]])


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_herm_eig_stack_matches_herm_eig(self, dim):
        stack = np.stack([rand_herm(dim * 100 + i, dim) for i in range(20)])
        stack[0] = np.diag(np.arange(dim, 0, -1.0))  # diagonal, descending
        stack[1] = np.diag(np.arange(1.0, dim + 1))  # diagonal, ascending
        stack[2] = np.eye(dim)
        w, v = mc.herm_eig_stack(stack)
        for i in range(len(stack)):
            ws, _ = mc.herm_eig(stack[i])
            scale = max(1.0, float(np.max(np.abs(ws))))
            assert np.max(np.abs(w[i] - ws)) <= 1e-14 * scale
            assert np.all(np.diff(w[i]) >= 0.0)
            assert np.allclose((v[i] * w[i]) @ v[i].conj().T, stack[i], atol=1e-14 * scale)
            assert np.allclose(v[i].conj().T @ v[i], np.eye(dim), atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 4])  # closed form, LAPACK
    @pytest.mark.parametrize("length", [1, 7, 512])
    def test_lane_bits_independent_of_stack_length(self, dim, length):
        # Block-size independence of every stacked kernel rests on this.
        stack = np.stack([rand_herm(dim * 1000 + i, dim) for i in range(length)])
        stack[0] = np.diag(np.arange(dim, 0, -1.0))  # diagonal, descending
        w, v = mc.herm_eig_stack(stack)
        for i in range(length):
            w1, v1 = mc.herm_eig_stack(stack[i : i + 1])
            assert np.array_equal(w[i], w1[0]) and np.array_equal(v[i], v1[0])
        w0, v0 = mc.herm_eig(stack[-1])
        assert np.array_equal(w0, w[-1]) and np.array_equal(v0, v[-1])

    @pytest.mark.parametrize("dim", [2, 3])  # closed form, LAPACK
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lane_raises(self, dim, bad):
        stack = np.stack([rand_herm(dim * 10 + i, dim) for i in range(3)])
        stack[1, 0, 0] = bad
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            mc.herm_eig_stack(stack)

    @pytest.mark.parametrize("dim", [2, 3, 4])  # closed form, LAPACK
    def test_eigvals_stack_is_the_eigenvalue_half(self, dim):
        # herm_eigvals_stack gives herm_eig_stack's eigenvalues bit for bit,
        # signed zeros included, and a stack of stacks keeps each lane's bits.
        stack = np.stack([rand_herm(dim * 70 + i, dim) for i in range(12)])
        stack[0] = 0.0
        stack[1] = np.diag(np.full(dim, -0.0))
        stack[2] = np.diag(np.arange(dim, 0, -1.0))
        stack[3, 0, 0] = -0.0
        want = mc.herm_eig_stack(stack).eigenvalues
        assert mc.herm_eigvals_stack(stack).tobytes() == want.tobytes()
        pair = mc.herm_eigvals_stack(np.stack([stack, stack[::-1]]))
        assert pair.tobytes() == np.stack([want, want[::-1]]).tobytes()
        gram_w = mc.gram_eig(stack).eigenvalues
        assert mc.op_norm_stack(stack).tobytes() == mc.sqrt_top(gram_w).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])  # closed form, LAPACK
    def test_eigvals_stack_rejects_non_finite_lanes(self, dim):
        stack = np.stack([rand_herm(dim * 10 + i, dim) for i in range(3)])
        stack[1, 0, 0] = np.nan
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            mc.herm_eigvals_stack(stack)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_herm_norm_stack(self, dim):
        half = np.stack([rand_herm(dim * 50 + i, dim) for i in range(9)])
        stack = np.concatenate([half, -half])  # each spectrum and its negative
        w = mc.herm_eig_stack(stack).eigenvalues
        assert np.any(-w[:, 0] > w[:, -1])  # some lane's largest |eigenvalue| is negative
        norms = mc.herm_norm_stack(stack)
        assert np.array_equal(norms, mc.top_abs(w))
        # an SVD reference, independent of the eigensolver
        assert np.allclose(norms, [np.linalg.norm(h, 2) for h in stack], rtol=1e-13, atol=0.0)

    def test_hermitian_part_stack_bits(self):
        a = rand_complex(3, 4, 4)
        assert np.array_equal(mc.hermitian_part(a), (a + a.conj().T) / 2.0)
        stack = np.stack([rand_complex(10 + i, 3, 3) for i in range(4)])
        out = mc.hermitian_part(stack)
        for i in range(4):
            assert np.array_equal(out[i], mc.hermitian_part(stack[i]))

    def test_qr_positive_stack_matches_per_matrix(self):
        stack = np.stack([rand_complex(20 + i, 5, 3) for i in range(6)])
        q = qr_positive(stack)
        for i in range(6):
            single = qr_positive(stack[i])
            assert np.allclose(q[i], single, atol=1e-15, rtol=0.0)
            r = single.conj().T @ stack[i]
            assert np.all(np.diagonal(r).real > 0.0)


def _complex_stack(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMatprod:
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((64, 2, 2), (64, 2, 2)),
        ((3, 64, 2, 2), (3, 64, 2, 2)),
        ((3, 64, 2, 2), (64, 2, 2)),  # stack_pows' (P, B) stack by (B) eigenbases
        ((2, 2), (2, 2)),
    ])
    def test_2x2_stacks_match_matmul(self, a_shape, b_shape):
        a, b = _complex_stack(1, a_shape), _complex_stack(2, b_shape)
        want = a @ b
        got = mc.matprod(a, b)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((64, 1, 1), (64, 1, 1)),
        ((64, 2, 4), (64, 4, 2)),
        ((64, 4, 2), (64, 2, 4)),
        ((64, 2, 2), (64, 2, 1)),
        ((64, 4, 4), (64, 4, 4)),
        ((3, 64, 4, 4), (64, 4, 4)),
    ])
    def test_other_shapes_are_matmul_bits(self, a_shape, b_shape):
        a, b = _complex_stack(3, a_shape), _complex_stack(4, b_shape)
        assert mc.matprod(a, b).tobytes() == (a @ b).tobytes()


class TestHermEigAccuracy:
    """herm_eig against a 50-digit mpmath eigensolve of the same binary64
    matrix: absolute eigenvalue error and residual stay at the 1e-13 * ||H||
    level across condition numbers up to 1e6."""

    @staticmethod
    def graded_herm(seed: int, dim: int, cond: float) -> np.ndarray:
        # |eigenvalues| log-spaced over [1, cond] with random signs.
        rng = np.random.default_rng(seed)
        lam = np.logspace(0.0, np.log10(cond), dim) * rng.choice([-1.0, 1.0], dim)
        q, _ = np.linalg.qr(rand_complex(seed, dim, dim))
        h = (q * lam) @ q.conj().T
        return (h + h.conj().T) / 2

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_matches_mpmath(self, dim, cond):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for seed in range(3):
                h = self.graded_herm(seed, dim, cond)
                w, v = mc.herm_eig(h)
                hm = mpmath.matrix(h.tolist())
                exact = mpmath.eighe(hm, eigvals_only=True)
                norm = max(abs(e) for e in exact)
                err = max(abs(mpmath.mpf(float(w[i])) - exact[i]) for i in range(dim))
                assert err <= 1e-13 * norm
                vm = mpmath.matrix(v.tolist())
                resid = hm * vm - vm * mpmath.diag([mpmath.mpf(float(x)) for x in w])
                assert mpmath.mnorm(resid, "F") <= 1e-13 * norm


class TestMatPow:
    def test_identity_any_p(self):
        for p in (0.3, 1.0, 2.5, 7.0):
            assert np.allclose(mc.mat_pow(np.eye(3), p), np.eye(3), atol=1e-13)

    def test_diagonal_sqrt(self):
        assert np.allclose(mc.mat_pow(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-13)

    def test_square_vs_direct_multiplication(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        direct = a @ a
        assert np.allclose(mc.mat_pow(a, 2), direct, rtol=1e-11)
        assert np.allclose(direct, [[5, 4], [4, 5]])

    def test_cube_vs_direct(self):
        s = rand_psd(11, 4)
        assert np.allclose(mc.mat_pow(s, 3), s @ s @ s, rtol=1e-11, atol=1e-13)

    def test_pow_one_is_identity_map(self):
        s = rand_psd(3, 5)
        assert np.allclose(mc.mat_pow(s, 1.0), s, atol=1e-13)

    # Cubing floors eigenvalues below eps*||S^3||, so binary64 cannot round-trip
    # p=3 above condition ~4e3 regardless of eigensolver (numpy's LAPACK path
    # hits the same wall); the cube case is exercised in its attainable regime.
    @pytest.mark.parametrize("p,max_cond", [(0.5, 1e6), (2.0, 1e6), (3.0, 1e3)])
    def test_power_roundtrip(self, p, max_cond):
        rng = np.random.default_rng(17)
        for seed in range(10):
            dim = 4
            half = np.sqrt(max_cond)
            lam = np.exp(rng.uniform(np.log(1 / half), np.log(half), dim))
            lam[0], lam[-1] = 1 / half, half  # pin the full condition number
            g = rand_complex(seed, dim, dim)
            q, _ = np.linalg.qr(g)
            s = (q * lam) @ q.conj().T
            s = (s + s.conj().T) / 2
            back = mc.mat_pow(mc.mat_pow(s, p), 1.0 / p)
            assert np.linalg.norm(back - s) <= 1e-9 * np.linalg.norm(s)

    def test_zero_eigenvalue_convention(self):
        s = np.diag([0.0, 4.0])
        assert np.allclose(mc.mat_pow(s, 0.5), np.diag([0.0, 2.0]), atol=1e-13)

    def test_clamps_tiny_negatives(self):
        s = np.diag([-1e-14, 1.0])
        out = mc.mat_pow(s, 0.5)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            mc.mat_pow(np.diag([-1.0, 1.0]), 0.5)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_exponent(self, p):
        with pytest.raises(InvalidExponent):
            mc.mat_pow(np.eye(2), p)


class TestMatInvPow:
    """T^{-p} for PD T through eig_pow_pd: flag_pd and stack_pow, the code
    Gamma uses, on a stack of one."""

    @staticmethod
    def inv_pow(t, p):
        return mc.eig_pow_pd(mc.herm_eig(t), -p)

    def test_scalar(self):
        assert np.allclose(self.inv_pow(np.array([[2.0]]), 1.0), [[0.5]])

    def test_identity(self):
        assert np.allclose(self.inv_pow(np.eye(3), 1.7), np.eye(3), atol=1e-13)

    def test_diagonal(self):
        out = self.inv_pow(np.diag([4.0, 16.0]), 0.5)
        assert np.allclose(out, np.diag([0.5, 0.25]), atol=1e-13)

    def test_inverse_roundtrip(self):
        for seed in range(8):
            t = rand_psd(seed, 3) + 0.5 * np.eye(3)
            for p in (0.5, 1.0, 2.0):
                prod = self.inv_pow(t, p) @ mc.mat_pow(t, p)
                assert np.linalg.norm(prod - np.eye(3)) <= 1e-10

    def test_singular(self):
        with pytest.raises(Singular):
            self.inv_pow(np.diag([0.0, 1.0]), 1.0)


class TestAbsOp:
    """|H|, the absolute value of (Gamma+Gamma*)/2 for Hermitian Gamma = H."""

    @staticmethod
    def abs_op(h):
        return lhs_values(np.asarray(h, dtype=complex)).half_abs

    def test_sign_flip(self):
        assert np.allclose(self.abs_op(np.diag([-3.0, 2.0])), np.diag([3.0, 2.0]), atol=1e-13)

    def test_psd_unchanged(self):
        s = rand_psd(2, 4)
        assert np.allclose(self.abs_op(s), s, atol=1e-12)

    def test_off_diagonal(self):
        out = self.abs_op([[0.0, 2.0], [2.0, 0.0]])
        assert np.allclose(out, 2 * np.eye(2), atol=1e-12)

    def test_square_and_commutation(self):
        h = rand_herm(9, 5)
        a = self.abs_op(h)
        assert np.linalg.norm(a @ a - h @ h) <= 1e-11 * max(1.0, np.linalg.norm(h @ h))
        assert np.linalg.norm(a @ h - h @ a) <= 1e-11 * max(1.0, np.linalg.norm(h))
        assert mc.herm_eig(a).eigenvalues[0] >= -1e-13


class TestOpNorm:
    def test_hermitian_case(self):
        assert mc.op_norm(np.diag([1.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_nilpotent_jordan_block(self):
        assert mc.op_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert mc.op_norm(np.zeros((3, 3))) == 0.0

    def test_vs_numpy(self):
        for seed in range(20):
            x = rand_complex(seed, 4, 4)
            assert mc.op_norm(x) == pytest.approx(np.linalg.norm(x, 2), rel=1e-11)

    @pytest.mark.parametrize("dim", [2, 3])  # closed form, LAPACK
    def test_overflowing_gram_matrix_raises(self, dim):
        for x in (np.full((dim, dim), 1e200), 1e200 * np.eye(dim)):
            with np.errstate(all="ignore"), pytest.raises(ValueError):
                mc.op_norm(x)

    def test_submultiplicative(self):
        for seed in range(50):
            x = rand_complex(seed, 3, 3)
            y = rand_complex(seed + 1000, 3, 3)
            assert mc.op_norm(x @ y) <= mc.op_norm(x) * mc.op_norm(y) * (1 + 1e-12)


class TestJson:
    def test_roundtrip_bit_identical(self):
        x = rand_complex(8, 3, 2)
        blob = json.dumps(mc.matrix_to_json(x))
        back = mc.matrix_from_json(json.loads(blob))
        assert np.array_equal(back, x)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            mc.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
