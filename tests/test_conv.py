import numpy as np
import pytest

from ummaso.sarn import conv as cv


class TestDirectConv:
    def test_pointwise_identity_kernel(self):
        rng = np.random.default_rng(0)
        I = rng.normal(size=(4, 5, 3))
        K = np.zeros((1, 1, 3, 3))
        for c in range(3):
            K[0, 0, c, c] = 1.0
        np.testing.assert_allclose(cv.direct_conv(I, K), I)

    def test_all_ones_hand_convolution(self):
        out = cv.direct_conv(np.ones((3, 3, 1)), np.ones((2, 2, 1, 1)))
        np.testing.assert_array_equal(out, np.full((2, 2, 1), 4.0))

    def test_zero_kernel(self):
        rng = np.random.default_rng(1)
        out = cv.direct_conv(rng.normal(size=(5, 5, 2)), np.zeros((3, 3, 2, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 3, 4)))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="larger"):
            cv.direct_conv(np.zeros((2, 2, 1)), np.zeros((3, 3, 1, 1)))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            cv.direct_conv(np.zeros((4, 4, 2)), np.zeros((2, 2, 3, 1)))


class TestTransforms:
    def test_identity_mixer_is_noop(self):
        rng = np.random.default_rng(2)
        I = rng.normal(size=(3, 4, 5))
        np.testing.assert_allclose(cv.transform_input(I, np.eye(5)), I)

    def test_orthogonal_mixer_preserves_convolution(self):
        rng = np.random.default_rng(3)
        m, n, s = 4, 3, 2
        I = rng.normal(size=(5, 6, m))
        K = rng.normal(size=(s, s, m, n))
        P, _ = np.linalg.qr(rng.normal(size=(m, m)))
        J = cv.transform_input(I, P)
        R = cv.transform_kernel(K, P)
        np.testing.assert_allclose(
            cv.direct_conv(J, R), cv.direct_conv(I, K), atol=1e-10
        )

    def test_scaled_identity_compensates(self):
        rng = np.random.default_rng(4)
        I = rng.normal(size=(4, 4, 2))
        K = rng.normal(size=(2, 2, 2, 3))
        P = 2.0 * np.eye(2)
        J = cv.transform_input(I, P)
        R = cv.transform_kernel(K, P)
        np.testing.assert_allclose(R, K / 2.0)
        np.testing.assert_allclose(cv.direct_conv(J, R), cv.direct_conv(I, K), atol=1e-12)

    def test_bad_mixer_shape(self):
        with pytest.raises(ValueError):
            cv.transform_input(np.zeros((2, 2, 3)), np.eye(2))


class TestTruncatedSvd:
    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(5)
        for shape in [(6, 4), (4, 6), (5, 5), (9, 2)]:
            M = rng.normal(size=shape)
            r = min(shape)
            U, s, Vt = cv.truncated_svd(M, r)
            oracle = np.linalg.svd(M, compute_uv=False)
            np.testing.assert_allclose(s, oracle, atol=1e-10)
            np.testing.assert_allclose(U @ (s[:, None] * Vt), M, atol=1e-10)

    def test_truncation_is_best_approximation(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(7, 5))
        oracle = np.linalg.svd(M, compute_uv=False)
        for r in range(1, 5):
            U, s, Vt = cv.truncated_svd(M, r)
            err = np.linalg.norm(M - U @ (s[:, None] * Vt))
            assert err == pytest.approx(np.sqrt(np.sum(oracle[r:] ** 2)), abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(6, 3))
        a = cv.truncated_svd(M, 2)
        b = cv.truncated_svd(M, 2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_sign_convention(self):
        rng = np.random.default_rng(15)
        for shape, r in [((6, 4), 3), ((4, 6), 4), ((9, 2), 1)]:
            M = rng.normal(size=shape)
            U, s, Vt = cv.truncated_svd(M, r)
            pivots = U[np.argmax(np.abs(U), axis=0), np.arange(r)]
            assert np.all(pivots > 0.0)
            U_neg, s_neg, Vt_neg = cv.truncated_svd(-M, r)
            np.testing.assert_allclose(U_neg, U, atol=1e-12)
            np.testing.assert_allclose(s_neg, s, atol=1e-12)
            np.testing.assert_allclose(Vt_neg, -Vt, atol=1e-12)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            cv.truncated_svd(np.zeros((3, 3)), 0)
        with pytest.raises(ValueError):
            cv.truncated_svd(np.zeros((3, 3)), 4)


class TestFactorizeKernel:
    def test_full_rank_is_exact(self):
        rng = np.random.default_rng(8)
        R = rng.normal(size=(2, 2, 3, 5))
        q1 = min(4, 5)
        S, Q, errors = cv.factorize_kernel(R, q1)
        assert np.max(errors) < 1e-10
        recon = np.einsum("ikj,iuvk->uvij", S, Q)
        np.testing.assert_allclose(recon, R, atol=1e-10)

    def test_rank_one_slice_is_exact_at_q1_one(self):
        rng = np.random.default_rng(9)
        left = rng.normal(size=4)
        right = rng.normal(size=6)
        R = np.outer(left, right).reshape(2, 2, 1, 6)
        _, _, errors = cv.factorize_kernel(R, 1)
        assert errors[0] < 1e-10

    def test_discarded_singular_value_is_the_error(self):
        # Eckart-Young on a planted rank-2 slice, checked against LAPACK
        rng = np.random.default_rng(10)
        M = np.outer(rng.normal(size=4), rng.normal(size=5)) + np.outer(
            rng.normal(size=4), rng.normal(size=5)
        )
        R = M.reshape(2, 2, 1, 5)
        _, _, errors = cv.factorize_kernel(R, 1)
        oracle = np.linalg.svd(M, compute_uv=False)
        assert errors[0] == pytest.approx(oracle[1], abs=1e-10)

    def test_error_non_increasing_in_rank(self):
        rng = np.random.default_rng(11)
        R = rng.normal(size=(3, 3, 2, 6))
        errs = [cv.factorize_kernel(R, q)[2].sum() for q in range(1, 7)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            cv.factorize_kernel(np.zeros((2, 2, 1, 3)), 5)


class TestSparseForward:
    def test_full_rank_matches_direct(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            h = int(rng.integers(s, 8))
            w = int(rng.integers(s, 8))
            I = rng.normal(size=(h, w, m))
            K = rng.normal(size=(s, s, m, n))
            P, _ = np.linalg.qr(rng.normal(size=(m, m)))
            fk = cv.FactorizedKernel.from_kernel(K, P, min(s * s, n))
            np.testing.assert_allclose(
                cv.sparse_forward(I, fk), cv.direct_conv(I, K), atol=1e-6
            )

    def test_zero_mixing_matrices_give_zero(self):
        rng = np.random.default_rng(13)
        I = rng.normal(size=(4, 4, 2))
        K = rng.normal(size=(2, 2, 2, 3))
        fk = cv.FactorizedKernel.from_kernel(K, np.eye(2), 3)
        zeroed = cv.FactorizedKernel(P=fk.P, S=np.zeros_like(fk.S), Q=fk.Q)
        np.testing.assert_array_equal(cv.sparse_forward(I, zeroed), np.zeros((3, 3, 3)))

    def test_tabular_output_width(self):
        rng = np.random.default_rng(14)
        I = rng.normal(size=(1, 9, 1))
        K = rng.normal(size=(1, 4, 1, 2))
        fk = cv.FactorizedKernel.from_kernel(K, np.eye(1), 2)
        assert cv.sparse_forward(I, fk).shape == (1, 6, 2)


class TestCollapse:
    def test_backward_matches_finite_differences_on_multichannel_factors(self):
        # K is linear in each of P, Q and S, so central differences of
        # L = sum(W * K) are exact up to round-off even with a large step
        rng = np.random.default_rng(16)
        for m, s, q1 in [(2, 2, 2), (3, 3, 2), (3, 2, 3)]:
            n = 4
            P = rng.normal(size=(m, m))
            Q = rng.normal(size=(m, s, s, q1))
            S = rng.normal(size=(m, q1, n))
            K = cv.collapse(P, Q, S)
            assert K.shape == (s, s, m, n)
            W = rng.normal(size=K.shape)
            grads = cv.collapse_backward(P, Q, S, W)
            params = (P, Q, S)
            h = 1e-3
            for which, (param, grad) in enumerate(zip(params, grads)):
                assert grad.shape == param.shape
                flat = param.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = np.sum(W * cv.collapse(*params))
                    flat[idx] = orig - h
                    down = np.sum(W * cv.collapse(*params))
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    err = abs(grad.reshape(-1)[idx] - fd)
                    assert err <= 1e-6 * max(1.0, abs(fd)), f"d_{'PQS'[which]}[{idx}]"

    def test_direct_conv_of_collapsed_kernel_matches_sparse_forward(self):
        rng = np.random.default_rng(17)
        for m, s, q1 in [(2, 3, 2), (3, 2, 3), (1, 3, 1)]:
            n = 4
            I = rng.normal(size=(s + 2, s + 3, m))
            fk = cv.FactorizedKernel(
                P=rng.normal(size=(m, m)),
                S=rng.normal(size=(m, q1, n)),
                Q=rng.normal(size=(m, s, s, q1)),
            )
            np.testing.assert_allclose(
                cv.direct_conv(I, cv.collapse(fk.P, fk.Q, fk.S)),
                cv.sparse_forward(I, fk),
                atol=1e-12,
            )
