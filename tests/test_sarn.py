import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ummaso import dataset as ds
from ummaso import pipeline as pl
from ummaso.errors import NumericalError
from ummaso.sarn import conv as cv
from ummaso.sarn import network as nw


def tiny_settings(dropout=0.0, reg=0.01, mask_len=None, head=nw.DKL_HEAD):
    return nw.SarnSettings(
        kernel_size=3,
        channels=4,
        rank=2,
        hidden=8,
        dropout_rate=dropout,
        reg_lambda=reg,
        label_smoothing=0.05,
        mask_len=mask_len,
        loss_head=head,
    )


def tiny_model(seed=7, width=8, classes=3, **settings):
    return nw.init_model(width, classes, tiny_settings(**settings), seed=seed)


def dkl_loss_of(model, X, y, settings):
    cache = nw._forward(model, X)
    targets = nw.smooth_labels(y, model.n_classes, settings.label_smoothing)
    return nw.loss(
        targets, cache["probs"], model.head_params().values(), settings.reg_lambda
    )


def keepdims_softmax(z, axis):
    """The softmax reduced over `axis` where it lies, as a reference."""
    ez = np.exp(z - z.max(axis=axis, keepdims=True))
    return ez / ez.sum(axis=axis, keepdims=True)


@st.composite
def softmax_cases(draw):
    """(logits, axis): 1-D, 2-D along axis 0, 1 or -1, or 3-D along axis 1,
    with -inf entries but a finite one in every slice along the axis."""
    ndim, axis = draw(st.sampled_from([(1, -1), (2, 0), (2, 1), (2, -1), (3, 1)]))
    shape = draw(st.tuples(*[st.integers(1, 12)] * ndim))
    z = draw(hnp.arrays(np.float64, shape, elements=st.floats(-50, 50) | st.just(-np.inf)))
    slices = np.moveaxis(z, axis, 0)
    keep = draw(st.integers(0, shape[axis] - 1))
    slices[keep, ...][np.isneginf(slices).all(axis=0)] = 0.0
    return z, axis


class TestStableSoftmax:
    @given(softmax_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reduction_in_place(self, case):
        """Summing whole rows adds each slice's terms in numpy's order for a
        short axis, so up to 7 entries the bits are the reference's; from 8
        on numpy sums a contiguous axis pairwise."""
        z, axis = case
        got, expect = nw.stable_softmax(z, axis), keepdims_softmax(z, axis)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        # C-ordered as the reference is: a matrix product of it rounds by layout
        assert got.flags.c_contiguous
        if z.shape[axis] <= 7:
            np.testing.assert_array_equal(got, expect)
        else:
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got[np.isneginf(z)], 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            nw.stable_softmax(z + 123.0, axis=1), nw.stable_softmax(z, axis=1), atol=1e-15
        )

    def test_large_logit_saturates(self):
        probs = nw.stable_softmax(np.array([500.0, 0.0, 0.0]))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_property(self, logits, shift):
        z = np.asarray(logits)
        np.testing.assert_allclose(
            nw.stable_softmax(z + shift), nw.stable_softmax(z), atol=1e-12
        )

    def test_rows_normalize(self):
        rng = np.random.default_rng(1)
        probs = nw.stable_softmax(rng.normal(size=(10, 6)), axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0)


def sparse_attention_oracle(H, model):
    """Per-sample attention: score, mask, softmax, gate (evaluation mode)."""
    G = np.concatenate([H, np.broadcast_to(model.h_t, H.shape)], axis=1)
    pre = (G @ model.w_pw) * model.s_vec
    pre[model.mask_len :] = -np.inf
    weights = nw.stable_softmax(pre)
    return weights[:, None] * H, weights


def output_head_oracle(gated, w_out, v_out):
    """Per-sample output head: flatten, tanh layer, linear layer, softmax."""
    return nw.stable_softmax(np.tanh(gated.reshape(-1) @ w_out) @ v_out)


def attention_weights(model, seed, *drop):
    X = np.random.default_rng(seed).normal(size=(2, model.feature_width))
    return nw._forward(model, X, *drop)["weights"]


class TestSparseAttention:
    def test_single_unmasked_position_takes_all_weight(self):
        model = tiny_model(mask_len=1)
        cache = nw._forward(model, np.random.default_rng(2).normal(size=(2, 8)))
        np.testing.assert_array_equal(cache["weights"][:, 0], 1.0)
        np.testing.assert_array_equal(cache["weights"][:, 1:], 0.0)
        np.testing.assert_array_equal(cache["gated"][:, 1:], 0.0)

    def test_uniform_scores_give_uniform_weights(self):
        model = tiny_model()
        model.w_pw[:] = 0.0  # every position scores 0
        weights = attention_weights(model, 3)
        np.testing.assert_allclose(weights, 1.0 / model.positions, atol=1e-12)

    def test_masked_positions_get_exactly_zero(self):
        model = tiny_model(mask_len=3)
        weights = attention_weights(model, 4)
        np.testing.assert_array_equal(weights[:, 3:], 0.0)
        np.testing.assert_allclose(weights[:, :3].sum(axis=1), 1.0)

    def test_dropout_seeded_and_training_only(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        mask_a, mask_b = rng.random((2, 2, model.positions)) < 0.5
        assert mask_a.any() and not np.array_equal(mask_a, mask_b)
        evaluation = attention_weights(model, 6)
        # a mask at rate 0 is the evaluation pass
        np.testing.assert_array_equal(attention_weights(model, 6, mask_a, 0.0), evaluation)
        train_a = attention_weights(model, 6, mask_a, 0.5)
        np.testing.assert_array_equal(train_a, attention_weights(model, 6, mask_a, 0.5))
        assert not np.array_equal(train_a, evaluation)
        assert not np.array_equal(train_a, attention_weights(model, 6, mask_b, 0.5))

    def test_zero_mask_len_rejected(self):
        with pytest.raises(ValueError):
            tiny_model(mask_len=0)


class TestModelShape:
    def test_positions_and_width_come_from_the_arrays(self):
        model = tiny_model(width=7)
        assert model.positions == model.s_vec.size == 5
        assert model.feature_width == 7

    def test_rank_bound_uses_patch_size(self):
        # a 1 x 3 kernel has 3 entries, below the 4 channels
        with pytest.raises(ValueError, match="rank"):
            nw.SarnSettings(kernel_size=3, channels=4, rank=4)

    def test_width_must_fit_kernel(self):
        with pytest.raises(ValueError):
            tiny_model(width=2)


class TestForwardConsistency:
    def test_public_ops_agree_with_batched_forward(self):
        model = tiny_model(mask_len=4)
        rng = np.random.default_rng(30)
        X = rng.normal(size=(3, 8))
        cache = nw._forward(model, X)
        for r in range(3):
            gated, weights = sparse_attention_oracle(cache["H"][r], model)
            np.testing.assert_array_equal(weights, cache["weights"][r])
            np.testing.assert_array_equal(gated, cache["gated"][r])
            probs = output_head_oracle(gated, model.w_out, model.v_out)
            np.testing.assert_allclose(probs, cache["probs"][r], atol=1e-15)

    @pytest.mark.parametrize("rows", [1, 32, 1000])
    def test_scores_are_the_product_with_the_target_row_appended(self, rows):
        model = tiny_model(seed=9, mask_len=4)
        cache = nw._forward(model, np.random.default_rng(rows).normal(size=(rows, 8)))
        H = cache["H"]
        G = np.concatenate([H, np.broadcast_to(model.h_t, H.shape)], axis=2)
        # relative to the size of the terms each score sums
        error = np.abs(cache["A"] - G @ model.w_pw)
        assert np.all(error <= 1e-14 * (np.abs(G) @ np.abs(model.w_pw)))


    @pytest.mark.parametrize(
        "kernel_size, channels, rank, mask_len, prune",
        [(3, 4, 2, None, False), (1, 3, 1, None, False), (4, 6, 4, None, False),
         (2, 5, 2, 3, False), (3, 8, 3, 2, True)],
    )
    def test_convolution_matches_sparse_forward_reference(
        self, kernel_size, channels, rank, mask_len, prune
    ):
        settings = nw.SarnSettings(
            kernel_size=kernel_size, channels=channels, rank=rank, mask_len=mask_len
        )
        model = nw.init_model(9, 3, settings, seed=kernel_size + channels)
        if prune:
            model.S[np.abs(model.S) < np.median(np.abs(model.S))] = 0.0
            assert np.any(model.S == 0.0)
        if mask_len is not None:
            assert model.mask_len < model.positions
        X = np.random.default_rng(31).normal(size=(4, 9))
        fk = cv.FactorizedKernel(model.P, model.S, model.Q)
        H = nw._forward(model, X)["H"]
        for b in range(X.shape[0]):
            expect = cv.sparse_forward(X[b].reshape(1, 9, 1), fk)
            np.testing.assert_allclose(
                H[b], expect.reshape(model.positions, channels), rtol=0, atol=1e-12
            )


class TestOutputHead:
    def test_zero_final_layer_gives_uniform(self):
        model = tiny_model()
        model.v_out[:] = 0.0
        probs = nw._forward(model, np.random.default_rng(6).normal(size=(2, 8)))["probs"]
        np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_probabilities_normalize(self):
        model = tiny_model()
        probs = nw._forward(model, np.random.default_rng(7).normal(size=(4, 8)))["probs"]
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            nw._forward(tiny_model(), np.zeros((2, 3)))


class TestDivergences:
    def test_kl_identical(self):
        y = np.array([0.2, 0.3, 0.5])
        assert nw.kl(y, y) == 0.0

    def test_kl_hand_values(self):
        assert nw.kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )
        expect = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert nw.kl(np.array([0.5, 0.5]), np.array([0.25, 0.75])) == pytest.approx(
            expect, abs=1e-12
        )

    def test_kl_length_mismatch(self):
        with pytest.raises(ValueError):
            nw.kl(np.zeros(2), np.zeros(3))

    def test_dkl_zero_iff_equal(self):
        y = np.array([0.1, 0.6, 0.3])
        assert nw.dkl(y, y) == 0.0
        assert nw.dkl(y, np.array([0.3, 0.4, 0.3])) > 0.0

    def test_dkl_symmetric_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert nw.dkl(p, q) == nw.dkl(q, p)

    def test_dkl_smoothed_hand_case(self):
        y = np.array([0.95, 0.05])
        yp = np.array([0.5, 0.5])
        expect = 0.5 * nw.kl(y, yp) + 0.5 * nw.kl(yp, y)
        assert nw.dkl(y, yp) == pytest.approx(expect, abs=1e-15)


class TestLoss:
    def test_perfect_predictions_no_penalty(self):
        y = np.array([[0.9, 0.05, 0.05], [0.1, 0.85, 0.05]])
        assert nw.loss(y, y.copy(), [], 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_parameters_zero_penalty(self):
        y = np.array([[0.6, 0.4]])
        yp = np.array([[0.5, 0.5]])
        base = nw.loss(y, yp, [], 0.0)
        assert nw.loss(y, yp, [np.zeros(5)], 123.0) == pytest.approx(base)

    def test_penalty_linear_in_lambda(self):
        y = np.array([[0.6, 0.4]])
        yp = np.array([[0.5, 0.5]])
        params = [np.array([1.0, -2.0])]
        data = nw.loss(y, yp, params, 0.0)
        p1 = nw.loss(y, yp, params, 0.1) - data
        p2 = nw.loss(y, yp, params, 0.2) - data
        assert p2 == pytest.approx(2.0 * p1)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            nw.loss(np.zeros((0, 3)), np.zeros((0, 3)), [], 0.0)


class TestSoftmaxRegression:
    def test_zero_parameters_give_uniform(self):
        probs = nw.softmax_reg_forward(np.array([1.0, -2.0]), np.zeros((4, 3)))
        np.testing.assert_allclose(probs, 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        theta = rng.normal(size=(3, 5))
        x = rng.normal(size=4)
        shifted = theta + rng.normal(size=5)  # same vector added to every row
        np.testing.assert_allclose(
            nw.softmax_reg_forward(x, shifted), nw.softmax_reg_forward(x, theta), atol=1e-12
        )

    def test_two_class_reduces_to_sigmoid(self):
        rng = np.random.default_rng(10)
        theta = rng.normal(size=(2, 4))
        x = rng.normal(size=3)
        xa = np.append(x, 1.0)
        probs = nw.softmax_reg_forward(x, theta)
        sigmoid = 1.0 / (1.0 + np.exp(-(theta[0] - theta[1]) @ xa))
        assert probs[0] == pytest.approx(sigmoid, abs=1e-12)

    def test_zero_theta_cost_is_log_c(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        cost = nw.softmax_reg_cost(X, y, np.zeros((3, 5)), 0.0)
        assert cost == pytest.approx(np.log(3.0), abs=1e-12)

    def test_perfect_predictions_cost_near_zero(self):
        X = np.array([[10.0], [-10.0]])
        theta = np.array([[5.0, 0.0], [-5.0, 0.0]])
        cost = nw.softmax_reg_cost(X, np.array([0, 1]), theta, 0.0)
        assert cost < 1e-12

    def test_weight_decay_strictly_increases_cost(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10)
        theta = rng.normal(size=(2, 4))
        theta[:, -1] = 0.0
        assert nw.softmax_reg_cost(X, y, theta, 0.5) > nw.softmax_reg_cost(X, y, theta, 0.0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            nw.softmax_reg_forward(np.zeros(3), np.zeros((2, 3)))


def assert_central_differences(model, grads, loss_of, stride=lambda size: 1):
    """Each entry of `grads` at the given stride matches the central
    difference of `loss_of()` in the same entry of `model`'s array."""
    h = 1e-5
    for name, grad in grads.items():
        flat = getattr(model, name).reshape(-1)
        for idx in range(0, flat.size, stride(flat.size)):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_of()
            flat[idx] = orig - h
            down = loss_of()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            ga = grad.reshape(-1)[idx]
            assert abs(ga - fd) <= 1e-4 * max(1e-5, abs(ga), abs(fd)) + 1e-9, (name, idx)


class TestGradients:
    def test_dkl_head_matches_finite_differences(self):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(4, 8))
        y = rng.integers(0, 3, size=4)
        settings = tiny_settings()
        _, grads = nw.gradients(model, X, y, settings)
        assert_central_differences(
            model, grads, lambda: dkl_loss_of(model, X, y, settings),
            stride=lambda size: max(1, size // 8),
        )

    def test_dkl_head_matches_finite_differences_under_dropout(self):
        settings = tiny_settings(dropout=0.4, mask_len=4)
        model = nw.init_model(8, 3, settings, seed=5)
        assert model.mask_len < model.positions
        rng = np.random.default_rng(17)
        X = rng.normal(size=(4, 8))
        y = rng.integers(0, 3, size=4)
        mask = rng.random((4, model.mask_len)) < settings.dropout_rate
        assert mask.any() and not mask.all(axis=1).any()
        _, grads = nw.gradients(model, X, y, settings, mask)
        targets = nw.smooth_labels(y, model.n_classes, settings.label_smoothing)

        def loss_with_dropout():
            probs = nw._forward(model, X, mask, settings.dropout_rate)["probs"]
            return nw.loss(targets, probs, model.head_params().values(), settings.reg_lambda)

        assert_central_differences(model, grads, loss_with_dropout)

    def test_masked_scale_positions_have_zero_gradient(self):
        model = tiny_model(mask_len=2)
        rng = np.random.default_rng(14)
        X = rng.normal(size=(3, 8))
        y = rng.integers(0, 3, size=3)
        settings = tiny_settings(mask_len=2)
        _, grads = nw.gradients(model, X, y, settings)
        # beyond the mask only the L2 term contributes
        np.testing.assert_allclose(
            grads["s_vec"][2:], settings.reg_lambda * model.s_vec[2:], atol=1e-15
        )

    def test_softmax_reg_zero_input_closed_form(self):
        settings = tiny_settings(reg=0.0, head=nw.SOFTMAX_REG)
        model = nw.init_model(8, 3, settings, seed=7)
        X = np.zeros((3, 8))
        y = np.array([0, 1, 2])
        _, grads = nw.gradients(model, X, y, settings)
        grad = grads["theta"]
        np.testing.assert_array_equal(grad[:, :-1], 0.0)
        # bias column: mean over batch of (uniform - one-hot)
        expect = np.mean(np.full((3, 3), 1.0 / 3.0) - np.eye(3), axis=0)
        np.testing.assert_allclose(grad[:, -1], expect, atol=1e-15)

    def test_weight_decay_gradient_is_exactly_lambda_theta(self):
        settings = tiny_settings(reg=0.0, head=nw.SOFTMAX_REG)
        model = nw.init_model(8, 3, settings, seed=7)
        rng = np.random.default_rng(15)
        model.theta = rng.normal(size=model.theta.shape)
        X = rng.normal(size=(6, 8))
        y = rng.integers(0, 3, size=6)
        _, base = nw.gradients(model, X, y, settings)
        _, decayed = nw.gradients(model, X, y, replace(settings, reg_lambda=0.25))
        penalty = 0.25 * model.theta
        penalty[:, -1] = 0.0
        np.testing.assert_array_equal(decayed["theta"], base["theta"] + penalty)

    def test_fixed_dropout_mask_is_honored(self):
        settings = tiny_settings(dropout=0.4)
        model = nw.init_model(8, 3, settings, seed=7)
        rng = np.random.default_rng(16)
        X = rng.normal(size=(2, 8))
        y = np.array([0, 1])
        mask = rng.random((2, model.positions)) < 0.4
        a = nw.gradients(model, X, y, settings, mask)
        b = nw.gradients(model, X, y, settings, mask)
        assert a[0] == b[0]
        for name in a[1]:
            np.testing.assert_array_equal(a[1][name], b[1][name])


def separable_three_class(n_per=40, seed=17):
    rng = np.random.default_rng(seed)
    centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
    X = np.vstack([c + 0.3 * rng.normal(size=(n_per, 3)) for c in centers])
    y = np.repeat(np.arange(3), n_per)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return X, y


class TestTrain:
    def test_zero_epochs_returns_init_unchanged(self):
        model = tiny_model()
        data = (np.zeros((6, 8)), np.zeros(6, dtype=int))
        out, history = nw.train(data, data, model, nw.SarnSettings(epochs=0), seed=0)
        assert len(history) == 0
        for name in nw.DKL_PARAMS:
            np.testing.assert_array_equal(getattr(out, name), getattr(model, name))

    def test_learns_separable_data_with_dkl_head(self):
        X, y = separable_three_class()
        settings = nw.SarnSettings(
            kernel_size=2, channels=4, rank=2, hidden=8, dropout_rate=0.0, reg_lambda=1e-4
        )
        model = nw.init_model(3, 3, settings, seed=5)
        cfg = replace(settings, epochs=120, learning_rate=0.2, batch_size=16)
        trained, history = nw.train((X, y), (X, y), model, cfg, seed=6)
        assert history.train_accuracy[-1] >= 0.95
        assert history.train_loss[9] < history.train_loss[0]

    def test_learns_separable_data_with_softmax_head(self):
        X, y = separable_three_class(seed=18)
        cfg = nw.SarnSettings(epochs=200, learning_rate=0.5, batch_size=16,
                              loss_head=nw.SOFTMAX_REG)
        model = nw.init_model(3, 3, cfg, seed=5)
        trained, history = nw.train((X, y), (X, y), model, cfg, seed=6)
        assert history.train_accuracy[-1] >= 0.95

    @pytest.mark.parametrize("head", [nw.DKL_HEAD, nw.SOFTMAX_REG])
    def test_mismatched_head_raises_naming_both(self, head):
        other = nw.SOFTMAX_REG if head == nw.DKL_HEAD else nw.DKL_HEAD
        model = nw.init_model(8, 3, tiny_settings(head=head), seed=7)
        data = (np.zeros((6, 8)), np.zeros(6, dtype=int))
        with pytest.raises(ValueError, match=f"'{other}' cannot train a '{head}' model"):
            nw.train(data, data, model, tiny_settings(head=other), seed=0)

    def test_deterministic_history(self):
        X, y = separable_three_class(seed=19)
        settings = nw.SarnSettings(
            kernel_size=2, channels=4, rank=2, hidden=8, dropout_rate=0.2
        )
        model = nw.init_model(3, 3, settings, seed=5)
        cfg = replace(settings, epochs=15, learning_rate=0.1, batch_size=8)
        _, h1 = nw.train((X, y), (X, y), model, cfg, seed=42)
        _, h2 = nw.train((X, y), (X, y), model, cfg, seed=42)
        np.testing.assert_array_equal(h1.train_loss, h2.train_loss)
        np.testing.assert_array_equal(h1.val_accuracy, h2.val_accuracy)

    def test_predict_reproduces_final_history_accuracy(self):
        X, y = separable_three_class(seed=20)
        settings = nw.SarnSettings(
            kernel_size=2, channels=4, rank=2, hidden=8, dropout_rate=0.1
        )
        model = nw.init_model(3, 3, settings, seed=5)
        cfg = replace(settings, epochs=25, learning_rate=0.1, batch_size=16)
        trained, history = nw.train((X, y), (X, y), model, cfg, seed=3)
        _, labels = nw.predict(trained, X)
        assert float(np.mean(labels == y)) == history.train_accuracy[-1]

    def test_non_finite_loss_aborts(self):
        X, y = separable_three_class(seed=22)
        model = nw.init_model(
            3, 3, nw.SarnSettings(kernel_size=2, channels=4, rank=2, hidden=8), seed=5
        )
        model.w_out[0, 0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"non-finite loss at epoch 0, batch 0"
        ):
            nw.train((X, y), (X, y), model,
                     nw.SarnSettings(epochs=1, learning_rate=0.1, batch_size=16), seed=0)

    def test_overflowing_penalty_of_finite_parameters_aborts(self):
        # the forward pass stays finite (tanh saturates), but the squares of
        # w_out overflow, so the first step's loss is infinite
        settings = replace(tiny_settings(), epochs=1, batch_size=4)
        model = nw.init_model(6, 3, settings, seed=7)
        model.w_out[...] = 1e200
        rng = np.random.default_rng(25)
        X, y = rng.normal(size=(12, 6)), rng.integers(0, 3, size=12)
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"non-finite loss at epoch 0, batch 0"
        ):
            nw.train((X, y), (X, y), model, settings, seed=0)

    def test_large_finite_penalty_trains(self):
        # 0.5 * 0.01 * 128 * (1e151)^2 = 6.4e301: finite, but close enough to
        # overflow that each step's finiteness check takes its exact path
        settings = replace(tiny_settings(), epochs=2, batch_size=4)
        model = nw.init_model(6, 3, settings, seed=7)
        model.w_out[...] = 1e151
        rng = np.random.default_rng(25)
        X, y = rng.normal(size=(12, 6)), rng.integers(0, 3, size=12)
        _, history = nw.train((X, y), (X, y), model, settings, seed=0)
        assert np.isfinite(history.train_loss).all()
        assert history.train_loss.min() > 1e300

    @pytest.mark.parametrize("head", [nw.DKL_HEAD, nw.SOFTMAX_REG])
    def test_one_step_subtracts_the_public_gradients(self, head):
        settings = replace(tiny_settings(head=head), epochs=1, learning_rate=0.3, batch_size=16)
        model = nw.init_model(8, 3, settings, seed=7)
        rng = np.random.default_rng(26)
        if head == nw.SOFTMAX_REG:
            model.theta = rng.normal(size=model.theta.shape)
        X, y = rng.normal(size=(10, 8)), rng.integers(0, 3, size=10)
        # one batch of every row, in the order of train's first permutation
        order = np.random.default_rng(5).permutation(10)
        _, grads = nw.gradients(model, X[order], y[order], settings)
        trained, _ = nw.train((X, y), (X, y), model, settings, seed=5)
        for name, param in model.head_params().items():
            np.testing.assert_array_equal(
                getattr(trained, name), param - settings.learning_rate * grads[name], name
            )

    @pytest.mark.parametrize("head", [nw.DKL_HEAD, nw.SOFTMAX_REG])
    def test_public_losses_are_the_training_objective(self, head):
        settings = replace(tiny_settings(head=head), epochs=3, learning_rate=0.3, batch_size=4)
        model = nw.init_model(8, 3, settings, seed=7)
        rng = np.random.default_rng(27)
        if head == nw.SOFTMAX_REG:
            model.theta = rng.normal(size=model.theta.shape)
        X, y = rng.normal(size=(10, 8)), rng.integers(0, 3, size=10)
        X_val, y_val = rng.normal(size=(6, 8)), rng.integers(0, 3, size=6)
        lam = settings.reg_lambda

        def public_loss(m, X, y):
            if head == nw.SOFTMAX_REG:
                return nw.softmax_reg_cost(X, y, m.theta, lam)
            targets = nw.smooth_labels(y, m.n_classes, settings.label_smoothing)
            return nw.loss(targets, nw.predict(m, X)[0], m.head_params().values(), lam)

        assert nw.gradients(model, X, y, settings)[0] == public_loss(model, X, y)
        trained, history = nw.train((X, y), (X_val, y_val), model, settings, seed=5)
        assert history.val_loss[-1] == public_loss(trained, X_val, y_val)


class TestPredict:
    def test_rows_normalize_and_duplicates_agree(self):
        model = tiny_model()
        rng = np.random.default_rng(23)
        row = rng.normal(size=8)
        X = np.vstack([row, row, rng.normal(size=8)])
        probs, labels = nw.predict(model, X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(probs[0], probs[1])
        assert labels[0] == labels[1]

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            nw.predict(tiny_model(), np.zeros((2, 5)))

    def test_argmax_tie_breaks_low_index(self):
        # the initial zero theta gives exactly uniform rows
        model = nw.init_model(8, 3, tiny_settings(head=nw.SOFTMAX_REG), seed=7)
        probs, labels = nw.predict(model, np.zeros((2, 8)))
        np.testing.assert_array_equal(labels, 0)


class TestSerialization:
    """What the record codec tests leave out: the file of each head, as
    `pipeline.save_artifacts` writes it, and the reloaded model's output."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        X, y = separable_three_class(seed=24)
        for head, arrays in ((nw.DKL_HEAD, nw.DKL_PARAMS), (nw.SOFTMAX_REG, ("theta",))):
            settings = nw.SarnSettings(
                kernel_size=2, channels=4, rank=2, hidden=8, epochs=3, batch_size=16,
                loss_head=head,
            )
            model = nw.init_model(3, 3, settings, seed=5)
            trained, _ = nw.train((X, y), (X, y), model, settings, seed=1)
            path = str(tmp_path / f"{head}.json")
            ds.write_json(path, ds.record_to_json(trained))
            # each head stores its own arrays only: no theta beside the DKL
            # network, nothing but theta for softmax_reg
            scalars = ["mask_len"] if head == nw.DKL_HEAD else []
            assert sorted(json.loads(open(path).read())) == sorted([*arrays, *scalars])
            back = ds.record_from_json(type(trained), ds.read_json(path))
            probs_a, _ = nw.predict(trained, X)
            probs_b, _ = nw.predict(back, X)
            np.testing.assert_array_equal(probs_a, probs_b)


DATA_DIR = Path(__file__).parent / "data"
# dkl_head: attention dropout and a mask shorter than the 3 positions
GOLDEN_SETTINGS = {
    nw.DKL_HEAD: nw.SarnSettings(
        kernel_size=3, channels=4, rank=2, hidden=6, dropout_rate=0.3, mask_len=2,
        epochs=6, learning_rate=0.1, batch_size=8,
    ),
    nw.SOFTMAX_REG: nw.SarnSettings(
        epochs=6, learning_rate=0.1, batch_size=8, reg_lambda=0.01, loss_head=nw.SOFTMAX_REG
    ),
}


def write_golden_fit(head: str, out_dir: Path) -> None:
    """Train `head` on the five measured features of lasso_select.csv (even
    rows train, odd rows validate, standardized by the training rows) and
    write model.json and history.csv as `pipeline.save_artifacts` does."""
    header, rows = ds.read_table(str(DATA_DIR / "lasso_select.csv"))
    table = ds.float_columns("lasso_select.csv", header, rows, ["N", "P", "K", "pH", "EC"])
    labels = ds.float_columns("lasso_select.csv", header, rows, ["fertility"])[:, 0]
    labels = labels.astype(np.int64)
    X = (table - table[::2].mean(axis=0)) / table[::2].std(axis=0)
    settings = GOLDEN_SETTINGS[head]
    model = nw.init_model(X.shape[1], 3, settings, seed=3)
    trained, h = nw.train(
        (X[::2], labels[::2]), (X[1::2], labels[1::2]), model, settings, seed=4
    )
    ds.write_json(str(out_dir / f"sarn_{head}_model.json"), ds.record_to_json(trained))
    columns = (h.train_loss, h.train_accuracy, h.val_loss, h.val_accuracy)
    ds.write_table(
        str(out_dir / f"sarn_{head}_history.csv"), pl.HISTORY_COLUMNS,
        zip(range(len(h)), *columns),
    )


class TestGoldenBytes:
    """The stored files lock the arithmetic of SARN training: a change to
    the order of its floating-point operations changes their bytes. They
    were written with numpy 2.4 on OpenBLAS 0.3.31; another BLAS build may
    round its matrix products differently. A deliberate change rewrites a
    head's pair from the repository root with

        PYTHONPATH=src:tests python -c "import test_sarn as t; t.write_golden_fit('dkl_head', t.DATA_DIR)"
    """

    @pytest.mark.parametrize("head", [nw.DKL_HEAD, nw.SOFTMAX_REG])
    def test_training_writes_the_stored_bytes(self, head, tmp_path):
        write_golden_fit(head, tmp_path)
        for kind in ("model.json", "history.csv"):
            name = f"sarn_{head}_{kind}"
            assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name
