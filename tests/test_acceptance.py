"""Acceptance suite: one test per release criterion, each enforcing its stated
tolerance and runtime budget and printing a [PASS] line (visible with -s)."""

import json
import os
import time

import numpy as np
import pytest

from ummaso import cli
from ummaso import dataset as ds
from ummaso import lasso as ls
from ummaso import metrics as mt
from ummaso import pipeline as pl
from ummaso import umap as um
from ummaso.sarn import conv as cv
from ummaso.sarn import network as nw


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.seconds}s"
            )


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_sigma_solver():
    with Budget(5.0) as budget:
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(1000):
            k = int(rng.choice([5, 10, 15]))
            row = np.sort(rng.uniform(0.05, 5.0, size=k))
            rho = row[0]
            sigma, converged = um.solve_sigma(row, rho, k)
            if not converged:
                continue
            lhs = np.exp(-np.maximum(0.0, row - rho) / sigma).sum()
            assert abs(lhs - np.log2(k)) < 1e-5
            checked += 1
        assert checked > 900  # random rows are almost always solvable
        sigma, converged = um.solve_sigma(np.array([1.0, 2.0, 2.0, 2.0]), 1.0, 4)
        assert converged
        assert abs(sigma - 1.0 / np.log(3.0)) < 1e-6
    ok(1, f"sigma residual < 1e-5 on {checked} rows, analytic case exact "
          f"({budget.elapsed:.2f}s)")


def test_criterion_02_attractive_gradient_fd():
    with Budget(1.0) as budget:
        rng = np.random.default_rng(102)
        h = 1e-6
        done = 0
        while done < 100:
            yi = rng.normal(size=2) * 1.5
            yj = yi + rng.normal(size=2)
            if np.linalg.norm(yi - yj) < 0.3:
                continue
            v = rng.uniform(0.05, 1.0)

            def attractive_term(y):
                w = um.low_dim_similarity(y, yj, 1.0, 1.0)
                return v * np.log(v / w)

            fd = np.zeros(2)
            for c in range(2):
                step = np.zeros(2)
                step[c] = h
                fd[c] = (attractive_term(yi + step) - attractive_term(yi - step)) / (2 * h)
            got = um.attractive_gradient(yi, yj, v, 1.0, 1.0)
            # the op returns the descent step = negated loss gradient
            assert np.linalg.norm(got + fd) / np.linalg.norm(fd) < 1e-6
            done += 1
    ok(2, f"attractive gradient matches central differences on 100 pairs "
          f"({budget.elapsed:.2f}s)")


def test_criterion_03_umap_cluster_purity():
    with Budget(30.0) as budget:
        centers = np.array(
            [[0.0, 0.0, 0.0, 0.0], [12.0, 0.0, 0.0, 0.0], [0.0, 12.0, 0.0, 0.0]]
        )
        data = ds.synth_generate(
            ds.SynthConfig([100, 100, 100], centers, noise_std=1.0, seed=30)
        )
        std, _ = ds.standardize(data)
        _, emb = um.embed(std.features, um.UmapConfig(k=12, out_dim=2, epochs=200), 31)
        Y = emb.coordinates
        d2 = ((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        purity = float((data.labels[d2.argmin(axis=1)] == data.labels).mean())
        assert purity >= 0.95
    ok(3, f"1-NN purity {purity:.3f} on N=300 embedding ({budget.elapsed:.2f}s)")


def test_criterion_04_lasso_certificates():
    with Budget(10.0) as budget:
        rng = np.random.default_rng(104)
        X = rng.normal(size=(200, 20))
        X -= X.mean(axis=0)
        X /= X.std(axis=0)
        beta_true = np.zeros(20)
        beta_true[:5] = rng.normal(size=5) * 2
        y = X @ beta_true + 0.3 * rng.normal(size=200)

        grid = ls.lambda_grid(X, y - y.mean(), 100)
        path = ls.fit_path(X, y, grid)
        for t, lam in enumerate(grid):
            model = ls.LassoModel(
                intercept=path.intercepts[t], coef=path.coef_matrix[t],
                lam=float(lam), iterations=0, converged=bool(path.converged[t]),
            )
            assert ls.kkt_violation(X, y, model) < 1e-6
        assert path.df[0] == 0
        np.testing.assert_array_equal(path.coef_matrix[0], np.zeros(20))
        np.testing.assert_array_equal(
            ls.fit_lasso(X, y, 2.0 * grid[0]).coef, np.zeros(20)
        )

        ols = ls.fit_lasso(X, y, 0.0)
        A = np.hstack([np.ones((200, 1)), X])
        coef_oracle = np.linalg.lstsq(A, y, rcond=None)[0]
        assert np.abs(ols.coef - coef_oracle[1:]).max() < 1e-4

        raw = rng.normal(size=(80, 6))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        Xo = q * np.sqrt(80)
        yo = Xo @ np.array([1.0, -0.5, 0.0, 2.0, 0.0, -1.5]) + 0.1 * rng.normal(size=80)
        lam = 0.3
        model = ls.fit_lasso(Xo, yo, lam)
        beta_ols = (Xo.T @ (yo - yo.mean())) / 80
        closed_form = np.sign(beta_ols) * np.maximum(0.0, np.abs(beta_ols) - lam)
        assert np.abs(model.coef - closed_form).max() < 1e-8
    ok(4, f"KKT certificate holds on the 100-lambda path, OLS and soft-threshold "
          f"oracles agree ({budget.elapsed:.2f}s)")


def test_criterion_05_sparse_convolution():
    with Budget(10.0) as budget:
        rng = np.random.default_rng(105)
        for _ in range(100):
            s = int(rng.integers(1, 5))
            h = int(rng.integers(s, 9))
            w = int(rng.integers(s, 9))
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            I = rng.normal(size=(h, w, m))
            K = rng.normal(size=(s, s, m, n))
            P, _ = np.linalg.qr(rng.normal(size=(m, m)))
            fk = cv.FactorizedKernel.from_kernel(K, P, min(s * s, n))
            assert np.abs(cv.sparse_forward(I, fk) - cv.direct_conv(I, K)).max() < 1e-6
        for _ in range(20):
            s, m, n = 3, 2, 4
            R = np.zeros((s, s, m, n))
            for i in range(m):
                R[:, :, i, :] = np.outer(rng.normal(size=s * s), rng.normal(size=n)).reshape(s, s, n)
            _, _, errors = cv.factorize_kernel(R, 1)
            assert errors.max() < 1e-10
    ok(5, "factorized forward matches direct convolution on 100 shapes, rank-1 "
          f"kernels exact ({budget.elapsed:.2f}s)")


def test_criterion_06_sarn_gradient_check():
    with Budget(30.0) as budget:
        h = 1e-5
        worst = 0.0
        for seed in (1, 2, 3):
            settings = nw.SarnSettings(
                kernel_size=3, channels=4, rank=2, hidden=8, dropout_rate=0.0, reg_lambda=0.01
            )
            model = nw.init_model(8, 3, settings, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            X = rng.normal(size=(4, 8))
            y = rng.integers(0, 3, size=4)
            _, grads = nw.gradients(model, X, y, settings)

            def loss_now():
                cache = nw._forward(model, X)
                targets = nw.smooth_labels(y, 3, settings.label_smoothing)
                return nw.loss(
                    targets, cache["probs"],
                    model.head_params().values(), settings.reg_lambda,
                )

            for name, grad in grads.items():
                flat = getattr(model, name).reshape(-1)
                gflat = grad.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_now()
                    flat[idx] = orig - h
                    down = loss_now()
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(gflat[idx] - fd) / max(1e-5, abs(gflat[idx]), abs(fd))
                    worst = max(worst, rel)
                    assert rel < 1e-4, f"{name}[{idx}] rel err {rel:.2e}"
        assert worst < 1e-4
    ok(6, f"all-parameter gradient check, worst relative error {worst:.2e} "
          f"({budget.elapsed:.2f}s)")


def test_criterion_07_dkl_properties():
    with Budget(1.0) as budget:
        rng = np.random.default_rng(107)
        P = rng.dirichlet(np.ones(4), size=10_000)
        Q = rng.dirichlet(np.ones(4), size=10_000)
        forward = nw.dkl(P, Q)
        backward = nw.dkl(Q, P)
        np.testing.assert_array_equal(forward, backward)  # symmetry, bitwise
        assert np.all(forward >= 0.0)
        assert np.all(forward[np.any(np.abs(P - Q) > 1e-12, axis=1)] > 0.0)
        same = nw.dkl(P[0], P[0].copy())
        assert same == 0.0
        hand = nw.kl(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(hand - np.log(2.0)) < 1e-12
    ok(7, f"DKL symmetric/non-negative on 10^4 pairs, KL hand value exact "
          f"({budget.elapsed:.2f}s)")


def test_criterion_08_softmax_regression():
    with Budget(10.0) as budget:
        rng = np.random.default_rng(108)
        theta = rng.normal(size=(3, 5))
        x = rng.normal(size=4)
        shift = rng.normal(size=5)
        delta = np.abs(
            nw.softmax_reg_forward(x, theta + shift) - nw.softmax_reg_forward(x, theta)
        ).max()
        assert delta < 1e-12

        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        assert abs(nw.softmax_reg_cost(X, y, np.zeros((3, 5)), 0.0) - np.log(3.0)) < 1e-12

        centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
        Xs = np.vstack([c + 0.3 * rng.normal(size=(60, 3)) for c in centers])
        ys = np.repeat(np.arange(3), 60)
        Xs = (Xs - Xs.mean(axis=0)) / Xs.std(axis=0)
        cfg = nw.SarnSettings(epochs=200, learning_rate=0.5, batch_size=32,
                              loss_head=nw.SOFTMAX_REG)
        model = nw.init_model(3, 3, cfg, seed=0)
        _, history = nw.train((Xs, ys), (Xs, ys), model, cfg, seed=1)
        assert history.train_accuracy[-1] >= 0.95
    ok(8, f"shift invariance <=1e-12, log C cost exact, separable accuracy "
          f"{history.train_accuracy[-1]:.3f} ({budget.elapsed:.2f}s)")


def test_criterion_09_metrics():
    with Budget(2.0) as budget:
        rep = mt.report(np.array([[2, 1], [1, 2]]))
        assert abs(rep.kappa - 1.0 / 3.0) < 1e-12

        rng = np.random.default_rng(109)
        marginal = [0.7, 0.2, 0.1]
        true = rng.choice(3, size=100_000, p=marginal)
        pred = rng.choice(3, size=100_000, p=marginal)
        random_kappa = mt.evaluate(true, pred, 3).kappa
        assert abs(random_kappa) < 0.05

        labels = np.repeat([0, 1, 2], 7)
        perfect = mt.evaluate(labels, labels, 3)
        assert perfect.accuracy == perfect.precision_macro == 1.0
        assert perfect.recall_macro == perfect.kappa == 1.0
    ok(9, f"kappa hand value 1/3 exact, random predictor kappa {random_kappa:+.4f} "
          f"({budget.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def regression_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data_csv = str(root / "soil.csv")
    out_a = str(root / "run_a")
    out_b = str(root / "run_b")
    start = time.perf_counter()
    assert cli.main([
        "generate", "--per-class", "700,200,100", "--out", data_csv, "--seed", "7",
    ]) == 0
    assert cli.main(["fit", "--data", data_csv, "--out", out_a, "--seed", "11"]) == 0
    assert cli.main(["fit", "--data", data_csv, "--out", out_b, "--seed", "11"]) == 0
    elapsed = time.perf_counter() - start
    return data_csv, out_a, out_b, elapsed


def test_criterion_10_end_to_end_regression(regression_run):
    data_csv, out_a, out_b, elapsed = regression_run
    assert elapsed < 180.0, f"two pipeline runs took {elapsed:.1f}s"
    with open(os.path.join(out_a, "metrics.json")) as fh:
        doc = json.load(fh)
    assert doc["accuracy"] >= 0.90
    assert doc["recall_macro"] >= 0.85
    assert doc["kappa"] >= 0.80
    bytes_a = open(os.path.join(out_a, "metrics.json"), "rb").read()
    bytes_b = open(os.path.join(out_b, "metrics.json"), "rb").read()
    assert bytes_a == bytes_b
    ok(10, f"held-out accuracy {doc['accuracy']:.3f}, recall {doc['recall_macro']:.3f}, "
           f"kappa {doc['kappa']:.3f}, byte-identical reruns ({elapsed:.1f}s for two runs)")


def test_criterion_11_training_curves(regression_run):
    _, out_a, _, _ = regression_run
    history = pl.load_history_csv(os.path.join(out_a, "history.csv"))
    assert len(history) == 200
    assert history.train_loss[9] < history.train_loss[0]
    ok(11, f"200 history rows, loss epoch10 {history.train_loss[9]:.4f} < "
           f"epoch1 {history.train_loss[0]:.4f}")


def test_criterion_12_cli_robustness(regression_run, tmp_path, capsys):
    data_csv, out_a, _, _ = regression_run
    rng = np.random.default_rng(112)
    alphabet = list("abcN,P01259.\n\r\"'{}[]:x;\t -_")
    failures = []
    cases = 0
    for case in range(1000):
        kind = case % 5
        blob = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 160))))
        path = tmp_path / f"fuzz_{case}"
        if kind == 0:  # malformed data CSV for fit
            path.write_text(blob)
            argv = ["fit", "--data", str(path), "--out", str(tmp_path / "o")]
        elif kind == 1:  # malformed config JSON
            path.write_text(blob)
            argv = ["fit", "--data", data_csv, "--out", str(tmp_path / "o"),
                    "--config", str(path)]
        elif kind == 2:  # malformed predict input
            path.write_text(blob)
            argv = ["predict", "--artifacts", out_a, "--data", str(path),
                    "--out", str(tmp_path / "p.csv")]
        elif kind == 3:  # malformed predictions for evaluate
            path.write_text(blob)
            argv = ["evaluate", "--predictions", str(path), "--data", data_csv,
                    "--out", str(tmp_path / "m.json")]
        else:  # malformed data for reduce
            path.write_text(blob)
            argv = ["reduce", "--data", str(path), "--out", str(tmp_path / "e.csv")]
        code = cli.main(argv)
        err = capsys.readouterr().err
        cases += 1
        if code not in (2, 3, 4) or not err.strip():
            failures.append((case, code))
    assert not failures, failures[:5]

    # every artifact the tool wrote reloads through its own loaders
    loaded = pl.load_artifacts(out_a)
    assert loaded.model.feature_width > 0
    assert len(loaded.history) == 200
    assert loaded.metrics_report.accuracy >= 0.90
    coords, labels = pl.load_embedding_csv(os.path.join(out_a, "embedding.csv"))
    assert coords.shape[0] == labels.size == loaded.graph.n_points
    path_back = pl.load_path_csv(os.path.join(out_a, "lasso_path.csv"))
    assert path_back.lambdas.size == 100
    ok(12, f"{cases} fuzz cases exited 2/3/4 with diagnostics; artifacts round-trip")
