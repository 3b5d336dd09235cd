import contextlib
import copy
import json
import math
import pickle
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_solve, lapack

from crossrisk import gpr, parallel
from crossrisk.errors import InputError, NumericalError
from crossrisk.gpr import (
    GprModelPair,
    GprConfig,
    KernelConfig,
    RolloutConfig,
    _factorize,
    _jittered_cholesky,
    _neg_lml,
    _sq_dists,
    _theta_to_config,
    build_gpr_model,
    fit_gpr,
    gpr_loss_and_grad,
    kernel_matrix,
    load_cluster_models,
    log_marginal_likelihood,
    posterior_predict,
    rollout,
    save_cluster_models,
    train_cluster_models,
)
from crossrisk.preprocess import preprocess_dataset
from crossrisk.geometry import IntersectionGeometry, canonical_endpoints
from crossrisk.synth import ScenarioSpec, generate_scenario
from crossrisk.trajectory import Direction, Maneuver


def naive_posterior(cfg, train_x, train_y, query, jitter=0.0):
    """Dense-inverse posterior oracle, deliberately independent of the
    Cholesky path under test."""
    k = kernel_matrix(cfg, train_x, train_x) + (cfg.noise_variance + jitter) * np.eye(len(train_x))
    k_inv = np.linalg.inv(k)
    k_star = kernel_matrix(cfg, train_x, np.asarray(query)[None, :])[:, 0]
    mean = k_star @ k_inv @ np.asarray(train_y)
    var = 1.0 - k_star @ k_inv @ k_star + cfg.noise_variance
    return float(mean), float(var)


def naive_lml(cfg, train_x, train_y, jitter=0.0):
    k = kernel_matrix(cfg, train_x, train_x) + (cfg.noise_variance + jitter) * np.eye(len(train_x))
    y = np.asarray(train_y, dtype=float)
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    return float(-0.5 * y @ np.linalg.inv(k) @ y - 0.5 * logdet
                 - 0.5 * len(y) * math.log(2 * math.pi))


def fd_gradient(theta, x, ys, kind, jitter, h=1e-6):
    grad = np.zeros_like(theta)
    d2 = _sq_dists(x, x)
    for j in range(len(theta)):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        grad[j] = (
            gpr_loss_and_grad(tp, d2, ys, kind, jitter)[0]
            - gpr_loss_and_grad(tm, d2, ys, kind, jitter)[0]
        ) / (2 * h)
    return grad


def reference_loss_and_grad(theta, x, ys, kind, jitter):
    """Explicit-inverse loss the inverse-free gradient replaced: W = aa' - K^-1
    summed against every dK, with K^-1 from solving against the identity."""
    cfg = _theta_to_config(theta, kind, jitter)
    n = x.shape[0]
    d2 = _sq_dists(x, x)
    ls2 = cfg.length_scale**2
    if kind == "rbf":
        k_f = np.exp(-d2 / (2.0 * ls2))
        dk = [k_f * d2 / ls2]
    else:
        base = 1.0 + d2 / (2.0 * cfg.rq_alpha * ls2)
        k_f = base ** (-cfg.rq_alpha)
        d_ls = base ** (-cfg.rq_alpha - 1.0) * d2 / ls2
        inner = -np.log(base) + d2 / (2.0 * cfg.rq_alpha * ls2 * base)
        dk = [d_ls, k_f * cfg.rq_alpha * inner]
    chol, _ = _jittered_cholesky(k_f, cfg.noise_variance, jitter)
    alpha_vec = cho_solve((chol, True), ys)
    lml = (-0.5 * float(ys @ alpha_vec) - float(np.sum(np.log(np.diag(chol))))
           - 0.5 * n * math.log(2.0 * math.pi))
    w = np.outer(alpha_vec, alpha_vec) - cho_solve((chol, True), np.eye(n))
    dk.append(cfg.noise_variance * np.eye(n))
    return -lml, -np.array([0.5 * float(np.sum(w * dk_j)) for dk_j in dk])


def plain_neg_lml(theta, d2, ys, kind, jitter):
    """The loss with a fresh array for every step, as it was before the loss
    wrote into a workspace; ``_neg_lml`` must reproduce it to the bit."""
    cfg = _theta_to_config(theta, kind, jitter)
    n = d2.shape[0]
    ls2 = cfg.length_scale**2
    if kind == "rbf":
        k_f = np.exp(-d2 / (2.0 * ls2))
        dk = [k_f * d2 / ls2]
    else:
        base = 1.0 + d2 / (2.0 * cfg.rq_alpha * ls2)
        k_f = base ** (-cfg.rq_alpha)
        inner = -np.log(base) + d2 / (2.0 * cfg.rq_alpha * ls2 * base)
        dk = [k_f / base * d2 / ls2, k_f * cfg.rq_alpha * inner]
    chol, jitter_used = _jittered_cholesky(k_f, cfg.noise_variance, jitter)
    alpha_vec = cho_solve((chol, True), ys)
    lml = (-0.5 * float(ys @ alpha_vec) - float(np.sum(np.log(np.diag(chol))))
           - 0.5 * n * math.log(2.0 * math.pi))
    k_inv, info = lapack.dpotri(chol, lower=1)
    assert info == 0
    k_inv_diag = np.diag(k_inv)
    grad = [0.5 * (float(alpha_vec @ (dk_j @ alpha_vec))
                   - (2.0 * float(np.vdot(k_inv.T, dk_j)) - float(k_inv_diag @ np.diag(dk_j))))
            for dk_j in dk]
    grad.append(0.5 * cfg.noise_variance
                * (float(alpha_vec @ alpha_vec) - float(np.sum(k_inv_diag))))
    return -lml, -np.array(grad), alpha_vec, jitter_used


def plain_sq_dists(a, b):
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def model_bytes(model):
    """Everything a fitted GP is saved as, plus its inputs, as bytes."""
    return (json.dumps(gpr._model_to_dict(model), sort_keys=True).encode()
            + model.train_x.tobytes())


class TestKernels:
    def test_rbf_zero_distance(self):
        cfg = KernelConfig(kind="rbf", length_scale=1.5)
        assert kernel_matrix(cfg, [(2.0, 3.0)], [(2.0, 3.0)])[0, 0] == 1.0

    def test_rq_zero_distance(self):
        cfg = KernelConfig(kind="rq", length_scale=1.5, rq_alpha=0.5)
        assert kernel_matrix(cfg, [(-1.0, 4.0)], [(-1.0, 4.0)])[0, 0] == 1.0

    def test_rbf_at_one_length_scale(self):
        cfg = KernelConfig(kind="rbf", length_scale=2.0)
        assert kernel_matrix(cfg, [(0.0, 0.0)], [(2.0, 0.0)])[0, 0] == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )

    def test_rq_closed_form(self):
        cfg = KernelConfig(kind="rq", length_scale=2.0, rq_alpha=3.0)
        d2 = 5.0
        expected = (1.0 + d2 / (2.0 * 3.0 * 4.0)) ** -3.0
        k = kernel_matrix(cfg, [(0.0, 0.0)], [(math.sqrt(5.0), 0.0)])[0, 0]
        assert k == pytest.approx(expected, abs=1e-12)

    def test_rq_approaches_rbf_for_large_alpha(self):
        rq = KernelConfig(kind="rq", length_scale=1.3, rq_alpha=1e6)
        rbf = KernelConfig(kind="rbf", length_scale=1.3)
        for d in np.linspace(0.0, 6.0, 25):
            a, b = (0.0, 0.0), (float(d), 0.0)
            k_rq, k_rbf = (kernel_matrix(cfg, [a], [b])[0, 0] for cfg in (rq, rbf))
            assert abs(k_rq - k_rbf) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000),
           st.sampled_from(["rbf", "rq"]))
    def test_kernel_matrix_symmetric_psd(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 10, size=(n, 2))
        cfg = KernelConfig(kind=kind, length_scale=float(rng.uniform(0.3, 4.0)),
                           rq_alpha=float(rng.uniform(0.2, 3.0)))
        k = kernel_matrix(cfg, x, x)
        assert np.max(np.abs(k - k.T)) < 1e-12
        np.linalg.cholesky(k + 1e-6 * np.eye(n))  # PSD under jitter

    @pytest.mark.parametrize("kind", ["rbf", "rq"])
    def test_kernel_into_buffers_is_the_plain_expression(self, kind):
        rng = np.random.default_rng(7)
        d2 = plain_sq_dists(*rng.uniform(-10, 10, size=(2, 30, 2)))
        for cfg in (KernelConfig(kind=kind, length_scale=1.7, rq_alpha=0.6),
                    KernelConfig(kind=kind, length_scale=0.4, rq_alpha=1.0)):
            ls2 = cfg.length_scale**2
            if kind == "rbf":
                want = np.exp(-d2 / (2.0 * ls2))
            else:
                want = (1.0 + d2 / (2.0 * cfg.rq_alpha * ls2)) ** (-cfg.rq_alpha)
            out, base = np.full_like(d2, np.nan), np.full_like(d2, np.nan)
            assert gpr._kernel_from_d2(cfg, d2, out=out, base=base) is out
            assert out.tobytes() == want.tobytes()
            assert gpr._kernel_from_d2(cfg, d2).tobytes() == want.tobytes()


class TestLogMarginalLikelihood:
    def test_unit_case(self):
        cfg = KernelConfig(kind="rbf", length_scale=1.0, noise_variance=0.0,
                           jitter=1e-12)
        model = build_gpr_model([[0.0, 0.0]], [0.0], cfg, standardize=False)
        assert log_marginal_likelihood(model) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-6
        )

    def test_matches_dense_inverse_on_two_points(self):
        cfg = KernelConfig(kind="rq", length_scale=1.1, rq_alpha=0.8,
                           noise_variance=0.3, jitter=0.0)
        x = np.array([[0.0, 0.0], [1.0, -0.5]])
        y = np.array([0.7, -1.2])
        model = build_gpr_model(x, y, cfg, standardize=False)
        assert log_marginal_likelihood(model) == pytest.approx(
            naive_lml(cfg, x, y), abs=1e-10
        )

    def test_quadratic_term_scales_with_squared_targets(self):
        # identity covariance: doubling targets quadruples the data-fit term
        cfg = KernelConfig(kind="rbf", length_scale=0.01, noise_variance=0.0,
                           jitter=0.0)
        x = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        y = np.array([0.3, -0.4, 0.9])
        m1 = build_gpr_model(x, y, cfg, standardize=False)
        m2 = build_gpr_model(x, 2.0 * y, cfg, standardize=False)
        const = -0.5 * 3 * math.log(2 * math.pi)  # log det of identity is 0
        quad1 = log_marginal_likelihood(m1) - const
        quad2 = log_marginal_likelihood(m2) - const
        assert quad2 == pytest.approx(4.0 * quad1, rel=1e-9)


class TestGradients:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["rbf", "rq"]))
    def test_analytic_matches_central_differences(self, seed, kind):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=(5, 2))
        ys = rng.normal(size=5)
        n_par = 3 if kind == "rq" else 2
        theta = rng.uniform(-1.0, 1.0, size=n_par)
        _, grad = gpr_loss_and_grad(theta, _sq_dists(x, x), ys, kind, 1e-6)
        fd = fd_gradient(theta, x, ys, kind, 1e-6)
        scale = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(grad - fd) / scale) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["rbf", "rq"]), st.integers(2, 40))
    def test_matches_explicit_inverse_reference(self, seed, kind, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=(n, 2))
        ys = rng.normal(size=n)
        theta = rng.uniform(-1.5, 1.5, size=3 if kind == "rq" else 2)
        loss, grad = gpr_loss_and_grad(theta, _sq_dists(x, x), ys, kind, 1e-6)
        want_loss, want_grad = reference_loss_and_grad(theta, x, ys, kind, 1e-6)
        assert loss == pytest.approx(want_loss, rel=1e-10)
        # elementwise, so an entry that is exactly zero in both (a kernel that
        # underflowed to zero off the diagonal) matches instead of giving 0/0
        assert np.all(np.abs(grad - want_grad) <= 1e-10 * np.abs(want_grad))

    @pytest.mark.parametrize("kind", ["rbf", "rq"])
    def test_matches_reference_with_escalated_jitter(self, kind):
        # every point three times, 1e6 m from the origin, negligible noise: the
        # expanded squared distances are off by ~1e-5, K is indefinite, and
        # the jitter escalates from 1e-8
        rng = np.random.default_rng(3)
        x = 1e6 + np.repeat(rng.uniform(-1, 1, size=(10, 2)), 3, axis=0)
        ys = rng.normal(size=30)
        theta = np.array([1.0, 0.0, -20.0] if kind == "rq" else [1.0, -20.0])
        d2 = _sq_dists(x, x)
        *_, (_, jitter_used) = _neg_lml(theta, d2, ys, kind, 1e-8)
        assert jitter_used >= 1e-6
        loss, grad = gpr_loss_and_grad(theta, d2, ys, kind, 1e-8)
        want_loss, want_grad = reference_loss_and_grad(theta, x, ys, kind, 1e-8)
        assert loss == pytest.approx(want_loss, rel=1e-10)
        assert np.max(np.abs(grad - want_grad) / np.abs(want_grad)) < 1e-10

    @pytest.mark.parametrize("kind", ["rbf", "rq"])
    @pytest.mark.parametrize("case", ["plain", "rq-alpha-one", "escalated"])
    def test_workspace_loss_matches_plain_expressions_to_the_bit(self, kind, case):
        rng = np.random.default_rng(7)
        if case == "escalated":  # tripled points 1e6 m out, as above
            x = 1e6 + np.repeat(rng.uniform(-1, 1, size=(10, 2)), 3, axis=0)
            theta = [1.0, 0.0, -20.0]
        else:
            x = rng.uniform(-4, 4, size=(40, 4))[:, 1:3]  # strided, as cluster data is
            theta = [0.3, 0.0 if case == "rq-alpha-one" else -0.4, -2.0]
        theta = np.array(theta if kind == "rq" else theta[::2])
        ys = rng.normal(size=len(x))
        want_loss, want_grad, want_alpha, want_jitter = plain_neg_lml(
            theta, plain_sq_dists(x, x), ys, kind, 1e-8)
        d2 = _sq_dists(x, x)
        assert d2.tobytes() == plain_sq_dists(x, x).tobytes()
        work = gpr._Workspace(len(x) + 5).arrays(len(x))
        for arr in work:
            arr.fill(np.nan)  # nothing may be read before it is written
        for _ in range(2):  # and the second pass reads nothing the first left
            loss, grad, (alpha_vec, jitter_used) = _neg_lml(theta, d2, ys, kind, 1e-8,
                                                             work[1:])
            assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
            assert alpha_vec.tobytes() == want_alpha.tobytes()
            assert jitter_used == want_jitter
        assert (jitter_used > 1e-8) == (case == "escalated")


class TestPosterior:
    def test_matches_dense_inverse_three_points(self):
        cfg = KernelConfig(kind="rq", length_scale=1.4, rq_alpha=0.6,
                           noise_variance=0.05, jitter=0.0)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=3)
        model = build_gpr_model(x, y, cfg, standardize=False)
        q = (0.25, -0.5)
        (mean,), (var,) = posterior_predict(model, [q])
        want_mean, want_var = naive_posterior(cfg, x, y, q)
        assert mean == pytest.approx(want_mean, abs=1e-8)
        assert var == pytest.approx(want_var, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 10_000))
    def test_matches_dense_inverse_up_to_ten_points(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-8, 8, size=(n, 2))
        y = rng.normal(size=n)
        cfg = KernelConfig(kind="rq", length_scale=float(rng.uniform(0.5, 3.0)),
                           rq_alpha=float(rng.uniform(0.3, 2.0)),
                           noise_variance=float(rng.uniform(0.01, 0.5)),
                           jitter=0.0)
        model = build_gpr_model(x, y, cfg, standardize=False)
        q = tuple(rng.uniform(-8, 8, size=2))
        (mean,), (var,) = posterior_predict(model, [q])
        want_mean, want_var = naive_posterior(cfg, x, y, q)
        assert mean == pytest.approx(want_mean, abs=1e-8)
        assert var == pytest.approx(want_var, abs=1e-8)

    def test_interpolates_training_point_at_low_noise(self):
        cfg = KernelConfig(kind="rbf", length_scale=2.0, noise_variance=1e-12,
                           jitter=1e-12)
        x = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0]])
        y = np.array([1.5, -0.7, 0.2])
        model = build_gpr_model(x, y, cfg, standardize=False)
        (mean,), _ = posterior_predict(model, [(3.0, 1.0)])
        assert mean == pytest.approx(-0.7, abs=1e-6)

    def test_reverts_to_prior_far_away(self):
        cfg = KernelConfig(kind="rbf", length_scale=1.0, noise_variance=0.2,
                           jitter=0.0)
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([2.0, -2.0])  # zero mean
        model = build_gpr_model(x, y, cfg, standardize=False)
        (mean,), (var,) = posterior_predict(model, [(500.0, 500.0)])
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(1.0 + 0.2, abs=1e-9)

    def test_variance_never_negative(self):
        cfg = KernelConfig(kind="rbf", length_scale=1.0, noise_variance=0.0)
        x = np.zeros((3, 2)) + np.arange(3)[:, None] * 1e-8
        model = build_gpr_model(x, np.zeros(3), cfg)
        _, (var,) = posterior_predict(model, [(0.0, 0.0)])
        assert var >= 0.0


class TestFit:
    def test_zero_targets_give_zero_mean(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, size=(12, 2))
        model = fit_gpr(x, np.zeros(12), GprConfig(kernel="rq", iterations=40))
        (mean,), _ = posterior_predict(model, [(0.5, 0.5)])
        assert mean == 0.0
        # loss settles after the opening iterations
        trace = model.loss_trace
        assert all(b <= a + 1e-8 for a, b in zip(trace[10:], trace[11:]))

    def test_final_loss_not_worse_than_initial(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=(30, 2))
        y = np.sin(0.8 * x[:, 0]) + 0.1 * rng.normal(size=30)
        model = fit_gpr(x, y, GprConfig(kernel="rbf", iterations=80))
        assert min(model.loss_trace) <= model.loss_trace[0]

    def test_optimization_beats_initial_hyperparameters(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-6, 6, size=(50, 2))
        field = lambda p: np.sin(0.5 * p[:, 0]) * np.cos(0.3 * p[:, 1])
        y = field(x) + 0.02 * rng.normal(size=50)
        x_test = rng.uniform(-6, 6, size=(80, 2))
        y_test = field(x_test)

        fit_cfg = GprConfig(kernel="rq", iterations=120)
        fitted = fit_gpr(x, y, fit_cfg)
        # rebuild the untouched-initialization model for comparison
        from crossrisk.gpr import _initial_length_scale
        cfg0 = KernelConfig(kind="rq", length_scale=_initial_length_scale(x, fit_cfg.seed),
                            rq_alpha=1.0, noise_variance=fit_cfg.init_noise)
        initial = build_gpr_model(x, y, cfg0)

        def rmse(model):
            preds = posterior_predict(model, x_test)[0]
            return float(np.sqrt(np.mean((preds - y_test) ** 2)))

        assert rmse(fitted) < rmse(initial)

    @pytest.mark.parametrize("kind", ["rbf", "rq"])
    @pytest.mark.parametrize("escalated", [False, True])
    def test_factorization_is_the_best_iterates(self, kind, escalated):
        rng = np.random.default_rng(3)
        if escalated:  # as in the gradient test: tripled points 1e6 m out
            x = 1e6 + np.repeat(rng.uniform(-1, 1, size=(10, 2)), 3, axis=0)
            fit_cfg = GprConfig(kernel=kind, iterations=20, init_noise=1e-12, jitter=1e-8)
        else:
            x = rng.uniform(-4, 4, size=(25, 2))
            fit_cfg = GprConfig(kernel=kind, iterations=30, jitter=1e-8)
        y = np.cos(0.7 * x[:, 0]) + 0.05 * rng.normal(size=len(x))
        model = fit_gpr(x, y, fit_cfg)
        assert (model.jitter_used > 1e-8) == escalated
        ys = (y - model.y_mean) / model.y_std
        chol, alpha_vec, jitter_used = _factorize(model.kernel, _sq_dists(x, x), ys)
        assert model.chol.tobytes() == chol.tobytes()
        assert model.alpha_vec.tobytes() == alpha_vec.tobytes()
        assert model.jitter_used == jitter_used

    @pytest.mark.parametrize("escalated", [False, True])
    def test_lazy_factor_is_the_one_alpha_was_solved_with(self, monkeypatch, escalated):
        rng = np.random.default_rng(3)
        if escalated:  # tripled points 1e6 m out, as above
            x = 1e6 + np.repeat(rng.uniform(-1, 1, size=(10, 2)), 3, axis=0)
            fit_cfg = GprConfig(iterations=20, init_noise=1e-12, jitter=1e-8)
        else:
            x = rng.uniform(-4, 4, size=(25, 2))
            fit_cfg = GprConfig(iterations=30, jitter=1e-8)
        y = np.cos(0.7 * x[:, 0]) + 0.05 * rng.normal(size=len(x))
        best_states = []
        adam = gpr._adam_minimize

        def spy(fun, theta0, cfg):
            result = adam(fun, theta0, cfg)
            best_states.append(result[2])
            return result

        monkeypatch.setattr(gpr, "_adam_minimize", spy)
        model = fit_gpr(x, y, fit_cfg)
        (alpha_vec, jitter_used), = best_states
        assert (jitter_used > 1e-8) == escalated
        assert model.alpha_vec.tobytes() == alpha_vec.tobytes()
        assert "chol" not in vars(model)  # not factorized until read
        # the loss inverts its factor in place, so the factor is checked by
        # solving with it: the lazy one reproduces alpha_vec to the bit
        ys = (y - model.y_mean) / model.y_std
        assert cho_solve((model.chol, True), ys).tobytes() == model.alpha_vec.tobytes()

    def test_one_workspace_fits_like_fresh_memory(self):
        # a larger cluster, then a smaller one, then one whose jitter escalates
        rng = np.random.default_rng(8)
        jobs = [
            (rng.uniform(-4, 4, size=(45, 2)), GprConfig(iterations=15, jitter=1e-8)),
            (rng.uniform(-4, 4, size=(18, 2)), GprConfig(kernel="rbf", iterations=15)),
            (1e6 + np.repeat(rng.uniform(-1, 1, size=(10, 2)), 3, axis=0),
             GprConfig(iterations=20, init_noise=1e-12, jitter=1e-8)),
        ]
        workspace = gpr._Workspace(45)
        for x, fit_cfg in jobs:
            y = np.cos(0.7 * x[:, 0]) + 0.05 * rng.normal(size=len(x))
            shared = fit_gpr(x, y, fit_cfg, workspace)
            assert model_bytes(shared) == model_bytes(fit_gpr(x, y, fit_cfg))
        assert shared.jitter_used > 1e-8

    def test_pickles_to_o_n_bytes_until_the_factor_is_read(self):
        n = 300
        x = np.random.default_rng(5).uniform(-5, 5, size=(n, 2))
        model = fit_gpr(x, np.sin(x[:, 0]), GprConfig(iterations=3))
        assert len(pickle.dumps(model)) < 40 * n + 4096  # x, y, alpha_vec: 32 B a point
        back = pickle.loads(pickle.dumps(model))
        assert back.chol.tobytes() == model.chol.tobytes()
        assert len(pickle.dumps(model)) > 8 * n * n  # the read factor is cached

    def test_needs_an_iteration(self):
        with pytest.raises(InputError):
            GprConfig(iterations=0)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            fit_gpr(np.zeros((1, 2)), np.zeros(1))

    def test_non_finite_targets_raise(self):
        with pytest.raises(ValueError):
            fit_gpr(np.zeros((3, 2)), np.array([0.0, float("nan"), 1.0]))


class TestJitter:
    def test_escalates_tenfold_until_factorizable(self):
        chol, jitter = _jittered_cholesky(-5e-5 * np.eye(3), 0.0, 1e-6)
        assert jitter == pytest.approx(1e-4)
        assert np.allclose(chol @ chol.T, (jitter - 5e-5) * np.eye(3))

    def test_gives_up_past_max_jitter(self):
        with pytest.raises(NumericalError):
            _jittered_cholesky(-np.eye(3), 0.0, 1e-6)

    def test_zero_starting_jitter_escalates_and_gives_up(self):
        # a zero jitter used to stay zero under tenfold steps and loop forever;
        # the alarm turns a hang into a failure
        def hang(signum, frame):
            raise AssertionError("_jittered_cholesky did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(NumericalError):
                _jittered_cholesky(-np.eye(2), 0.0, 0.0)
            chol, jitter = _jittered_cholesky(-5e-9 * np.eye(2), 0.0, 0.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert jitter == pytest.approx(1e-8)
        assert np.allclose(chol @ chol.T, (jitter - 5e-9) * np.eye(2))


class TestRollout:
    @staticmethod
    def _constant_field_pair(vx=1.0, vy=0.0):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 4, size=(40, 2))
        cfg = KernelConfig(kind="rbf", length_scale=2.0, noise_variance=1e-8)
        gp_x = build_gpr_model(x, np.full(40, vx), cfg)
        gp_y = build_gpr_model(x, np.full(40, vy), cfg)
        return GprModelPair(gp_x=gp_x, gp_y=gp_y,
                            cluster=(Direction.S, Maneuver.STRAIGHT))

    def test_constant_field_integrates_linearly(self):
        pair = self._constant_field_pair()
        times, (pos,) = rollout(pair, [(0.0, 0.0)], RolloutConfig(steps=10, dt=0.1))
        assert pos[-1][0] == pytest.approx(1.0, abs=1e-6)
        assert pos[-1][1] == pytest.approx(0.0, abs=1e-6)
        assert times[-1] == pytest.approx(1.0)

    def test_single_step(self):
        pair = self._constant_field_pair(vx=2.0, vy=-1.0)
        _, paths = rollout(pair, [(1.0, 1.0)], RolloutConfig(steps=1, dt=0.1))
        assert paths.shape == (1, 1, 2)
        pos = paths[0]
        assert pos[0][0] == pytest.approx(1.2, abs=1e-6)
        assert pos[0][1] == pytest.approx(0.9, abs=1e-6)

    def test_sampling_deterministic_per_seed(self):
        pair = self._constant_field_pair()
        cfg = RolloutConfig(steps=8, dt=0.1, mode="sample", seed=99)
        _, a = rollout(pair, [(0.0, 0.0)], cfg)
        _, b = rollout(pair, [(0.0, 0.0)], cfg)
        assert np.array_equal(a, b)
        _, c = rollout(pair, [(0.0, 0.0)],
                       RolloutConfig(steps=8, dt=0.1, mode="sample", seed=100))
        assert not np.array_equal(a, c)

    def test_mean_mode_is_pure(self):
        pair = self._constant_field_pair()
        cfg = RolloutConfig(steps=5, dt=0.1)
        _, a = rollout(pair, [(0.5, 0.5)], cfg)
        _, b = rollout(pair, [(0.5, 0.5)], cfg)
        assert np.array_equal(a, b)

    def test_sample_mode_draws_per_start(self):
        pair = self._constant_field_pair()
        cfg = RolloutConfig(steps=8, dt=0.1, mode="sample", seed=7)
        starts = [(0.0, 0.0), (0.0, 0.0)]
        _, a = rollout(pair, starts, cfg)
        _, b = rollout(pair, starts, cfg)
        assert not np.array_equal(a[0], a[1])
        assert np.array_equal(a, b)

    def test_sample_mode_unchanged_by_the_lazy_factor(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, size=(30, 2))
        fit_cfg = GprConfig(iterations=5)
        pair = GprModelPair(gp_x=fit_gpr(x, 1.0 + np.sin(x[:, 1]), fit_cfg),
                            gp_y=fit_gpr(x, np.cos(x[:, 0]), fit_cfg),
                            cluster=(Direction.N, Maneuver.LEFT))
        eager = copy.deepcopy(pair)  # the factor stored up front, as fitting once did
        for gp in (eager.gp_x, eager.gp_y):
            ys = (gp.train_y - gp.y_mean) / gp.y_std
            gp.__dict__["chol"] = _factorize(gp.kernel, _sq_dists(x, x), ys)[0]
        save_cluster_models({pair.cluster: pair}, tmp_path / "m.json")
        (loaded,) = load_cluster_models(tmp_path / "m.json").values()
        cfg = RolloutConfig(steps=12, dt=0.1, mode="sample", seed=(3, 1, 2))
        starts = rng.uniform(-4, 4, size=(5, 2))
        _, want = rollout(eager, starts, cfg)
        for p in (pair, loaded):
            assert "chol" not in vars(p.gp_x) and "chol" not in vars(p.gp_y)
            assert rollout(p, starts, cfg)[1].tobytes() == want.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["rbf", "rq"]), st.integers(1, 16), st.integers(0, 10_000))
    def test_batch_rows_match_single_start_reference(self, kind, batch, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 10, size=(25, 2))
        cfg = KernelConfig(kind=kind, length_scale=float(rng.uniform(2.0, 6.0)),
                           rq_alpha=float(rng.uniform(0.5, 2.0)), noise_variance=0.05)
        pair = GprModelPair(gp_x=build_gpr_model(x, rng.normal(1.0, 0.5, 25), cfg),
                            gp_y=build_gpr_model(x, rng.normal(-0.5, 0.5, 25), cfg),
                            cluster=(Direction.N, Maneuver.LEFT))
        starts = rng.uniform(-8, 8, size=(batch, 2))
        rcfg = RolloutConfig(steps=20, dt=0.1)
        _, paths = rollout(pair, starts, rcfg)
        assert paths.shape == (batch, 20, 2)
        for start, path in zip(starts, paths):
            assert np.max(np.abs(path - reference_rollout(pair, start, rcfg))) <= 1e-9


    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["rbf", "rq"]), st.lists(st.integers(1, 150), min_size=1, max_size=5),
           st.integers(1, 5), st.integers(0, 10_000))
    @example(kind="rq", sizes=[300], steps=3, seed=0)  # one stream over two blocks
    @example(kind="rbf", sizes=[200, 100, 7], steps=2, seed=1)  # a stream across blocks
    def test_streams_match_one_rollout_per_stream(self, kind, sizes, steps, seed):
        # a batch of several noise streams gives each stream's rows the paths
        # and the noise draws of a rollout of that stream alone
        rng = np.random.default_rng(seed)
        x = rng.uniform(-10, 10, size=(30, 2))
        cfg = KernelConfig(kind=kind, length_scale=float(rng.uniform(2.0, 6.0)),
                           noise_variance=0.05)
        pair = GprModelPair(gp_x=build_gpr_model(x, rng.normal(1.0, 0.5, 30), cfg),
                            gp_y=build_gpr_model(x, rng.normal(-0.5, 0.5, 30), cfg),
                            cluster=(Direction.E, Maneuver.RIGHT))
        starts = rng.uniform(-8, 8, size=(sum(sizes), 2))
        streams = [((seed, v, 1), rows) for v, rows in enumerate(sizes)]
        bounds = np.cumsum([0, *sizes])
        for mode in ("mean", "sample"):
            rcfg = RolloutConfig(steps=steps, dt=0.1, mode=mode, seed=seed)
            with recorded_draws() as batched_draws:
                _, batched = rollout(pair, starts, rcfg, streams)
            assert batched.shape == (len(starts), steps, 2)
            with recorded_draws() as own_draws:
                own = [rollout(pair, starts[lo:hi], replace(rcfg, seed=entropy))[1]
                       for (entropy, _), lo, hi in zip(streams, bounds, bounds[1:])]
            assert np.max(np.abs(batched - np.concatenate(own))) <= 1e-12
            assert batched_draws.keys() == own_draws.keys()
            for (entropy, rows) in streams:
                draws = batched_draws.get(entropy, [])
                assert len(draws) == (steps if mode == "sample" else 0)
                assert all(z.shape == (rows, 2) for z in draws)
                assert [z.tobytes() for z in draws] == [
                    z.tobytes() for z in own_draws.get(entropy, [])]

    def test_streams_must_cover_the_rows(self):
        pair = self._constant_field_pair()
        cfg = RolloutConfig(steps=2, dt=0.1, mode="sample")
        for streams in ([(0, 2)], [(0, 4), (1, -1)]):
            with pytest.raises(ValueError):
                rollout(pair, np.zeros((3, 2)), cfg, streams)


@contextlib.contextmanager
def recorded_draws():
    """Record, per entropy, the standard normals each generator that
    ``np.random.default_rng`` makes draws through ``normal``."""
    real = np.random.default_rng
    draws = {}

    class Recording:
        def __init__(self, entropy):
            self._rng, self._key = real(entropy), entropy

        def normal(self, loc, scale):
            z = self._rng.standard_normal(np.shape(loc))
            draws.setdefault(self._key, []).append(z)
            return loc + scale * z

    np.random.default_rng = Recording
    try:
        yield draws
    finally:
        np.random.default_rng = real


def reference_rollout(pair, start, cfg):
    """Mean-mode Euler rollout from one start, one kernel row per component
    and step: the single-start loop the batched rollout replaced."""
    pos = np.asarray(start, dtype=float).copy()
    out = np.empty((cfg.steps, 2))
    for i in range(cfg.steps):
        vel = [
            gp.y_mean + gp.y_std * float(
                kernel_matrix(gp.kernel, gp.train_x, pos[None, :])[:, 0] @ gp.alpha_vec)
            for gp in (pair.gp_x, pair.gp_y)
        ]
        pos = pos + np.array(vel) * cfg.dt
        out[i] = pos
    return out


@pytest.fixture(scope="module")
def labeled_scene():
    spec = ScenarioSpec(seed=6, n_vehicles_per_cell=2, n_pedestrians_per_crosswalk=0,
                        noise_std_position=0.02, noise_std_velocity=0.02)
    dataset, truth = generate_scenario(spec)
    geom = IntersectionGeometry(endpoints=canonical_endpoints())
    labeled, _ = preprocess_dataset(dataset, geom)
    return labeled


class TestClusterTraining:
    def test_only_nonempty_clusters_trained(self, labeled_scene):
        sparse = labeled_scene
        only_south = [t for t in sparse.vehicles
                      if t.entering_direction == Direction.S
                      and t.maneuver == Maneuver.STRAIGHT]
        from crossrisk.trajectory import Dataset
        ds = Dataset(trajectories=only_south)
        models = train_cluster_models(ds, GprConfig(iterations=5))
        assert set(models) == {(Direction.S, Maneuver.STRAIGHT)}

    def test_subsampling_cap(self, labeled_scene):
        models = train_cluster_models(labeled_scene, GprConfig(iterations=5, max_points=30))
        for pair in models.values():
            assert pair.gp_x.n_train <= 30
            assert np.array_equal(pair.gp_x.train_x, pair.gp_y.train_x)

    def test_fits_share_one_workspace_sized_to_the_largest_cluster(self, labeled_scene,
                                                                  monkeypatch):
        seen = []
        fit = gpr.fit_gpr

        def spy(inputs, targets, cfg, workspace):
            seen.append((len(inputs), workspace))
            return fit(inputs, targets, cfg, workspace)

        monkeypatch.setattr(gpr, "fit_gpr", spy)
        monkeypatch.setattr(parallel, "worker_count", lambda: 1)  # fits in this process
        models = train_cluster_models(labeled_scene, GprConfig(iterations=3, max_points=60))
        assert len(seen) == 2 * len(models)
        largest = max(n for n, _ in seen)
        workspaces = {id(w) for _, w in seen}
        assert len(workspaces) == 1
        assert seen[0][1].arrays(largest)[0].shape == (largest, largest)
        with pytest.raises(ValueError):
            seen[0][1].arrays(largest + 1)

    def test_training_deterministic(self, labeled_scene):
        fit_cfg = GprConfig(iterations=10, max_points=50, seed=3)
        m1 = train_cluster_models(labeled_scene, fit_cfg)
        m2 = train_cluster_models(labeled_scene, fit_cfg)
        for cell in m1:
            assert np.array_equal(m1[cell].gp_x.train_y, m2[cell].gp_x.train_y)
            assert m1[cell].gp_x.kernel == m2[cell].gp_x.kernel

    def test_persistence_roundtrip(self, labeled_scene, tmp_path):
        models = train_cluster_models(labeled_scene, GprConfig(iterations=10, max_points=40))
        path = tmp_path / "models.json"
        save_cluster_models(models, path)
        back = load_cluster_models(path)
        assert set(back) == set(models)
        for cell in models:
            q = (1.0, -12.0)
            assert np.concatenate(posterior_predict(back[cell].gp_x, [q])) == pytest.approx(
                np.concatenate(posterior_predict(models[cell].gp_x, [q])), abs=1e-12
            )
            assert back[cell].gp_x.train_x is back[cell].gp_y.train_x
            for name in ("gp_x", "gp_y"):
                a, b = getattr(models[cell], name), getattr(back[cell], name)
                for field in ("train_x", "train_y", "chol", "alpha_vec"):
                    assert np.array_equal(getattr(a, field), getattr(b, field))
                assert a.kernel == b.kernel

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "clusters": {}}))
        from crossrisk.errors import InputError
        with pytest.raises(InputError):
            load_cluster_models(path)

    def test_train_x_written_once_per_cluster(self, tmp_path):
        path = tmp_path / "models.json"
        save_cluster_models(_small_models(), path)
        for entry in json.loads(path.read_text())["clusters"].values():
            assert len(entry["train_x"]) == 6
            assert "train_x" not in entry["gp_x"] and "train_x" not in entry["gp_y"]

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: p.update(version=1), id="v1-file"),
        pytest.param(lambda p: _cluster(p)["train_x"][0].__setitem__(0, float("nan")),
                     id="train-x-nan"),
        pytest.param(lambda p: _cluster(p)["train_x"][0].__setitem__(1, float("inf")),
                     id="train-x-inf"),
        pytest.param(lambda p: _cluster(p).update(
            train_x=[r + [0.0] for r in _cluster(p)["train_x"]]), id="train-x-three-columns"),
        pytest.param(lambda p: _cluster(p).update(train_x=[]), id="train-x-empty"),
        pytest.param(lambda p: _cluster(p).pop("train_x"), id="train-x-missing"),
        pytest.param(lambda p: _cluster(p)["gp_x"]["train_y"].__setitem__(0, float("nan")),
                     id="train-y-nan"),
        pytest.param(lambda p: _cluster(p)["gp_y"]["train_y"].pop(), id="train-y-short"),
        pytest.param(lambda p: _cluster(p)["gp_x"].update(length_scale=0.0),
                     id="length-scale-zero"),
        pytest.param(lambda p: _cluster(p)["gp_x"].update(rq_alpha=-1.0), id="rq-alpha-negative"),
        pytest.param(lambda p: _cluster(p)["gp_y"].update(noise_variance=float("inf")),
                     id="noise-variance-inf"),
        pytest.param(lambda p: _cluster(p)["gp_x"].update(y_std=0.0), id="y-std-zero"),
        pytest.param(lambda p: _cluster(p)["gp_y"].update(y_std=float("nan")), id="y-std-nan"),
        pytest.param(lambda p: _cluster(p)["gp_x"]["alpha_vec"].pop(), id="alpha-vec-short"),
        pytest.param(lambda p: _cluster(p)["gp_y"]["alpha_vec"].__setitem__(2, float("inf")),
                     id="alpha-vec-inf"),
        pytest.param(lambda p: _cluster(p)["gp_x"].pop("alpha_vec"), id="alpha-vec-missing"),
    ])
    def test_loader_rejects(self, tmp_path, mutate):
        path = tmp_path / "models.json"
        save_cluster_models(_small_models(), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError):
            load_cluster_models(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(InputError):
            load_cluster_models(path)

    def test_v1_file_asks_for_retraining(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, "clusters": {}}))
        with pytest.raises(InputError, match="crossrisk train"):
            load_cluster_models(path)

    def test_v2_file_without_alpha_vec_asks_for_retraining(self, tmp_path):
        path = tmp_path / "old.json"
        save_cluster_models(_small_models(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 2
        for gp in ("gp_x", "gp_y"):
            del _cluster(payload)[gp]["alpha_vec"]
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="re-run `crossrisk train`"):
            load_cluster_models(path)

    @pytest.mark.parametrize("escalated", [False, True])
    def test_loaded_alpha_vec_and_jitter_are_the_fitted_ones(self, tmp_path, escalated):
        rng = np.random.default_rng(3)
        if escalated:  # as in the fit test: tripled points 1e6 m out
            x = 1e6 + np.repeat(rng.uniform(-1, 1, size=(10, 2)), 3, axis=0)
            fit_cfg = GprConfig(iterations=20, init_noise=1e-12, jitter=1e-8)
        else:
            x = rng.uniform(-4, 4, size=(25, 2))
            fit_cfg = GprConfig(iterations=10, jitter=1e-8)
        cell = (Direction.S, Maneuver.RIGHT)
        pair = GprModelPair(gp_x=fit_gpr(x, np.cos(0.7 * x[:, 0]), fit_cfg),
                            gp_y=fit_gpr(x, np.sin(0.7 * x[:, 1]), fit_cfg),
                            cluster=cell)
        assert (pair.gp_x.jitter_used > 1e-8) == escalated
        save_cluster_models({cell: pair}, tmp_path / "m.json")
        loaded = load_cluster_models(tmp_path / "m.json")[cell]
        for fitted, back in ((pair.gp_x, loaded.gp_x), (pair.gp_y, loaded.gp_y)):
            assert back.alpha_vec.tobytes() == fitted.alpha_vec.tobytes()
            assert back.jitter_used == fitted.jitter_used
            assert "chol" not in vars(back)  # not factorized on load


def _small_models():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, size=(6, 2))
    cfg = KernelConfig(kind="rq", length_scale=1.5, rq_alpha=0.7, noise_variance=0.1)
    cell = (Direction.N, Maneuver.LEFT)
    return {cell: GprModelPair(gp_x=build_gpr_model(x, rng.normal(size=6), cfg),
                               gp_y=build_gpr_model(x, rng.normal(size=6), cfg),
                               cluster=cell)}


def _cluster(payload):
    return payload["clusters"]["N:left"]
