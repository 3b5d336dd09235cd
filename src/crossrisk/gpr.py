"""Gaussian-process velocity-field regression and iterative trajectory rollout.

Each maneuver/direction cluster gets a pair of GPs mapping planar position to
one velocity component each. Kernels are the unit-amplitude radial basis
function and rational quadratic over Euclidean distance; targets are
standardized per cluster so a zero prior mean is appropriate. Hyperparameters
(log length scale, log shape for RQ, log noise variance) are optimized by
Adam on the negated log marginal likelihood with analytic gradients. A
gradient is computed only at an iterate Adam may step from: never at the last
iterate of the budget, whose loss alone is read.

LAPACK (``scipy.linalg``) is imported on first use, so a process that never
factorises a covariance (synth, preprocess, a mean-mode risk run) does not
load it; ``cho_solve``, ``cholesky``, ``lapack`` and ``solve_triangular``
are still attributes of this module. An entry point that factorises loads it
before it pins BLAS to one thread or its caller forks workers, so that the
OpenBLAS library scipy brings is pinned with numpy's.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, check_number, is_finite_number, read_json_object
from .parallel import _one_blas_thread
from .trajectory import Dataset, Direction, Maneuver, SUPPORTED_MANEUVERS

KERNEL_KINDS = ("rbf", "rq")

#: Hard ceiling for jitter escalation when a covariance resists factorization.
MAX_JITTER = 1e-4
#: First escalation rung when the starting jitter is 0, which tenfold steps
#: alone would never raise.
MIN_ESCALATED_JITTER = 1e-10

MODEL_FILE_VERSION = 4

#: Most rows one kernel evaluation of a rollout step covers.
_ROLLOUT_BLOCK_ROWS = 256

#: The ``scipy.linalg`` functions this module offers as its own attributes.
_LINALG_NAMES = frozenset({"cho_solve", "cholesky", "lapack", "solve_triangular"})


def _linalg():
    """``scipy.linalg``, imported at the first call: about 0.2 s and 28 MB of
    resident memory that only a process that factorises pays."""
    import scipy.linalg

    return scipy.linalg


def __getattr__(name: str):
    """The functions of ``_LINALG_NAMES``, from ``scipy.linalg``."""
    if name in _LINALG_NAMES:
        return getattr(_linalg(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class KernelConfig:
    kind: str = "rq"
    length_scale: float = 1.0
    rq_alpha: float = 1.0
    noise_variance: float = 0.1
    jitter: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise InputError(f"unknown kernel kind: {self.kind!r}")
        if self.length_scale <= 0 or self.rq_alpha <= 0:
            raise InputError("length_scale and rq_alpha must be positive")
        if self.noise_variance < 0:
            raise InputError("noise_variance must be nonnegative")


def _sq_dists(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray | None = None,
              out: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Squared distances between the rows of ``a`` and ``b``; ``b_sq``, the
    squared norms of ``b``'s rows, can be passed when ``b`` is reused. ``out``,
    two arrays of the result's shape, takes the distances (returned) and the
    Gram matrix; by default both are allocated."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b_sq is None:
        b_sq = np.sum(b * b, axis=1)
    d2, gram = out if out is not None else (np.empty((len(a), len(b))) for _ in range(2))
    np.add(np.sum(a * a, axis=1)[:, None], b_sq[None, :], out=d2)
    np.multiply(np.matmul(a, b.T, out=gram), 2.0, out=gram)
    np.subtract(d2, gram, out=d2)
    return np.maximum(d2, 0.0, out=d2)


def _kernel_from_d2(cfg: KernelConfig, d2: np.ndarray, out: np.ndarray | None = None,
                    base: np.ndarray | None = None) -> np.ndarray:
    """The kernel of squared distances ``d2``, written into ``out`` (returned).
    The RQ kernel first writes ``1 + d2 / (2 alpha l^2)`` into ``base``. Both
    arrays have ``d2``'s shape and are allocated when not given."""
    if cfg.kind == "rbf":
        scale = 2.0 * cfg.length_scale**2
        return np.exp(np.divide(np.negative(d2, out=out), scale, out=out), out=out)
    scale = 2.0 * cfg.rq_alpha * cfg.length_scale**2
    base = np.add(np.divide(d2, scale, out=base), 1.0, out=base)
    return np.power(base, -cfg.rq_alpha, out=out)


def kernel_matrix(cfg: KernelConfig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _kernel_from_d2(cfg, _sq_dists(a, b))


@dataclass
class GprModel:
    """A fitted single-output GP: position -> one velocity component.

    ``train_y`` holds raw targets; ``alpha_vec`` and the factorization are in
    standardized target space (``y_mean``/``y_std``). The n x n Cholesky
    factor ``chol`` is not stored: it is computed on first read, at
    ``jitter_used``, so a model that never needs it (mean-mode rollout) and a
    model sent between processes stay O(n). Instances are not mutated after
    construction, apart from that cache.
    """

    kernel: KernelConfig
    train_x: np.ndarray
    train_y: np.ndarray
    y_mean: float
    y_std: float
    alpha_vec: np.ndarray
    jitter_used: float
    loss_trace: list = field(default_factory=list)

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of K + (noise + jitter_used) I, the matrix
        ``alpha_vec`` was solved with."""
        k = _kernel_from_d2(self.kernel, _sq_dists(self.train_x, self.train_x))
        return _jittered_cholesky(k, self.kernel.noise_variance, self.jitter_used)[0]


def _jittered_cholesky(k: np.ndarray, noise_variance: float, jitter: float,
                       work: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of k + (noise + jitter) I and the jitter used,
    escalating the jitter tenfold up to MAX_JITTER (from MIN_ESCALATED_JITTER
    when it starts at 0). The factor is formed in ``work``, a Fortran-order
    array of ``k``'s shape, allocated when not given."""
    if work is None:
        work = np.array(k, order="F")  # LAPACK's layout, so it is factored in place
    else:
        work[...] = k
    diagonal = k.diagonal()
    while True:
        np.fill_diagonal(work, diagonal + (noise_variance + jitter))
        try:
            return _linalg().cholesky(work, lower=True, overwrite_a=True), jitter
        except np.linalg.LinAlgError:
            work[...] = k  # undo the partial factorization
            jitter = jitter * 10.0 if jitter > 0 else MIN_ESCALATED_JITTER
            if jitter > MAX_JITTER:
                raise NumericalError(
                    "covariance matrix is not positive definite even at "
                    f"jitter={MAX_JITTER}"
                )


def build_gpr_model(inputs: np.ndarray, targets: np.ndarray, cfg: KernelConfig,
                    standardize: bool = True) -> GprModel:
    """Condition a GP with fixed hyperparameters on (position, velocity) data."""
    x = np.asarray(inputs, dtype=float).reshape(-1, 2)
    y = np.asarray(targets, dtype=float).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree in length")
    if x.shape[0] < 1:
        raise ValueError("need at least one training point")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("training data must be finite")
    if standardize:
        y_mean = float(np.mean(y))
        y_std = float(np.std(y))
        if y_std < 1e-12:
            y_std = 1.0
    else:
        y_mean, y_std = 0.0, 1.0
    ys = (y - y_mean) / y_std
    chol, jitter = _jittered_cholesky(_kernel_from_d2(cfg, _sq_dists(x, x)),
                                      cfg.noise_variance, cfg.jitter)
    alpha_vec = _linalg().cho_solve((chol, True), ys)
    return GprModel(kernel=cfg, train_x=x, train_y=y, y_mean=y_mean, y_std=y_std,
                    alpha_vec=alpha_vec, jitter_used=jitter)


def log_marginal_likelihood(model: GprModel) -> float:
    """Closed-form Gaussian log evidence of the standardized targets."""
    ys = (model.train_y - model.y_mean) / model.y_std
    n = model.n_train
    quad = float(ys @ model.alpha_vec)
    logdet = 2.0 * float(np.sum(np.log(np.diag(model.chol))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)


def posterior_predict(model: GprModel, queries: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances (including observation noise) at
    ``(m, 2)`` query positions; both results have shape ``(m,)``."""
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    k_star = kernel_matrix(model.kernel, model.train_x, q)  # (n, m)
    mean_std = k_star.T @ model.alpha_vec
    return model.y_mean + model.y_std * mean_std, _predictive_variance(model, k_star)


def _predictive_variance(model: GprModel, k_star: np.ndarray) -> np.ndarray:
    """Predictive variances (including observation noise) from the ``(n, m)``
    kernel matrix between the training inputs and ``m`` queries."""
    v = _linalg().solve_triangular(model.chol, k_star, lower=True)
    var_std = 1.0 - np.sum(v * v, axis=0) + model.kernel.noise_variance
    var_std = np.maximum(var_std, 0.0)
    return (model.y_std**2) * var_std


# ---------------------------------------------------------------------------
# Hyperparameter optimization
# ---------------------------------------------------------------------------


#: Adam's moment decay rates and denominator offset, and the early stop: the
#: fit ends once the loss has not improved by ``_EARLY_STOP_TOL`` for
#: ``_EARLY_STOP_WINDOW`` iterations.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8
_EARLY_STOP_TOL, _EARLY_STOP_WINDOW = 1e-4, 10


@dataclass(frozen=True)
class GprConfig:
    """Settings of the per-cluster GP fits, the ``gpr`` config section: the
    kernel kind, Adam's step size and iteration budget, the most points one
    cluster is fitted on, the starting jitter and noise variance, and the
    seed of the cluster subsampling and the length-scale initialization."""

    kernel: str = "rq"
    learning_rate: float = 0.1
    iterations: int = 200
    max_points: int = 2000
    jitter: float = 1e-6
    init_noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_KINDS:
            raise InputError(f"unknown kernel: {self.kernel!r}")
        if self.iterations < 1:
            raise InputError("gpr.iterations must be at least 1")
        check_number(self.learning_rate, "gpr.learning_rate", positive=True)
        if self.max_points < 2:
            raise InputError("gpr.max_points must be at least 2")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise InputError("gpr.jitter must be nonnegative and finite")
        if not (math.isfinite(self.init_noise) and self.init_noise > 0):
            raise InputError("gpr.init_noise must be positive and finite")
        if self.seed < 0:
            raise InputError("gpr.seed must be nonnegative")


def _theta_to_config(theta: np.ndarray, kind: str, jitter: float) -> KernelConfig:
    if kind == "rq":
        log_ls, log_alpha, log_noise = theta
        return KernelConfig(kind=kind, length_scale=math.exp(log_ls),
                            rq_alpha=math.exp(log_alpha),
                            noise_variance=math.exp(log_noise), jitter=jitter)
    log_ls, log_noise = theta
    return KernelConfig(kind=kind, length_scale=math.exp(log_ls),
                        noise_variance=math.exp(log_noise), jitter=jitter)


class _Workspace:
    """The n x n work arrays of GP fits of up to ``capacity`` points, so that
    consecutive fits reuse the same memory instead of allocating it on every
    loss evaluation: seven flat buffers, each viewed as one n x n array per
    fit, the last in Fortran order for LAPACK to factor in place."""

    def __init__(self, capacity: int) -> None:
        self._flat = [np.empty(capacity * capacity) for _ in range(7)]

    def arrays(self, n: int) -> list[np.ndarray]:
        *square, lapack_order = (buf[:n * n] for buf in self._flat)
        return [buf.reshape(n, n) for buf in square] + [lapack_order.reshape(n, n, order="F")]


def _neg_lml(theta: np.ndarray, d2: np.ndarray, targets: Sequence[np.ndarray], kind: str,
             jitter: float, work: Sequence[np.ndarray] | None = None, *,
             gradient: bool = True) -> list[tuple[float, np.ndarray | None, tuple]]:
    """Negated log marginal likelihood of each standardized target vector in
    ``targets``, its gradient and the ``(alpha_vec, jitter_used)`` they were
    computed from: one triple per target. With ``gradient=False`` the gradient
    is ``None`` and none of its work is done; the loss and the state are the
    same floats either way, as the gradient is computed after them.

    Each gradient entry is ``-(alpha' dK alpha - tr(K^-1 dK)) / 2`` (Rasmussen &
    Williams 2006, eq. 5.9). The trace reads the lower triangle of ``K^-1``,
    which LAPACK ``potri`` forms from the Cholesky factor, with the
    off-diagonal part counted twice. The targets share the kernel, its
    derivatives, the factor, ``K^-1`` and the traces; each target is solved
    with its own ``cho_solve``, so its triple is the one a call with that
    target alone returns, bit for bit.

    Every n x n intermediate is written into ``work``: five C-order arrays
    and one Fortran-order array of ``d2``'s shape, the last six of
    ``_Workspace.arrays``; allocated when not given. The kernel and the RQ
    ``base`` come from ``_kernel_from_d2``; the gradient's arithmetic is that
    of the plain expressions, step for step.
    """
    cfg = _theta_to_config(theta, kind, jitter)
    n = d2.shape[0]
    if work is None:
        work = _Workspace(n).arrays(n)[1:]
    tmp, base, k_f, d_ls, d_alpha, k_work = work
    _kernel_from_d2(cfg, d2, out=k_f, base=base)
    linalg = _linalg()
    chol, jitter_used = _jittered_cholesky(k_f, cfg.noise_variance, jitter, k_work)
    alpha_vecs = [linalg.cho_solve((chol, True), ys) for ys in targets]
    half_logdet = float(np.sum(np.log(np.diag(chol))))
    lmls = [-0.5 * float(ys @ alpha_vec) - half_logdet - 0.5 * n * math.log(2.0 * math.pi)
            for ys, alpha_vec in zip(targets, alpha_vecs)]
    if not gradient:
        return [(-lml, None, (alpha_vec, jitter_used))
                for lml, alpha_vec in zip(lmls, alpha_vecs)]

    ls2 = cfg.length_scale**2
    if kind == "rbf":
        dk = [np.divide(np.multiply(k_f, d2, out=d_ls), ls2, out=d_ls)]  # d/d log ls
    else:
        scale = 2.0 * cfg.rq_alpha * ls2
        # d_ls = k_f / base * d2 / ls2
        np.divide(np.multiply(np.divide(k_f, base, out=d_ls), d2, out=d_ls), ls2, out=d_ls)
        # inner = -log(base) + d2 / (scale * base); d_alpha = k_f * alpha * inner
        np.divide(d2, np.multiply(base, scale, out=tmp), out=tmp)
        np.subtract(tmp, np.log(base, out=d_alpha), out=d_alpha)
        np.multiply(np.multiply(k_f, cfg.rq_alpha, out=tmp), d_alpha, out=d_alpha)
        dk = [d_ls, d_alpha]
    # in place: the factor is spent once the alphas and the log-determinant are read
    k_inv, info = linalg.lapack.dpotri(chol, lower=1, overwrite_c=1)  # lower triangle, zeros above
    if info != 0:
        raise NumericalError(f"covariance inverse failed (LAPACK potri info={info})")
    k_inv_diag = np.diag(k_inv)
    # dK is symmetric, so the transpose (a view) sums the same entries.
    traces = [2.0 * float(np.vdot(k_inv.T, dk_j)) - float(k_inv_diag @ np.diag(dk_j))
              for dk_j in dk]
    noise_trace = float(np.sum(k_inv_diag))
    results = []
    for lml, alpha_vec in zip(lmls, alpha_vecs):
        grad_lml = [0.5 * (float(alpha_vec @ (dk_j @ alpha_vec)) - trace)
                    for dk_j, trace in zip(dk, traces)]
        # d/d log noise_variance: dK = noise * I
        grad_lml.append(0.5 * cfg.noise_variance
                        * (float(alpha_vec @ alpha_vec) - noise_trace))
        results.append((-lml, -np.array(grad_lml), (alpha_vec, jitter_used)))
    return results


def _adam_minimize(fun, theta0: np.ndarray, cfg: GprConfig, first: tuple | None = None
                   ) -> tuple[np.ndarray, list, object]:
    """Adam with early stopping on ``fun(theta, gradient) -> (loss, grad,
    state)``; returns the best iterate, the loss trace and the best iterate's
    state. ``first``, when given, is ``fun(theta0, cfg.iterations > 1)``
    computed beforehand, and stands in for the first call.

    Adam reads a gradient only at an iterate it steps from, so ``fun`` is asked
    for one (``gradient=True``) at every iterate but the last of the budget;
    where it is not asked, ``grad`` may be ``None``. An iterate at which the
    early stop ends the fit has its gradient computed but not read, because
    only its loss shows that the fit stops there. A non-finite loss, or a
    non-finite gradient at an iterate Adam steps from, raises
    ``NumericalError`` naming which of the two it was."""
    theta = theta0.astype(float).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trace: list[float] = []
    best_theta = theta.copy()
    best_loss = math.inf
    best_state = None
    last_improvement = 0
    for it in range(1, cfg.iterations + 1):
        loss, grad, state = fun(theta, it < cfg.iterations) if first is None else first
        first = None
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite loss at iteration {it} of hyperparameter "
                                 "optimization")
        trace.append(loss)
        if loss < best_loss - _EARLY_STOP_TOL:
            last_improvement = it
        if loss < best_loss:
            best_loss = loss
            best_theta = theta.copy()
            best_state = state
        if it == cfg.iterations or it - last_improvement >= _EARLY_STOP_WINDOW:
            break
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at iteration {it} of hyperparameter "
                                 "optimization")
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - _ADAM_BETA1**it)
        v_hat = v / (1.0 - _ADAM_BETA2**it)
        theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
    return best_theta, trace, best_state


def _initial_length_scale(x: np.ndarray, seed: int) -> float:
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    sub = x if n <= 200 else x[np.sort(rng.choice(n, 200, replace=False))]
    d2 = _sq_dists(sub, sub)
    upper = d2[np.triu_indices(len(sub), k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 1.0
    return med if med > 1e-9 else 1.0


def _fit_targets(inputs: np.ndarray, targets: Sequence[np.ndarray], cfg: GprConfig,
                 workspace: _Workspace | None = None) -> list[GprModel]:
    """One GP per target vector of ``targets`` on the shared ``inputs``, each
    the model ``fit_gpr`` fits on that target alone, bit for bit.

    The fits share the squared distances, the initial hyperparameters and the
    loss evaluation at them; then Adam runs each fit to its end in turn, so an
    error of one fit, the shared evaluation counting as the first fit's, is
    raised before anything of the fits after it."""
    x = np.asarray(inputs, dtype=float).reshape(-1, 2)
    raw = [np.asarray(y, dtype=float).reshape(-1) for y in targets]
    if x.shape[0] < 2:
        raise ValueError("fitting needs at least two training points")
    if not all(np.all(np.isfinite(y)) for y in raw):
        raise ValueError("targets must be finite")

    scales = []  # (y_mean, y_std) per target
    for y in raw:
        y_std = float(np.std(y))
        scales.append((float(np.mean(y)), y_std if y_std >= 1e-12 else 1.0))
    standardized = [(y - y_mean) / y_std for y, (y_mean, y_std) in zip(raw, scales)]

    log_ls0 = math.log(_initial_length_scale(x, cfg.seed))
    log_noise0 = math.log(cfg.init_noise)
    theta0 = np.array([log_ls0, 0.0, log_noise0] if cfg.kernel == "rq"
                      else [log_ls0, log_noise0])

    work = (workspace or _Workspace(len(x))).arrays(len(x))
    d2 = _sq_dists(x, x, out=work[:2])  # the Gram matrix is loss scratch afterwards
    firsts = _neg_lml(theta0, d2, standardized, cfg.kernel, cfg.jitter, work[1:],
                      gradient=cfg.iterations > 1)
    models = []
    for y, (y_mean, y_std), target, first in zip(raw, scales, standardized, firsts):
        best_theta, trace, (alpha_vec, jitter_used) = _adam_minimize(
            lambda th, gradient, target=target: _neg_lml(
                th, d2, [target], cfg.kernel, cfg.jitter, work[1:], gradient=gradient)[0],
            theta0, cfg, first)
        kernel = _theta_to_config(best_theta, cfg.kernel, cfg.jitter)
        models.append(GprModel(kernel=kernel, train_x=x, train_y=y, y_mean=y_mean,
                               y_std=y_std, alpha_vec=alpha_vec, jitter_used=jitter_used,
                               loss_trace=trace))
    return models


def fit_gpr(inputs: np.ndarray, targets: np.ndarray, cfg: GprConfig = GprConfig(),
            workspace: _Workspace | None = None) -> GprModel:
    """Standardize targets, optimize hyperparameters with Adam, and return the
    model conditioned at the best loss seen, with the ``alpha_vec`` and jitter
    that loss was computed from. The work arrays come from ``workspace``, of at
    least as many points; by default one is allocated for this fit. The fit
    runs on one BLAS thread, as it does in ``parallel.run_jobs``, so it gives
    the same bits wherever it is called."""
    _linalg()  # before the pin, which then holds scipy's OpenBLAS too
    with _one_blas_thread():
        return _fit_targets(inputs, [targets], cfg, workspace)[0]


# ---------------------------------------------------------------------------
# Paired models and rollout
# ---------------------------------------------------------------------------


@dataclass
class GprModelPair:
    """Velocity-field model for one (entering direction, maneuver) cluster."""

    gp_x: GprModel
    gp_y: GprModel
    cluster: tuple  # (Direction, Maneuver)

    def __post_init__(self) -> None:
        if self.gp_x.train_x.shape != self.gp_y.train_x.shape or not np.array_equal(
            self.gp_x.train_x, self.gp_y.train_x
        ):
            raise ValueError("paired models must share training inputs")


def rollout(pair: GprModelPair, starts: np.ndarray, steps: int, dt: float,
            streams: Sequence[tuple] | None = None) -> np.ndarray:
    """Integrate the predicted velocity field forward from ``(B, 2)`` starts
    over ``steps`` Euler steps of ``dt``; returns the ``(B, steps, 2)``
    predicted points.

    Each step queries both component GPs at the ``B`` current positions; the
    two GPs share their training inputs, so one distance matrix serves both.
    The rows are evaluated at most ``_ROLLOUT_BLOCK_ROWS`` at a time, so the
    kernel temporaries stay O(_ROLLOUT_BLOCK_ROWS n) however large ``B`` is.

    Without ``streams`` the rollout follows the predictive mean. With them it
    samples each component from its predictive normal, independently per
    start and step: ``streams`` splits the rows, in order, into noise streams
    of ``(entropy, rows)``, each seeding ``np.random.default_rng(entropy)``
    and drawing one ``(rows, 2)`` normal per step, so a stream's noise does
    not depend on the rows batched with it. Sampling reads the Cholesky
    factors, so a sampled rollout loads LAPACK before its first step.
    """
    if steps < 1 or not dt > 0:
        raise ValueError(f"rollout needs steps >= 1 and dt > 0, got {steps!r} and {dt!r}")
    pos = np.asarray(starts, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or not np.all(np.isfinite(pos)):
        raise ValueError("starts must be finite (x, y) rows of shape (B, 2)")
    rngs = []
    if streams is not None:
        _linalg()
        sizes = [rows for _, rows in streams]
        if sum(sizes) != len(pos) or any(rows < 0 for rows in sizes):
            raise ValueError("streams must split the rows into consecutive runs")
        bounds = np.cumsum([0, *sizes]).tolist()
        rngs = [(np.random.default_rng(entropy), lo, hi)
                for (entropy, _), lo, hi in zip(streams, bounds, bounds[1:])]
    gps = (pair.gp_x, pair.gp_y)
    train_x = pair.gp_x.train_x
    train_sq = np.sum(train_x * train_x, axis=1)
    out = np.empty((len(pos), steps, 2), dtype=float)
    vel = np.empty_like(pos)
    sd = np.empty_like(pos)
    for i in range(steps):
        for lo in range(0, len(pos), _ROLLOUT_BLOCK_ROWS):
            block = pos[lo:lo + _ROLLOUT_BLOCK_ROWS]
            d2 = _sq_dists(block, train_x, train_sq)
            for c, gp in enumerate(gps):
                k = _kernel_from_d2(gp.kernel, d2)
                vel[lo:lo + len(block), c] = gp.y_mean + gp.y_std * (k @ gp.alpha_vec)
                if rngs:
                    sd[lo:lo + len(block), c] = np.sqrt(_predictive_variance(gp, k.T))
        for rng, lo, hi in rngs:
            vel[lo:hi] = rng.normal(vel[lo:hi], sd[lo:hi])
        pos = pos + vel * dt
        out[:, i] = pos
    return out


# ---------------------------------------------------------------------------
# Cluster training and persistence
# ---------------------------------------------------------------------------


def cluster_key(direction: Direction, maneuver: Maneuver) -> str:
    return f"{direction.value}:{maneuver.value}"


def fit_cluster(cluster: tuple, points: np.ndarray, cfg: GprConfig,
                workspace: _Workspace | None = None) -> GprModelPair:
    """The model pair of one cluster from its ``(n, 4)`` rows of x, y, vx and
    vy: both velocity components fitted together on the shared positions, the
    x velocity first, each as ``fit_gpr`` fits it alone, on one BLAS thread."""
    _linalg()  # before the pin, which then holds scipy's OpenBLAS too
    with _one_blas_thread():
        gp_x, gp_y = _fit_targets(points[:, :2], (points[:, 2], points[:, 3]), cfg, workspace)
    return GprModelPair(gp_x=gp_x, gp_y=gp_y, cluster=cluster)


def cluster_fit_jobs(dataset: Dataset, cfg: GprConfig = GprConfig()) -> dict:
    """One zero-argument job per (direction, maneuver) cluster of at least two
    rows: cluster -> its ``fit_cluster`` call, which returns the cluster's
    ``GprModelPair``. A cluster over ``cfg.max_points`` rows is subsampled with
    a seed from its fixed index. Each job computes the squared distances, the
    initial hyperparameters and the first loss evaluation once for both
    velocity components. The jobs run in any process; they share one
    ``_Workspace`` sized to the largest cluster (one copy per forked worker),
    released with the calls. LAPACK is loaded here, so that workers forked
    to run the jobs inherit it pinned to one BLAS thread."""
    _linalg()
    buckets: dict[tuple, list] = {}
    for traj in dataset.vehicles:
        if traj.entering_direction is None or traj.maneuver is None:
            continue
        if traj.maneuver not in SUPPORTED_MANEUVERS:
            continue
        buckets.setdefault((traj.entering_direction, traj.maneuver), []).append(
            traj.points[traj.valid, 1:5])  # x, y, vx, vy

    cluster_data: dict = {}
    cells = [(d, m) for d in Direction for m in SUPPORTED_MANEUVERS]
    for idx, cell in enumerate(cells):
        data = np.concatenate(buckets.get(cell, [np.empty((0, 4))]))
        if len(data) < 2:
            continue
        if len(data) > cfg.max_points:
            rng = np.random.default_rng(cfg.seed + idx)
            pick = np.sort(rng.choice(len(data), cfg.max_points, replace=False))
            data = data[pick]
        cluster_data[cell] = data

    workspace = _Workspace(max(map(len, cluster_data.values()), default=0))
    return {cell: partial(fit_cluster, cell, data, cfg, workspace)
            for cell, data in cluster_data.items()}


def _pack(values: np.ndarray) -> str:
    """Base64 text of ``values`` as little-endian IEEE-754 float64 bytes, rows
    one after another."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unpack(text, name: str, width: int = 1) -> np.ndarray:
    """The float64 values that ``_pack`` wrote as ``text``, as a writable
    native array: ``(n,)`` for ``width`` 1, else ``(n, width)``. A ``text``
    that is not a string, not strict base64 (only the base64 alphabet, and
    exactly the padding its last group needs) or not a whole number of rows
    raises ``InputError`` naming ``name``."""
    if not isinstance(text, str):
        raise InputError(f"{name} must be base64 text, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise InputError(f"{name} is not base64 text: {exc}") from exc
    if len(text) != (len(raw) + 2) // 3 * 4:  # the decoder skips padding past the end
        raise InputError(f"{name} is not base64 text: {len(text)} characters for "
                         f"{len(raw)} bytes")
    if len(raw) % (8 * width):
        raise InputError(f"{name} holds {len(raw)} bytes, not a multiple of {8 * width}")
    values = np.frombuffer(raw, dtype="<f8").astype(float)  # a native, writable copy
    return values if width == 1 else values.reshape(-1, width)


def _model_to_dict(model: GprModel) -> dict:
    return {
        "kind": model.kernel.kind,
        "length_scale": model.kernel.length_scale,
        "rq_alpha": model.kernel.rq_alpha,
        "noise_variance": model.kernel.noise_variance,
        "jitter": model.jitter_used,
        "y_mean": model.y_mean,
        "y_std": model.y_std,
        "train_y": _pack(model.train_y),
        "alpha_vec": _pack(model.alpha_vec),
        "loss_trace": list(model.loss_trace),
    }


def _model_from_dict(data: dict, x: np.ndarray) -> GprModel:
    """Rebuild one GP on the cluster's shared ``(n, 2)`` training inputs. The
    stored ``alpha_vec`` is used as written; the Cholesky factor stays lazy."""
    try:
        params = {k: float(data[k]) for k in ("length_scale", "rq_alpha",
                                              "noise_variance", "y_std")}
        jitter, y_mean = float(data["jitter"]), float(data["y_mean"])
        y_text, alpha_text = data["train_y"], data["alpha_vec"]
        kind = data["kind"]
        loss_trace = data.get("loss_trace", [])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed GP entry: {exc!r}") from exc
    if not (isinstance(loss_trace, list) and all(map(is_finite_number, loss_trace))):
        raise InputError("GP loss_trace must be a list of finite numbers")
    bad = [k for k, v in params.items() if not (math.isfinite(v) and v > 0)]
    if bad:
        raise InputError(f"GP parameters {bad} must be positive and finite")
    if not (math.isfinite(jitter) and jitter >= 0 and math.isfinite(y_mean)):
        raise InputError("GP jitter must be nonnegative and y_mean finite")
    y, alpha_vec = _unpack(y_text, "GP train_y"), _unpack(alpha_text, "GP alpha_vec")
    for name, values in (("train_y", y), ("alpha_vec", alpha_vec)):
        if values.shape != (len(x),) or not np.all(np.isfinite(values)):
            raise InputError(f"GP {name} must hold {len(x)} finite values")
    cfg = KernelConfig(kind=kind, length_scale=params["length_scale"],
                       rq_alpha=params["rq_alpha"],
                       noise_variance=params["noise_variance"], jitter=jitter)
    return GprModel(kernel=cfg, train_x=x, train_y=y, y_mean=y_mean,
                    y_std=params["y_std"], alpha_vec=alpha_vec,
                    jitter_used=jitter, loss_trace=loss_trace)


def save_cluster_models(models: dict, path: str | Path) -> None:
    """Write every cluster's shared training inputs once, then its two GPs,
    as compact JSON. The arrays ``train_x`` (row-major), ``train_y`` and
    ``alpha_vec`` are stored as base64 text of their little-endian float64
    bytes, so the file holds the fitted values exactly and neither writing
    nor reading it formats or parses a float as decimal text; the scalars and
    ``loss_trace`` are plain JSON numbers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": MODEL_FILE_VERSION,
        "clusters": {
            cluster_key(d, m): {
                "train_x": _pack(pair.gp_x.train_x),
                "gp_x": _model_to_dict(pair.gp_x),
                "gp_y": _model_to_dict(pair.gp_y),
            }
            for (d, m), pair in sorted(
                models.items(), key=lambda kv: cluster_key(kv[0][0], kv[0][1])
            )
        },
    }
    path.write_text(json.dumps(payload, sort_keys=True))


def load_cluster_models(path: str | Path) -> dict:
    """The cluster model pairs of a ``save_cluster_models`` file, keyed by
    ``(Direction, Maneuver)``, each GP the saved model bit for bit, with
    writable native float64 arrays. A file of another version, or with a
    malformed entry (an array field that is not strict base64 text of a whole
    number of points, the wrong point count, a non-finite value, a
    hyperparameter that is not positive and finite), raises ``InputError``
    naming the file."""
    payload = read_json_object(path, "model", MODEL_FILE_VERSION, "train")
    clusters = payload.get("clusters")
    if not isinstance(clusters, dict):
        raise InputError(f"model file {path} holds no clusters mapping")
    try:
        return dict(_pair_from_dict(key, entry) for key, entry in clusters.items())
    except InputError as exc:
        raise InputError(f"model file {path}: {exc}") from exc


def _pair_from_dict(key: str, entry: dict) -> tuple:
    """One cluster of a model file: its cell and its ``GprModelPair``."""
    try:
        d_str, m_str = key.split(":")
        cell = (Direction(d_str), Maneuver(m_str))
        x_text, gp_x, gp_y = entry["train_x"], entry["gp_x"], entry["gp_y"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed cluster {key!r}: {exc!r}") from exc
    x = _unpack(x_text, f"train_x of cluster {key}", width=2)
    if len(x) == 0 or not np.all(np.isfinite(x)):
        raise InputError(f"train_x for cluster {key} must be finite (n, 2) rows")
    return cell, GprModelPair(gp_x=_model_from_dict(gp_x, x), gp_y=_model_from_dict(gp_y, x),
                              cluster=cell)
