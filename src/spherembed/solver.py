"""Projected power iterations maximizing Tr(x^T K x) over unit-row blocks.

The feasible set is the product of unit spheres: every row of the n x d0
iterate has 2-norm 1. One iteration applies the shifted operator K and
re-normalizes rows (with optional Nesterov-style extrapolation). The plain
iteration increases the objective strictly, by more than the squared step
norm, until it reaches a first-order critical point.

Randomness comes from numpy's default_rng (PCG64) seeded by the config, so
runs are reproducible across platforms.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .graphs import _csv_text


def _check_count(name, value, low):
    """ValueError naming the count unless value is an integer >= low."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index(True) is 1
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def _check_real(name, value):
    """ValueError naming the setting unless value is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is not Real
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass
class SolverConfig:
    d0: int = 30
    tol: float = 1e-8
    max_iter: int = 10000
    momentum: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_count("d0", self.d0, 2)
        _check_real("tol", self.tol)
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        _check_count("max_iter", self.max_iter, 1)
        if not isinstance(self.momentum, (bool, np.bool_)):
            raise ValueError(f"momentum must be a bool, got {self.momentum!r}")
        _check_count("seed", self.seed, 0)


@dataclass
class SolveResult:
    """Final iterate with convergence diagnostics.

    objective is always Tr(x^T K x) at the final iterate; trace holds the
    series the stopping test read, one entry per update after trace[0] =
    f(x0) (with momentum the surrogate Tr((K x_{j-1})^T x_j), not the
    objective itself). relgrad is the relative Riemannian gradient
    ||grad|| / ||Mx|| at the final iterate, with
    grad_i = (Mx)_i - (x_i . (Mx)_i) x_i: it is 0 exactly at a critical
    point and, unlike delta, does not grow with n. step_norms_sq and
    delta_trace are recorded by the plain method only.
    """

    x: np.ndarray
    objective: float
    delta: float
    trace: np.ndarray
    iterations: int
    converged: bool
    method: str
    relgrad: float = None
    step_norms_sq: np.ndarray = None
    delta_trace: np.ndarray = None


def _row_norms(X, out=None):
    """2-norm of every row of X, in one pass over X; written to out if given."""
    out = np.einsum("ij,ij->i", X, X, out=out)
    return np.sqrt(out, out=out)


def project_rows(X, norms=None, out=None):
    """Normalize each row to unit 2-norm; zero rows are an error.

    norms, when given, are the row norms of X, already computed. out, when
    given, is the array the rows are written to; it may be X itself.
    """
    X = np.asarray(X, dtype=float)
    if norms is None:
        norms = _row_norms(X)
    if not norms.all():  # a zero norm, without an n-long mask
        raise ValueError("cannot project a zero row onto the sphere")
    return np.divide(X, norms[:, None], out=out)


def objective(k, x):
    """f(x) = Tr(x^T K x)."""
    return float(np.vdot(x, k.apply(x)))


def first_order_criterion(k, x):
    """Delta(x) = sum_i ||(Kx)_i|| - Tr(x^T K x); zero exactly at fixed points of x -> P(Kx)."""
    y = k.apply(x)
    return float(np.sum(_row_norms(y)) - np.vdot(x, y))


def _relative_gradient(k, x, y, spare):
    """||grad|| / ||Mx|| at the unit-row x, from y = K x; overwrites y and spare.

    M x = y - (v - diag M) x, and grad_i = (Mx)_i - (x_i . (Mx)_i) x_i
    is the part of (Mx)_i tangent to the sphere at x_i. Both go through the
    two n x d buffers, so no pass allocates a block.
    """
    mx = np.multiply(x, k.diagonal_delta()[:, None], out=spare)
    np.subtract(y, mx, out=mx)
    mx_norm = math.sqrt(np.vdot(mx, mx))
    radial = np.multiply(x, np.einsum("ij,ij->i", x, mx)[:, None], out=y)
    grad = np.subtract(mx, radial, out=mx)
    return math.sqrt(np.vdot(grad, grad)) / mx_norm if mx_norm > 0 else 0.0


def _initial_point(k, cfg, rng, x0):
    """x_0 in a new block: a copy of x0, or the sampled columns of K projected in place."""
    if x0 is not None:
        return np.array(x0, dtype=float, order="C")
    columns = k.sample_columns(cfg.d0, rng)
    return project_rows(columns, out=columns)


def _finite_objective(x, y, update):
    """Tr(x^T y), or FloatingPointError if it is not finite.

    A NaN or infinite entry anywhere in y = K x makes the sum non-finite, so
    one test per update catches it before the iterates are lost.
    """
    f = float(np.vdot(x, y))
    if not math.isfinite(f):
        raise FloatingPointError(f"objective is {f} at update {update}: "
                                 "K x has non-finite entries")
    return f


def solve(k, cfg, rng=None, x0=None):
    """Projected power iteration x_j = P(z_j), maximizing Tr(x^T K x).

    Update j extrapolates the cached K images,
    z_j = K x_{j-1} + r_j (K x_{j-1} - K x_{j-2}), so it costs one apply.
    The plain method (cfg.momentum False) has r_j = 0 and increases the
    objective by more than the squared step norm; momentum uses
    r_j = (j-1)/(j+2) and is not guaranteed monotone. The stopping test
    reads the objective for the plain method and the surrogate
    Tr((K x_{j-1})^T x_j) with momentum.

    Beyond the apply, an update makes a few dense O(n d0) passes: z_j (with
    momentum), the row norms, the projection and one inner product, plus
    the step norm and the next row norms for the plain method.

    No update allocates. The loop holds three n x d0 blocks and one n-long
    vector of row norms, made once per call: the start (the sampled columns
    projected in place, or a copy of x0), its image k.apply(x_0) and a third
    from np.empty. The blocks hold the iterate x_{j-1}, its image K x_{j-1}
    and, in the third, K x_{j-2} (momentum only); update j writes z_j
    (momentum only) and then x_j into the third, and K x_j into x_{j-1}'s
    block through k.apply(x_j, out=that block). So k.apply(X, out=B) must
    write K X into B and return B, and k.apply(X) must return a new array.
    The result's x is one of the three blocks, so no later call shares it.

    Once the loop ends, relgrad costs a few more such passes, through the
    last K x and the third block; it reads k.diagonal_delta().

    Stops once the relative change of that series drops below cfg.tol
    (tested from the second update on) or after cfg.max_iter updates, in
    which case the result is flagged not converged. iterations counts
    updates and trace[0] = f(x0), so len(trace) == iterations + 1. Raises
    FloatingPointError at the first update whose K x is not finite.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    x = _initial_point(k, cfg, rng, x0)
    plain = not cfg.momentum
    y = k.apply(x)
    w = np.empty(x.shape)  # the third block
    f = _finite_objective(x, y, 0)
    trace = [f]
    # the plain method reuses the row norms of Kx for the next projection
    norms_buffer = np.empty(len(x))
    y_norms = _row_norms(y, out=norms_buffer) if plain else None
    deltas = [float(np.sum(y_norms) - f)] if plain else None
    steps = []
    j = 0
    converged = False
    while j < cfg.max_iter:
        j += 1
        r = 0.0 if plain else (j - 1) / (j + 2)
        z, norms = y, y_norms
        if r > 0:
            z = np.subtract(y, w, out=w)
            z *= r
            z += y
            norms = _row_norms(z, out=norms_buffer)
            # extrapolation can in principle produce a zero row; fall back
            # to the non-extrapolated power-iteration row there
            if not norms.all():
                bad = norms == 0.0
                z[bad] = y[bad]
                norms = None
        if norms is None:  # momentum's first update, or rows that fell back
            norms = _row_norms(z, out=norms_buffer)
        x_new = project_rows(z, norms, out=w)
        if plain:
            step = np.subtract(x_new, x, out=x)  # x_{j-1} is not needed after this
            steps.append(float(np.vdot(step, step)))
        else:
            trace.append(float(np.vdot(y, x_new)))
        x, y, w = x_new, k.apply(x_new, out=x), y
        f = _finite_objective(x, y, j)
        if plain:
            y_norms = _row_norms(y, out=norms_buffer)
            deltas.append(float(np.sum(y_norms) - f))
            trace.append(f)
        if j >= 2 and abs(trace[-1] - trace[-2]) / trace[-2] < cfg.tol:
            converged = True
            break
    delta = float(np.sum(_row_norms(y, out=norms_buffer) if y_norms is None else y_norms) - f)
    return SolveResult(x=x, objective=f, delta=delta,
                       trace=np.array(trace), iterations=j, converged=converged,
                       method="gpm" if plain else "gpmm",
                       relgrad=_relative_gradient(k, x, y, w),
                       step_norms_sq=np.array(steps) if plain else None,
                       delta_trace=np.array(deltas) if plain else None)


def write_trace_csv(result, include_delta=False):
    """Text of result.trace as "iteration,objective[,delta_criterion]".

    The objective column is the series the stop test read (see SolveResult):
    the objective Tr(x_j^T K x_j) for the plain method, the surrogate
    Tr((K x_{j-1})^T x_j) with momentum. The header keeps its name either
    way.
    """
    header, values = ["iteration", "objective"], result.trace
    if include_delta and result.delta_trace is not None:
        header.append("delta_criterion")
        values = np.column_stack([result.trace, result.delta_trace])
    return _csv_text(header, range(len(result.trace)), values)
