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
import operator
from dataclasses import dataclass

import numpy as np

from .graphs import _csv_text


def _check_count(cfg, name, low):
    """ValueError naming the field unless cfg.<name> is an integer >= low."""
    value = getattr(cfg, name)
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


@dataclass
class SolverConfig:
    d0: int = 30
    tol: float = 1e-8
    max_iter: int = 10000
    momentum: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_count(self, "d0", 2)
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        _check_count(self, "max_iter", 1)
        if not isinstance(self.momentum, (bool, np.bool_)):
            raise ValueError(f"momentum must be a bool, got {self.momentum!r}")
        _check_count(self, "seed", 0)


@dataclass
class SolveResult:
    """Final iterate with convergence diagnostics.

    objective is always Tr(x^T K x) at the final iterate; trace holds the
    series the stopping test read, one entry per update after trace[0] =
    f(x0) (with momentum the surrogate Tr((K x_{j-1})^T x_j), not the
    objective itself). step_norms_sq and delta_trace are recorded by the
    plain method only.
    """

    x: np.ndarray
    objective: float
    delta: float
    trace: np.ndarray
    iterations: int
    converged: bool
    method: str
    step_norms_sq: np.ndarray = None
    delta_trace: np.ndarray = None


def _row_norms(X):
    """2-norm of every row of X, in one pass over X."""
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def project_rows(X, norms=None, out=None):
    """Normalize each row to unit 2-norm; zero rows are an error.

    norms, when given, are the row norms of X, already computed. out, when
    given, is the array the rows are written to; it may be X itself.
    """
    X = np.asarray(X, dtype=float)
    if norms is None:
        norms = _row_norms(X)
    if (norms == 0.0).any():
        raise ValueError("cannot project a zero row onto the sphere")
    return np.divide(X, norms[:, None], out=out)


def objective(k, x):
    """f(x) = Tr(x^T K x)."""
    return float(np.vdot(x, k.apply(x)))


def first_order_criterion(k, x):
    """Delta(x) = sum_i ||(Kx)_i|| - Tr(x^T K x); zero exactly at fixed points of x -> P(Kx)."""
    y = k.apply(x)
    return float(np.sum(_row_norms(y)) - np.vdot(x, y))


def _initial_point(k, cfg, rng, x0):
    if x0 is not None:
        return np.array(x0, dtype=float, copy=True)
    return project_rows(k.sample_columns(cfg.d0, rng))


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
    the step norm and the next row norms for the plain method. No pass
    allocates: the plain method projects K x_{j-1} in place, so k.apply
    must return a new array, and momentum builds z_j in a spare buffer
    that swaps roles with the iterate every update.

    Stops once the relative change of that series drops below cfg.tol
    (tested from the second update on) or after cfg.max_iter updates, in
    which case the result is flagged not converged. iterations counts
    updates and trace[0] = f(x0), so len(trace) == iterations + 1. Raises
    FloatingPointError at the first update whose K x is not finite.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    x = _initial_point(k, cfg, rng, x0)
    plain = not cfg.momentum
    y = y_prev = k.apply(x)
    f = _finite_objective(x, y, 0)
    trace = [f]
    # the plain method reuses the row norms of Kx for the next projection
    y_norms = _row_norms(y) if plain else None
    deltas = [float(np.sum(y_norms) - f)] if plain else None
    steps = []
    spare = None if plain else np.empty_like(x)  # receives z_j; x_{j-1} is spare next
    j = 0
    converged = False
    while j < cfg.max_iter:
        j += 1
        r = 0.0 if plain else (j - 1) / (j + 2)
        z, norms = y, y_norms
        if r > 0:
            z = np.subtract(y, y_prev, out=spare)
            z *= r
            z += y
            norms = _row_norms(z)
            # extrapolation can in principle produce a zero row; fall back
            # to the non-extrapolated power-iteration row there
            bad = norms == 0.0
            if bad.any():
                z[bad] = y[bad]
                norms = None
        x_new = project_rows(z, norms, out=y if plain else spare)
        if plain:
            step = np.subtract(x_new, x, out=x)  # x_{j-1} is not needed after this
            steps.append(float(np.vdot(step, step)))
        else:
            trace.append(float(np.vdot(y, x_new)))
        x, spare, y_prev = x_new, x, y
        y = k.apply(x)
        f = _finite_objective(x, y, j)
        if plain:
            y_norms = _row_norms(y)
            deltas.append(float(np.sum(y_norms) - f))
            trace.append(f)
        if j >= 2 and abs(trace[-1] - trace[-2]) / trace[-2] < cfg.tol:
            converged = True
            break
    delta = float(np.sum(_row_norms(y) if y_norms is None else y_norms) - f)
    return SolveResult(x=x, objective=f, delta=delta,
                       trace=np.array(trace), iterations=j, converged=converged,
                       method="gpm" if plain else "gpmm",
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
