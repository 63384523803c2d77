"""Reweighted low-rank plus sparse decomposition of a Casorati matrix.

The data model is D = U V^H + B + N: a slowly varying tissue component with a
low-rank factorization, a sparse blood component B, and noise. The solver
minimizes

    0.5 * ||D - U V^H - B||_F^2
        + lambda_c * (||U W_c^(1/2)||_F^2 + ||V W_c^(1/2)||_F^2)
        + lambda_b * ||B o W_b^(1/2)||_F^2

by alternating exact block updates, where the diagonal column weights W_c and
the elementwise weights W_b are refreshed every iteration from the current
iterate (iteratively reweighted least squares). With the default exponent
rho=1 the weighted quadratic terms behave like a column-wise l2,1 penalty on
the factors and an elementwise l1 penalty on B.
"""

from dataclasses import dataclass, field

import numpy as np

from .casorati import SolverError, hermitian_solve, orthonormal_columns


@dataclass
class IrlsConfig:
    """Solver settings.

    Args:
        d: inner dimension of the tissue factorization (columns of U).
        lambda_c: penalty weight on the factor columns.
        lambda_b: penalty weight on the blood matrix.
        epsilon: weight regularizer keeping all IRLS weights finite.
        rho: IRLS exponent in (0, 1]; weights use power rho/2 - 1.
        max_iter: iteration cap.
        tol: relative-change stopping threshold.
        normalize: scale the input by 1/max|D| before solving and scale the
            results back afterwards, which makes lambda/epsilon defaults
            transfer across datasets.
    """

    d: int
    lambda_c: float
    lambda_b: float
    epsilon: float = 1e-8
    rho: float = 1.0
    max_iter: int = 100
    tol: float = 1e-6
    normalize: bool = True

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not (0 <= self.lambda_c < np.inf and 0 <= self.lambda_b < np.inf):
            raise ValueError("penalty weights must be finite and nonnegative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.rho <= 1 and self.rho != 2.0:
            # rho=2 (no reweighting) is permitted for diagnostics only
            raise ValueError("rho must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass
class Decomposition:
    """Result triple: tissue basis U, coefficients V, blood matrix B."""

    basis_u: np.ndarray
    coeffs_v: np.ndarray
    blood_b: np.ndarray

    def tissue(self):
        """Tissue estimate T = U V^H."""
        return self.basis_u @ self.coeffs_v.conj().T


@dataclass
class IrlsTrace:
    """Per-iteration solver history.

    Attributes:
        iterations: number of iterations actually run.
        convergence: relative-change metric per iteration.
        objective: objective value after each iteration's block updates,
            evaluated with that iteration's weights.
        objective_pre: objective value before the same updates with the same
            weights; objective <= objective_pre certifies block descent.
        w_c_history: diagonal of the column weight matrix used by each
            iteration's factor updates.
    """

    iterations: int
    convergence: np.ndarray
    objective: np.ndarray
    objective_pre: np.ndarray
    w_c_history: list = field(default_factory=list)


def sparse_weights(b, epsilon):
    """Elementwise IRLS weights for the blood matrix.

    Args:
        b: complex matrix.
        epsilon: positive regularizer.

    Returns:
        Real matrix with entries (|b|^2 + epsilon)^(-1/2), strictly positive.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return (np.abs(b) ** 2 + epsilon) ** -0.5


def lowrank_weights(u, v, epsilon, rho=1.0):
    """Column weights from the joint energy of each factor column pair.

    Args:
        u: basis matrix, one column per component.
        v: coefficient matrix, same column count.
        epsilon: positive regularizer.
        rho: exponent parameter; the weight power is rho/2 - 1.

    Returns:
        1-d real array, the diagonal of the weight matrix.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    energy = (np.abs(u) ** 2).sum(axis=0) + (np.abs(v) ** 2).sum(axis=0) + epsilon
    return energy ** (rho / 2.0 - 1.0)


def update_blood(d_mat, u, v, w_b, lambda_b):
    """Exact minimizer for B with the factors held fixed.

    B = (D - U V^H) / (1 + 2 * lambda_b * W_b), elementwise; the denominator
    is at least 1, so |B| never exceeds the residual magnitude.
    """
    resid = d_mat - u @ v.conj().T
    return resid / (1.0 + 2.0 * lambda_b * w_b)


def update_coeffs(d_mat, b, u, w_c, lambda_c):
    """Exact minimizer for V: solves V (U^H U + 2 lambda_c W_c) = (D-B)^H U.

    Args:
        d_mat: data matrix.
        b: current blood matrix.
        u: current basis.
        w_c: diagonal of the column weight matrix (1-d array).
        lambda_c: penalty weight.

    Returns:
        Updated coefficient matrix, shape (n_frames, d).
    """
    gram = u.conj().T @ u + np.diag(2.0 * lambda_c * np.asarray(w_c, dtype=float))
    rhs = u.conj().T @ (d_mat - b)
    return hermitian_solve(gram, rhs).conj().T


def update_basis(d_mat, b, v, w_c, lambda_c):
    """Exact minimizer for U: solves U (V^H V + 2 lambda_c W_c) = (D-B) V."""
    gram = v.conj().T @ v + np.diag(2.0 * lambda_c * np.asarray(w_c, dtype=float))
    rhs = ((d_mat - b) @ v).conj().T
    return hermitian_solve(gram, rhs).conj().T


def convergence_metric(t_now, b_now, t_prev, b_prev):
    """Squared relative change of the denoised estimate T + B between iterates."""
    prev = t_prev + b_prev
    den = np.linalg.norm(prev) ** 2
    num = np.linalg.norm(t_now + b_now - prev) ** 2
    if den == 0.0:
        if num == 0.0:
            return 0.0
        raise ValueError("previous iterate is zero; relative change undefined")
    return num / den


def _init_state(d_mat, d):
    """Factor initialization: U0 spans the leading frames, V0 = D^H U0.

    An exactly zero input gets the canonical basis so the zero decomposition
    is representable (orthonormal_columns would flag it as rank deficient).
    """
    if not np.any(d_mat):
        u0 = np.zeros((d_mat.shape[0], d), dtype=d_mat.dtype)
        u0[:d, :d] = np.eye(d)
    else:
        u0 = orthonormal_columns(d_mat, d)
    v0 = d_mat.conj().T @ u0
    return u0, v0


def _objective(d_mat, u, v, b, w_b, w_c, lambda_c, lambda_b):
    fit = 0.5 * np.linalg.norm(d_mat - u @ v.conj().T - b) ** 2
    col = float(np.dot(w_c, (np.abs(u) ** 2).sum(axis=0) + (np.abs(v) ** 2).sum(axis=0)))
    spr = float((w_b * np.abs(b) ** 2).sum())
    return fit + lambda_c * col + lambda_b * spr


def run_irls(d_mat, cfg, verbose=False):
    """Run the alternating reweighted solver to convergence.

    Args:
        d_mat: complex Casorati matrix, shape (n_space, n_frames).
        cfg: IrlsConfig.
        verbose: print per-iteration progress.

    Returns:
        (Decomposition, IrlsTrace) pair. Stops when the relative-change
        metric falls below cfg.tol or after cfg.max_iter iterations.
    """
    d_mat = np.asarray(d_mat, dtype=np.complex128)
    if d_mat.ndim != 2:
        raise ValueError("expected a 2-d Casorati matrix")
    ns, nt = d_mat.shape
    if not 1 <= cfg.d <= min(ns, nt):
        raise ValueError(f"d={cfg.d} outside [1, {min(ns, nt)}] for shape {d_mat.shape}")

    scale = 1.0
    work = d_mat
    if cfg.normalize:
        peak = float(np.abs(d_mat).max())
        if peak > 0.0:
            scale = peak
            work = d_mat / peak

    u, v = _init_state(work, cfg.d)
    b = np.zeros_like(work)
    w_c = lowrank_weights(u, v, cfg.epsilon, cfg.rho)
    prev_t, prev_b = u @ v.conj().T, b

    conv, obj, obj_pre, wc_hist = [], [], [], []
    iterations = 0
    for k in range(1, cfg.max_iter + 1):
        w_b = sparse_weights(b, cfg.epsilon)
        obj_pre.append(_objective(work, u, v, b, w_b, w_c, cfg.lambda_c, cfg.lambda_b))
        wc_hist.append(w_c.copy())

        b = update_blood(work, u, v, w_b, cfg.lambda_b)
        v = update_coeffs(work, b, u, w_c, cfg.lambda_c)
        u = update_basis(work, b, v, w_c, cfg.lambda_c)

        obj.append(_objective(work, u, v, b, w_b, w_c, cfg.lambda_c, cfg.lambda_b))
        if not (np.isfinite(obj[-1]) and np.all(np.isfinite(b))):
            raise SolverError(f"non-finite iterate at iteration {k}")

        t = u @ v.conj().T
        metric = convergence_metric(t, b, prev_t, prev_b)
        conv.append(metric)
        prev_t, prev_b = t, b
        w_c = lowrank_weights(u, v, cfg.epsilon, cfg.rho)

        iterations = k
        if verbose:
            print(f"iter {k:3d}  change {metric:.3e}  objective {obj[-1]:.6e}")
        if metric < cfg.tol:
            break

    dec = Decomposition(basis_u=u, coeffs_v=v * scale, blood_b=b * scale)
    trace = IrlsTrace(
        iterations=iterations,
        convergence=np.asarray(conv),
        objective=np.asarray(obj),
        objective_pre=np.asarray(obj_pre),
        w_c_history=wc_hist,
    )
    return dec, trace
