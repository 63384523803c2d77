"""Reweighted low-rank plus sparse decomposition of a Casorati matrix.

The data model is D = U V^H + B + N: a slowly varying tissue component with a
low-rank factorization, a sparse blood component B, and noise. The solver
minimizes

    0.5 * ||D - U V^H - B||_F^2
        + lambda_c * (||U W_c^(1/2)||_F^2 + ||V W_c^(1/2)||_F^2)
        + lambda_b * ||B o W_b^(1/2)||_F^2

by alternating exact block updates, where the diagonal column weights W_c and
the elementwise weights W_b are refreshed every iteration from the current
iterate (iteratively reweighted least squares). The weights take the power
-1/2 of the regularized energies, so the weighted quadratic terms behave like
a column-wise l2,1 penalty on the factors and an elementwise l1 penalty on B.
W_b is 1 / s with s = sqrt(|B|^2 + epsilon), and the code works with s.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .casorati import SolverError, hermitian_inverse, orthonormal_columns

_log = logging.getLogger(__name__)


@dataclass
class IrlsConfig:
    """Solver settings.

    Args:
        d: inner dimension of the tissue factorization (columns of U).
        lambda_c: penalty weight on the factor columns.
        lambda_b: penalty weight on the blood matrix.
        epsilon: weight regularizer keeping all IRLS weights finite.
        max_iter: iteration cap.
        tol: relative-change stopping threshold.

    The solver always scales its input by 1/max|D| and the results back
    afterwards (prepare_input), so the lambda/epsilon defaults transfer
    across datasets.
    """

    d: int = 6
    lambda_c: float = 1.0
    lambda_b: float = 0.01
    epsilon: float = 1e-8
    max_iter: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not (0 <= self.lambda_c < np.inf and 0 <= self.lambda_b < np.inf):
            raise ValueError("penalty weights must be finite and nonnegative")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
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


@dataclass
class IrlsTrace:
    """Per-iteration solver history.

    Attributes:
        iterations: number of iterations actually run.
        convergence: relative-change metric per iteration.
        objective: objective value after each iteration's block updates,
            evaluated with that iteration's weights.
        objective_pre: objective value before the same updates with the same
            weights; objective <= objective_pre certifies block descent. Its
            fit term is carried over from the previous iteration's objective,
            which was evaluated on the same state.
        w_c_history: diagonal of the column weight matrix used by each
            iteration's factor updates.
    """

    iterations: int
    convergence: np.ndarray
    objective: np.ndarray
    objective_pre: np.ndarray
    w_c_history: list


def column_energy(u, v):
    """Joint squared norm of each factor column pair, summed over both factors."""
    return (np.abs(u) ** 2).sum(axis=0) + (np.abs(v) ** 2).sum(axis=0)


def lowrank_weights(energy, epsilon):
    """Column weights from the joint energy of each factor column pair.

    Args:
        energy: column_energy of the basis and coefficient matrices.
        epsilon: positive regularizer.

    Returns:
        1-d float64 array, the diagonal of the weight matrix, with entries
        (energy + epsilon)^(-1/2); it is formed in double whatever the
        factors' precision, so an epsilon below the single-precision range
        still keeps it finite.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return (energy.astype(np.float64) + epsilon) ** -0.5


def gram_inverse(f, w_diag):
    """M^-1 for the factor updates' Gram matrix M = F^H F + diag(w_diag), in complex128.

    F^H F is formed in F's precision, M and its inverse in complex128, so
    hermitian_inverse's residual bound holds for complex64 factors too. This
    is the one place M is formed and inverted; _factor_solve and the
    network's adjoint share it, so the adjoint differentiates the bits the
    forward pass used.
    """
    gram = (f.conj().T @ f).astype(np.complex128, copy=False) + np.diag(w_diag)
    return hermitian_inverse(gram)


def _factor_solve(f, p, w_diag):
    """X = P M^-1 with M = F^H F + diag(w_diag): the shared factor update.

    P comes in X's layout, R^H U (n_frames x d) for V and R V (n_space x d)
    for U, so X M = P is the update's normal equation. P comes in F's
    precision, but the product with M^-1 = gram_inverse(F, w_diag) is
    formed in complex128; the inverse's refinement runs on d columns, not
    on the n_space columns of a right-hand side in P^H's layout. Before X is
    narrowed back to F's dtype, every real or imaginary part below
    sqrt(finfo.tiny / finfo.eps) of that dtype (about 3.1e-16 for complex64,
    1e-146 for complex128) is set to zero. The column reweighting shrinks
    the columns it switches off geometrically; flushed at this floor, such a
    column turns exactly zero, and its column of P is then zero too. The
    product of any two kept parts is at least tiny / eps, a normal number,
    so the next Gram matrix X^H X meets no subnormal operand, which costs
    many times a normal one.
    """
    x = p.astype(np.complex128, copy=False) @ gram_inverse(f, w_diag)
    info = np.finfo(f.dtype)
    floor = np.sqrt(info.tiny / info.eps)
    for part in (x.real, x.imag):
        part[np.abs(part) < floor] = 0.0
    return x.astype(f.dtype, copy=False)


def blood_scale(b_sq, epsilon, out=None):
    """The blood update's scale s = sqrt(|B|^2 + epsilon) from b_sq = |B|^2, into out if given.

    The elementwise blood weights are 1 / s. epsilon counts as at least the
    smallest normal number of b_sq's dtype, so s stays positive where B is
    zero; a smaller epsilon would round away. s takes b_sq's precision, and
    out may be b_sq. This is the one place its order of operations is
    written; update_step and the network's adjoint share it.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    s = np.add(b_sq, max(epsilon, float(np.finfo(b_sq.dtype).tiny)), out=out)
    return np.sqrt(s, out=s)


def blood_shrink(s, lambda_b, out=None):
    """The blood update's real factor s / (s + 2 lambda_b), in s's precision, into out if given.

    B = R s / (s + 2 lambda_b) is R / (1 + 2 lambda_b / s), the exact
    minimizer of the weighted penalty with weights 1 / s. This is the one
    place its order of operations is written; update_step and the network's
    adjoint share it. The factor is at most 1, and exactly 1 for
    lambda_b = 0. A penalty weight beyond the dtype's range makes the
    denominator inf, and the factor, so B, exactly zero.
    """
    with np.errstate(over="ignore"):
        out = np.add(s, 2.0 * lambda_b, out=out)
    return np.divide(s, out, out=out)


def factor_updates(u, r, w_diag):
    """V and then U from r = D - B: a step's two factor updates.

    r feeds both updates and is not changed. R^H U is formed as
    conj(R^T conj(U)), without a full-matrix conjugate copy. This is the one
    place their order of operations is written; update_step and the
    network's adjoint share it.
    """
    v = _factor_solve(u, (r.T @ u.conj()).conj(), w_diag)
    u = _factor_solve(v, r @ v, w_diag)
    return u, v


def update_step(d_mat, u, resid, b_sq, lambda_b, w_diag, epsilon, spare=None, s_out=None):
    """One solver iteration, which is also one unfolded network layer.

    Forms the blood scale s from the entering B, then updates B, V and U in
    turn: B = R s / (s + 2 lambda_b) with R = D - U V^H, one sqrt, add,
    divide and multiply pass. The residual D - B is formed once and feeds
    both factor updates. Apart from s, the step allocates no full matrix.

    Args:
        d_mat: data matrix D.
        u: basis entering the step.
        resid: D - U V^H for the entering factors. The step overwrites it:
            its buffer becomes the new B.
        b_sq: |B|^2 of the entering blood matrix; a (1, 1) zero stands for
            B = 0 and makes s one broadcast value.
        lambda_b: blood penalty weight.
        w_diag: diagonal added to both Gram matrices; 2 lambda_c W_c in the
            solver, the learned weight diagonal in a network layer.
        epsilon: positive blood-scale regularizer (see blood_scale).
        spare: a free C-ordered buffer of resid's shape and dtype, made
            here when None. The real factor s / (s + 2 lambda_b) goes into
            its first bytes, and then D - B into it.
        s_out: where s goes, b_sq itself or a fresh array when None.

    Returns:
        (u, v, b, s): the updated factors and blood matrix, and the blood
        scale the step used, whose reciprocal is the blood weights.
    """
    s = blood_scale(b_sq, epsilon, out=s_out)
    if spare is None:
        spare = np.empty(resid.shape, resid.dtype)
    shrink = spare.reshape(-1).view(s.dtype)[:s.size].reshape(s.shape)
    b = np.multiply(resid, blood_shrink(s, lambda_b, out=shrink), out=resid)
    u, v = factor_updates(u, np.subtract(d_mat, b, out=spare), w_diag)
    return u, v, b, s


def squared_norm(f):
    """||F||_F^2 of a C-ordered matrix, as a float; exactly 0 for a zero F.

    Row sums of squares run in F's precision over its real view and are
    added in float64, so a complex64 norm errs by about one row's float32
    rounding. No BLAS call is made: the bits do not depend on threads.
    """
    x = f.view(f.real.dtype) if np.iscomplexobj(f) else f
    return float(np.einsum("ij,ij->i", x, x).sum(dtype=np.float64))


def _relative_change(num, den):
    """num / den, where den is the squared norm of the previous estimate."""
    if den == 0.0:
        if num == 0.0:
            return 0.0
        raise ValueError("previous iterate is zero; relative change undefined")
    return num / den


def prepare_input(d_mat, d):
    """Check a Casorati matrix and scale it to peak 1 for a solve with inner dimension d.

    Args:
        d_mat: data matrix, shape (n_space, n_frames), with finite entries.
            A complex64 matrix stays complex64, so the full-matrix work runs
            in single precision on data whose peak is 1; any other matrix is
            converted to complex128.
        d: inner dimension, which must lie in [1, min(shape)].

    Returns:
        (work, scale) with work = D / scale and scale = max|D|, or D and
        1.0 for a zero matrix. work is C-ordered whatever D's layout, like
        every temporary it meets: a pass that mixes layouts takes twice as long or more.
    """
    d_mat = np.asarray(d_mat)
    if d_mat.dtype != np.complex64:
        d_mat = d_mat.astype(np.complex128, copy=False)
    if d_mat.ndim != 2:
        raise ValueError("expected a 2-d Casorati matrix")
    if not 1 <= d <= min(d_mat.shape):
        raise ValueError(f"d={d} outside [1, {min(d_mat.shape)}] for shape {d_mat.shape}")
    peak = float(np.abs(d_mat).max())
    if not np.isfinite(peak):
        raise ValueError("input matrix has non-finite entries")
    if peak > 0.0:
        return np.divide(d_mat, peak, order="C"), peak
    return np.ascontiguousarray(d_mat), 1.0


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
    # D^H U0 as conj(D^T conj(U0)): the same bits without a full conjugate copy
    v0 = (d_mat.T @ u0.conj()).conj()
    return u0, v0


def run_irls(d_mat, cfg):
    """Run the alternating reweighted solver to convergence.

    Each iteration is one update_step. Around it the loop carries the
    misfit F = (D - U V^H) - B, not the estimate E = U V^H + B = D - F: the
    objective's fit term is 0.5 ||F||^2 and the convergence metric is
    ||F_k - F_(k-1)||^2 / ||D - F_(k-1)||^2, the estimate's relative change,
    with every squared norm from squared_norm. |B|^2 feeds the objective's
    penalty sum(|B|^2 / s) and the next blood scale s; the column energy
    feeds the objective and the next column weights. The state entering an
    iteration is the one the previous objective was evaluated on, so
    objective_pre reuses that fit term and only its penalty terms (with the
    fresh weights) are new. Each iteration's progress goes to this module's
    logger at INFO.

    The loop runs in four complex buffers and one real one made once per
    call: D - U V^H (the next B), the step's scratch, F, and a free one for
    F_k - F_(k-1), D - F_k and then |B|^2 in its first bytes. The penalty
    sums divide into the |B|^2 and s they read; B is scaled in place.

    Args:
        d_mat: complex Casorati matrix, shape (n_space, n_frames).
        cfg: IrlsConfig.

    Returns:
        (Decomposition, IrlsTrace) pair. Stops when the relative-change
        metric falls below cfg.tol or after cfg.max_iter iterations.
    """
    work, scale = prepare_input(d_mat, cfg.d)
    u, v = _init_state(work, cfg.d)
    resid, spare, f, free = (np.empty(work.shape, work.dtype) for _ in range(4))
    s_buf = np.empty(work.shape, work.real.dtype)
    np.subtract(work, np.matmul(u, v.conj().T, out=resid), out=resid)  # D - U V^H
    np.copyto(f, resid)                 # F with B = 0
    fit = 0.5 * squared_norm(f)
    est_sq = squared_norm(np.subtract(work, f, out=free))
    b_sq = np.zeros((1, 1), dtype=work.real.dtype)  # B = 0: its weights are one broadcast value
    energy = column_energy(u, v)
    w_c = lowrank_weights(energy, cfg.epsilon)

    def objective(fit, energy, w_c, penalty):
        return fit + cfg.lambda_c * float(np.dot(w_c, energy)) + cfg.lambda_b * penalty

    conv, obj, obj_pre, wc_hist = [], [], [], []
    # overflow and NaN in an iterate surface as a non-finite objective below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            wc_hist.append(w_c)
            u, v, b, s = update_step(work, u, resid, b_sq, cfg.lambda_b, 2.0 * cfg.lambda_c * w_c,
                                     cfg.epsilon, spare, s_buf if k > 1 else None)
            obj_pre.append(objective(fit, energy, w_c, float(np.divide(b_sq, s, out=b_sq).sum())))

            resid = np.subtract(work, np.matmul(u, v.conj().T, out=spare), out=spare)
            f_prev, f = f, np.subtract(resid, b, out=free)
            change = squared_norm(np.subtract(f, f_prev, out=f_prev))
            est_sq_now = squared_norm(np.subtract(work, f, out=f_prev))
            fit = 0.5 * squared_norm(f)
            energy = column_energy(u, v)
            # |B|^2 goes into the first bytes of the free buffer; B's own buffer is the
            # next step's scratch
            b_sq = f_prev.reshape(-1).view(s_buf.dtype)[:b.size].reshape(b.shape)
            np.square(np.abs(b, out=b_sq), out=b_sq)
            spare, free = b, f_prev
            obj.append(objective(fit, energy, w_c, float(np.divide(b_sq, s, out=s_buf).sum())))
            # the fit term 0.5 ||F||^2 is not finite when B is not
            if not np.isfinite(obj[-1]):
                raise SolverError(f"non-finite iterate at iteration {k}")

            metric = _relative_change(change, est_sq)
            est_sq = est_sq_now
            conv.append(metric)
            w_c = lowrank_weights(energy, cfg.epsilon)

            _log.info("iter %3d  change %.3e  objective %.6e", k, metric, obj[-1])
            if metric < cfg.tol:
                break

    dec = Decomposition(basis_u=u, coeffs_v=v * scale, blood_b=np.multiply(b, scale, out=b))
    trace = IrlsTrace(
        iterations=len(conv),
        convergence=np.asarray(conv),
        objective=np.asarray(obj),
        objective_pre=np.asarray(obj_pre),
        w_c_history=wc_hist,
    )
    return dec, trace
