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
    """

    iterations: int
    convergence: np.ndarray
    objective: np.ndarray
    objective_pre: np.ndarray


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
    parts = x.view(np.float64)  # both parts in one pass, with no float temporary
    parts[(parts < floor) & (parts > -floor)] = 0.0
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


def update_step(d_mat, u, resid, s, lambda_b, w_diag, spare):
    """One solver iteration, which is also one unfolded network layer.

    Updates B, V and U in turn: B = R s / (s + 2 lambda_b) with
    R = D - U V^H, one add, divide and multiply pass. The residual D - B is
    formed once and feeds both factor updates, V's and then U's; the
    product (D - B)^H U is formed as conj((D - B)^T conj(U)), without a
    full-matrix conjugate copy. The step allocates no full matrix.

    Args:
        d_mat: data matrix D.
        u: basis entering the step.
        resid: D - U V^H for the entering factors. The step overwrites it:
            its buffer becomes the new B.
        s: blood scale of the entering B (see blood_scale); a (1, 1) value
            stands for B = 0.
        lambda_b: blood penalty weight.
        w_diag: diagonal added to both Gram matrices; 2 lambda_c W_c in the
            solver, the learned weight diagonal in a network layer.
        spare: a free C-ordered buffer of resid's shape and dtype. The real
            factor s / (s + 2 lambda_b) goes into its first bytes, and then
            D - B into it.

    Returns:
        (u, v, b): the updated factors and blood matrix.
    """
    shrink = spare.reshape(-1).view(s.dtype)[:s.size].reshape(s.shape)
    b = np.multiply(resid, blood_shrink(s, lambda_b, out=shrink), out=resid)
    r = np.subtract(d_mat, b, out=spare)
    v = _factor_solve(u, (r.T @ u.conj()).conj(), w_diag)
    u = _factor_solve(v, r @ v, w_diag)
    return u, v, b


def steps(work, u, v, penalties, epsilon):
    """Run update_step from (u, v) and B = 0, yielding each step's (u, v, b, resid, s).

    This is the one step loop: every solver iteration and network layer
    runs here. Step k draws its (lambda_b, w_diag) from penalties only
    after step k - 1's yield, so a caller may compute the next pair from
    what was yielded. resid is D - U V^H for the step's output factors, the
    next step's input, and s is the blood scale the step used:
    sqrt(|B_(k-1)|^2 + epsilon), one broadcast (1, 1) value at step 0,
    whose entering B is zero.

    The steps run in two complex buffers and one real one, made once per
    call, so everything yielded but u and v holds only until the generator
    resumes. The buffer holding resid becomes the next step's B, and the
    other, B's, takes the step's scratch and then the next D - U V^H. The
    next s is formed in the real buffer after the next pair is drawn, so a
    caller may read s beside b through the yield, and a caller that stops
    drawing pays for no s it does not use. It comes from |B|^2, formed
    there too, unless the caller resumes the generator with send(b_sq):
    b_sq is |B|^2 of the b just yielded, formed as np.square(np.abs(b))
    forms it, and is read only during that send. The products write into
    C-ordered buffers as numpy's own temporaries are, so every bit is the
    same as with a fresh array per pass.
    """
    resid, spare = (np.empty(work.shape, work.dtype) for _ in range(2))
    real = np.empty(work.shape, work.real.dtype)
    np.subtract(work, np.matmul(u, v.conj().T, out=resid), out=resid)
    s = blood_scale(np.zeros((1, 1), real.dtype), epsilon)
    for k, (lambda_b, w_diag) in enumerate(penalties):
        if k:  # the previous step's B is in spare
            if b_sq is None:
                b_sq = np.square(np.abs(spare, out=real), out=real)
            s = blood_scale(b_sq, epsilon, out=real)
        u, v, b = update_step(work, u, resid, s, lambda_b, w_diag, spare)
        resid = np.subtract(work, np.matmul(u, v.conj().T, out=spare), out=spare)
        b_sq = yield u, v, b, resid, s
        spare = b


def squared_norm(f):
    """||F||_F^2 of a C-ordered matrix, as a float; exactly 0 for a zero F.

    Row sums of squares run in F's precision over its real view and are
    added in float64, so a complex64 norm errs by about one row's float32
    rounding. No BLAS call is made: the bits do not depend on threads.
    """
    x = f.view(f.real.dtype)
    return float(np.einsum("ij,ij->i", x, x).sum(dtype=np.float64))


def _relative_change(num, den):
    """num / den, where den is the squared norm of the previous estimate."""
    if den == 0.0:
        if num == 0.0:
            return 0.0
        raise ValueError("previous iterate is zero; relative change undefined")
    return num / den


def prepare_input(d_mat, d):
    """Check a Casorati matrix, scale it to peak 1 and start a solve with inner dimension d.

    Args:
        d_mat: data matrix, shape (n_space, n_frames), with finite entries.
            A complex64 matrix stays complex64, so the full-matrix work runs
            in single precision on data whose peak is 1; any other matrix is
            converted to complex128.
        d: inner dimension, which must lie in [1, min(shape)].

    Returns:
        (work, scale, u0, v0). work = D / scale with scale = max|D|, or D
        and 1.0 for a zero matrix. work is C-ordered whatever D's layout, like
        every temporary it meets: a pass that mixes layouts takes twice as long or more.
        It is one copy of D in the work precision, whose real and imaginary
        parts are then multiplied by 1 / scale in that precision: the bits
        of numpy's complex division by scale, except that a part of -0.0
        stays -0.0.
        u0 is an orthonormal basis for work's leading d frames and
        v0 = work^H u0: the factors every solve and layer stack starts
        from. A zero matrix gets the canonical basis, so the zero
        decomposition is representable (orthonormal_columns would flag it
        as rank deficient).
    """
    d_mat = np.asarray(d_mat)
    if d_mat.ndim != 2:
        raise ValueError("expected a 2-d Casorati matrix")
    if not 1 <= d <= min(d_mat.shape):
        raise ValueError(f"d={d} outside [1, {min(d_mat.shape)}] for shape {d_mat.shape}")
    dtype = np.complex64 if d_mat.dtype == np.complex64 else np.complex128
    work = np.array(d_mat, dtype=dtype, order="C")
    peak = float(np.abs(work).max())
    if not np.isfinite(peak):
        raise ValueError("input matrix has non-finite entries")
    if peak > 0.0:
        # times the reciprocal, over the real view: complex division by peak + 0j
        # multiplies by the same reciprocal in its Smith loop, at four times the cost
        parts = work.view(work.real.dtype)
        rt = parts.dtype.type
        np.multiply(parts, rt(1) / rt(peak), out=parts)
        scale = peak
        u0 = orthonormal_columns(work, d)
    else:
        scale = 1.0
        u0 = np.eye(work.shape[0], d, dtype=work.dtype)
    # work^H u0 as conj(work^T conj(u0)): the same bits without a full conjugate copy
    return work, scale, u0, (work.T @ u0.conj()).conj()


def run_irls(d_mat, cfg):
    """Run the alternating reweighted solver to convergence.

    Each iteration is one step of steps, with penalties drawn from the
    rule (cfg.lambda_b, 2 lambda_c W_c) as each step begins, so every step
    takes the column weights of the previous step's output. Around the
    steps the loop carries the misfit F = (D - U V^H) - B, not the estimate
    E = U V^H + B = D - F: the objective's fit term is 0.5 ||F||^2 and the
    convergence metric is ||F_k - F_(k-1)||^2 / ||D - F_(k-1)||^2, the
    estimate's relative change, with every squared norm from squared_norm.
    |B|^2 feeds the objective's penalty sum(|B|^2 / s); the column energy
    feeds the objective and the next column weights. The state entering an
    iteration is the one the previous objective was evaluated on, so
    objective_pre reuses that fit term and only its penalty terms (with the
    fresh weights) are new. Each iteration's progress goes to this module's
    logger at INFO.

    Besides the steps' buffers, the loop runs in two complex ones made once
    per call: F, and a free one for F_k - F_(k-1), D - F_k and then, side by
    side in its real view, |B_k|^2 and its quotient by the s the step
    yielded. That |B_k|^2 is sent back into the steps, which form the next
    s from it, and the next iteration's pre-update penalty divides into it;
    B is scaled in place.

    Args:
        d_mat: complex Casorati matrix, shape (n_space, n_frames).
        cfg: IrlsConfig.

    Returns:
        (Decomposition, IrlsTrace) pair. Stops when the relative-change
        metric falls below cfg.tol or after cfg.max_iter iterations.
    """
    work, scale, u, v = prepare_input(d_mat, cfg.d)
    f, free = (np.empty(work.shape, work.dtype) for _ in range(2))
    np.subtract(work, np.matmul(u, v.conj().T, out=f), out=f)  # F with B = 0
    fit = 0.5 * squared_norm(f)
    est_sq = squared_norm(np.subtract(work, f, out=free))
    b_sq = np.zeros((1, 1), dtype=work.real.dtype)  # B = 0: its weights are one broadcast value
    energy = column_energy(u, v)
    w_c = lowrank_weights(energy, cfg.epsilon)
    # evaluated as each step draws it, so it reads the w_c the previous iteration left
    rule = ((cfg.lambda_b, 2.0 * cfg.lambda_c * w_c) for _ in range(cfg.max_iter))

    def objective(fit, energy, w_c, penalty):
        return fit + cfg.lambda_c * float(np.dot(w_c, energy)) + cfg.lambda_b * penalty

    conv, obj, obj_pre = [], [], []
    stepper = steps(work, u, v, rule, cfg.epsilon)
    # overflow and NaN in an iterate surface as a non-finite objective below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            # from the second step on, the steps form s from the |B|^2 formed here
            u, v, b, resid, s = stepper.send(b_sq if k > 1 else None)
            obj_pre.append(objective(fit, energy, w_c, float(np.divide(b_sq, s, out=b_sq).sum())))

            f_prev, f = f, np.subtract(resid, b, out=free)
            change = squared_norm(np.subtract(f, f_prev, out=f_prev))
            est_sq_now = squared_norm(np.subtract(work, f, out=f_prev))
            fit = 0.5 * squared_norm(f)
            energy = column_energy(u, v)
            b_sq, quotient = f_prev.reshape(-1).view(s.dtype).reshape(2, *b.shape)
            np.square(np.abs(b, out=b_sq), out=b_sq)
            free = f_prev
            obj.append(objective(fit, energy, w_c, float(np.divide(b_sq, s, out=quotient).sum())))
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
    )
    return dec, trace
