"""Trainable unrolled variant of the reweighted decomposition solver.

Each solver iteration becomes one network layer with two learnable pieces:
the blood penalty scalar and the diagonal column-weight matrix of the factor
updates (the column penalty weight is absorbed into the latter). A layer is
one call of the baseline solver's update step (irls.update_step), so with
parameters frozen to a recorded baseline run the network reproduces it
exactly. Training minimizes the layer-averaged data-consistency loss

    (1/K) * sum_k ||D - B_k - U_k V_k^H||_F^2

the mean square of layer_residuals, with a bias-corrected adaptive-moment
optimizer. No autodiff framework is used: the gradient comes from a
hand-derived adjoint pass through the layer equations, which the tests check
against central differences of the loss. The layers run in irls.steps, the
loop the solver iterates too: infer, layer_residuals and the adjoint's
forward pass consume it, and the adjoint's rebuilt layers call its
irls.update_step. All run in the precision irls.prepare_input picks, so the
network trains in the precision it infers in.

Positivity of both learnable groups is enforced by parameterizing them
through softplus; the unconstrained values, one (K, 1 + d) array, are what
the optimizer steps on, in that shape, and what the model file stores.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import irls
from .irls import Decomposition

_log = logging.getLogger(__name__)


def softplus(x):
    """Smooth positive map log(1 + exp(x)), overflow-safe."""
    x = np.asarray(x, dtype=float)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def logistic(x):
    """softplus's derivative 1 / (1 + exp(-x)), entry by entry, as a float array.

    Each entry takes math.exp, the C library's exp, in the order
    scipy.special.expit uses, so the bits are expit's; np.exp rounds some
    entries differently. An exp(-x) beyond the double range gives 0.
    """
    def one(t):
        try:
            return 1.0 / (1.0 + math.exp(-t))
        except OverflowError:
            return 0.0
    x = np.asarray(x, dtype=float)
    return np.array([one(t) for t in x.flat]).reshape(x.shape)


def inv_softplus(y):
    """Inverse of softplus; targets at or near zero clamp to a floor of -50.

    softplus(-50) is about 2e-22, small enough that the blood update's factor
    s / (s + 2*lambda) rounds to exactly 1.0 for any blood scale
    s >= sqrt(epsilon) = 1e-4 at the default epsilon.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("positive-map targets must be nonnegative")
    with np.errstate(divide="ignore"):
        theta = np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
    return np.maximum(theta, -50.0)


@dataclass
class UnfoldedNetwork:
    """K layers of solver updates with learnable penalties.

    Attributes:
        theta: (K, 1 + d) float array of unconstrained parameters; row k is
            [theta_lambda, theta_w_1 .. theta_w_d] of layer k, whose blood
            penalty is softplus(theta_lambda) and whose weight diagonal is
            softplus(theta_w). This is also the .u2m payload order.
        epsilon: regularizer for the elementwise blood weights.
        n_space: row count the network was initialized with, when known;
            infer() rejects inputs whose row count differs.
    """

    theta: np.ndarray
    epsilon: float
    n_space: int | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 2:
            raise ValueError(f"theta must be a (K, 1 + d) array, got shape {self.theta.shape}")
        if len(self.theta) < 1 or self.d < 1:
            raise ValueError(f"a network needs at least one layer and d >= 1, "
                             f"got {len(self.theta)} layers and d={self.d}")

    @property
    def d(self):
        """Inner dimension of the factorization."""
        return self.theta.shape[1] - 1

    def penalties(self):
        """Each layer's positive-domain (lambda_b, w_c)."""
        return [(float(softplus(row[0])), softplus(row[1:])) for row in self.theta]


@dataclass
class TrainConfig:
    """Optimizer settings; the only place their limits are checked.

    Args:
        learning_rate: step size for the blood-penalty parameters.
        wc_learning_rate: step size for the weight diagonals; None resolves
            here to learning_rate / 100 (the conventional pairing).
        batch_frames: frames per training batch.
        max_epochs: epoch cap.
        patience: early stopping after this many epochs without validation
            improvement.
        seed: batch-order shuffle seed.
        grad_mode: must be "analytic"; training always steps on the
            adjoint gradient.
    """

    learning_rate: float = 0.01
    batch_frames: int = 200
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    grad_mode: str = "analytic"
    wc_learning_rate: float | None = None

    def __post_init__(self):
        if self.wc_learning_rate is None:
            self.wc_learning_rate = self.learning_rate / 100.0
        if not (0 <= self.learning_rate < np.inf and 0 <= self.wc_learning_rate < np.inf):
            raise ValueError("learning rates must be finite and nonnegative")
        if self.batch_frames < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_frames, max_epochs and patience must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.grad_mode != "analytic":
            raise ValueError(f"grad_mode must be 'analytic', got {self.grad_mode!r}")


@dataclass
class TrainHistory:
    """Loss curves: train_loss per epoch, val_loss with entry 0 pre-training."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0


def init_network(d_mat, k, d, lambda_b_init, cfg):
    """Build a network whose layers start at the baseline initialization.

    Args:
        d_mat: representative data matrix (provides the factor init), in
            the precision training runs in.
        k: layer count.
        d: inner dimension.
        lambda_b_init: initial blood penalty for every layer.
        cfg: IrlsConfig supplying lambda_c and epsilon; the initial weight
            diagonal is 2*lambda_c*W_c(U0, V0) on the data scaled to peak 1.

    Returns:
        UnfoldedNetwork.
    """
    if not 0 <= lambda_b_init < np.inf:
        raise ValueError("lambda_b_init must be finite and nonnegative")
    work, _, u0, v0 = irls.prepare_input(d_mat, d)
    w_init = 2.0 * cfg.lambda_c * irls.lowrank_weights(irls.column_energy(u0, v0), cfg.epsilon)
    theta = np.empty((k, 1 + d))
    theta[:, 0] = inv_softplus(lambda_b_init)
    theta[:, 1:] = inv_softplus(w_init)
    return UnfoldedNetwork(theta=theta, epsilon=cfg.epsilon, n_space=work.shape[0])


def layer_residuals(net, d_mat):
    """Each layer's norm ||D - B_k - U_k V_k^H||_F in input units, as K floats.

    The layers and the misfits run in the work matrix's precision on the
    input scaled to peak 1, from irls.prepare_input's start for that
    matrix. Layer k's misfit is ||(D - U_k V_k^H) - B_k|| * scale, from the
    D - U_k V_k^H that irls.steps yields, in one full temporary freed before
    the next layer runs. The training loss is the mean square of this list.
    Layer k's full decomposition is
    infer(dataclasses.replace(net, theta=net.theta[:k]), d_mat).
    """
    work, scale, u, v = irls.prepare_input(d_mat, net.d)
    return [float(np.linalg.norm(resid - b)) * scale
            for _, _, b, resid, _ in irls.steps(work, u, v, net.penalties(), net.epsilon)]


def _checkpoints(n_layers):
    """The adjoint's checkpoints: the first layers, ascending, of segments
    1, 2, 3, ... layers long counted down from the top layer, the bottom one
    possibly shorter. At 15 layers they are 0, 5, 9, 12 and 14.
    """
    starts = [n_layers - 1]
    while starts[-1] > 0:
        starts.append(max(starts[-1] - len(starts) - 1, 0))
    return starts[::-1]


def _analytic_loss_grad(net, d_mat):
    """Loss and its gradient via the adjoint of the layer equations.

    The pass runs on the input scaled to peak 1 from irls.prepare_input's
    start; the loss is quadratic in the data scale, so the gradient (and
    loss) are multiplied by its square. It keeps four things.

    Bits. Layer k's state is (U_in, V_in, s_k): its input factors and the
    blood scale s_k = sqrt(|B_(k-1)|^2 + epsilon) of the B entering it. The
    forward pass is irls.steps, the loop infer runs; a rebuilt layer is one
    irls.update_step, the steps' own, and its blood scale comes from
    irls.blood_scale, as in the steps. Each backward step forms its B_k the
    same way, (D - U_in V_in^H) times blood_shrink(s_k, lambda_k). So the
    loss and gradient are bit-identical to an adjoint that keeps every
    layer's B. The gradient with respect to theta takes softplus's
    derivative from logistic, which has scipy.special.expit's bits.

    Passes. Each backward step forms its misfit E = (D - U V^H) - B_k as
    layer_residuals does, from the D - U V^H that the step above formed as
    its own D - U_in V_in^H. As R = D - B_k = E + U V^H, the products with
    R read E, and no R is formed. Every gradient is carried times -1 / c,
    as the adjoint is linear in them, so the loss term's is E itself. The
    step reads the rest off the gradient G0 = G_B * shrink that reaches
    D - U_in V_in^H, with tmp = Re(G0 conj(B_k)): lambda_k's gradient is
    -4 sum(tmp / s_k), and B_(k-1)'s gradient through s_k is the real factor
    2 lambda_k tmp / s_k^3 times B_(k-1), formed by two more divisions. No
    pass forms the divisor again, and none raises a full matrix to a power:
    numpy's generic pow loop costs about three sqrt passes.

    Checkpoints. The forward pass keeps the states of _checkpoints' layers,
    plus the final output factors. Layer 0's blood scale is one broadcast
    value, as its entering B is zero. On entering a segment whose states
    were dropped, the backward sweep reruns it once from its checkpoint: at
    K = 15 it reruns 10 layers and holds at most 4 full-size blood scales.

    Buffers. Besides the work matrix, the forward pass runs in the steps'
    two complex buffers and one real one. The backward sweep takes over the
    complex ones, the last layer's B and D - U V^H, where E is formed, and
    adds a complex scratch buffer and two real ones. No B is kept: each
    backward step forms its own B_k in the scratch, twice, and B_k's
    gradient through the next layer's blood scale is a real factor, left by
    that layer's step, times B_k. All buffers are C-ordered, like the work
    matrix and numpy's own temporaries: the order of a product's output
    changes its rounding, and mixed orders are slow. A product X^H Y is
    formed as conj(X^T conj(Y)), the same bits without a full-matrix
    conjugate copy. The buffers take the work matrix's precision. The two
    d x d inverses per layer are the bits irls._factor_solve multiplied by,
    from irls.gram_inverse in double, and are narrowed before use.
    """
    work, scale, u0, v0 = irls.prepare_input(d_mat, net.d)
    penalties = net.penalties()
    n_layers = len(penalties)
    c = 1.0 / n_layers
    starts = _checkpoints(n_layers)

    states, u, v = [], u0, v0
    for k, (u_out, v_out, b, resid, s) in enumerate(
            irls.steps(work, u0, v0, penalties, net.epsilon)):
        states.append((u, v, s.copy()) if k in starts else None)
        u, v = u_out, v_out

    # resid is D - U V^H for the output factors of the step's layer: the last layer's
    # first, from the steps, and then each step's D - U_in V_in^H. The steps' real
    # buffer, which s holds, is let go before the sweep's own buffers are made; no
    # layer follows the last, so its step makes the first factor
    spare, s = b, None
    scratch = np.empty(work.shape, work.dtype)
    shrink = np.empty(work.shape, work.real.dtype)
    factor = None
    loss_norm = 0.0
    g_theta = np.zeros(net.theta.shape)
    g_u_next = g_v_next = 0.0
    for k in range(n_layers - 1, -1, -1):
        if states[k] is None:
            # entering a segment whose states were dropped: rerun it from its checkpoint
            for j in range(max(i for i in starts if i < k), k):
                u_j, v_j, s_j = states[j]
                np.subtract(work, np.matmul(u_j, v_j.conj().T, out=spare), out=spare)
                u_j, v_j, b_j = irls.update_step(work, u_j, spare, s_j, *penalties[j], scratch)
                b_sq = np.square(np.abs(b_j, out=shrink), out=shrink)
                states[j + 1] = u_j, v_j, irls.blood_scale(b_sq, net.epsilon)
            del u_j, v_j, s_j, b_j, b_sq
        u_in, v_in, s = states.pop()
        lam, w_c = penalties[k]
        # spare takes D - U_in V_in^H and scratch this layer's B = (D - U_in V_in^H) * shrink;
        # e = (D - U V^H) - B, the misfit layer_residuals forms, in resid's buffer
        irls.blood_shrink(s, lam, out=shrink)
        np.subtract(work, np.matmul(u_in, v_in.conj().T, out=spare), out=spare)
        b_k = np.multiply(spare, shrink, out=scratch)
        e = np.subtract(resid, b_k, out=resid)
        misfit = float(np.linalg.norm(e))  # complex64: float32 BLAS dots, ~1e-8 off; np.vdot 2e-6
        loss_norm += misfit * misfit

        # gradients times -1 / c (see Passes); g_theta is scaled back at the end
        g_u = e @ v + g_u_next
        g_v = (e.T @ u.conj()).conj() + g_v_next

        # basis update U = R V inv(M_U) and coefficient update V = R^H U_in inv(M_V),
        # with R = E + U V^H
        q_u = irls.gram_inverse(v, w_c).astype(work.dtype, copy=False)
        g_p = (e.T @ g_u.conj()).conj() + v @ (u.conj().T @ g_u)
        g_m_u = -q_u @ (v.conj().T @ g_p) @ q_u
        g_v = g_v + g_p @ q_u + v @ (g_m_u + g_m_u.conj().T)
        g_w = 2.0 * np.real(np.diag(g_m_u))
        q_v = irls.gram_inverse(u_in, w_c).astype(work.dtype, copy=False)
        g_p2 = e @ g_v + u @ (v.conj().T @ g_v)
        g_m_v = -q_v @ (u_in.conj().T @ g_p2) @ q_v
        g_w = g_w + 2.0 * np.real(np.diag(g_m_v))

        # B's gradient into e: the loss term's, plus the factor from layer k + 1's step
        # times B, minus R's through both factor updates
        if factor is not None:
            np.add(e, np.multiply(b_k, factor, out=b_k), out=e)
        np.subtract(e, np.matmul(g_u @ q_u, v.conj().T, out=scratch), out=e)
        np.subtract(e, np.matmul(u_in, q_v @ g_v.conj().T, out=scratch), out=e)
        g_r0 = np.multiply(e, shrink, out=e)  # B = (D - U_in V_in^H) * shrink
        # tmp = Re(G0 conj(B)), Re(conj(G0) B)'s bits; lambda_k's gradient is -4 sum(tmp / s)
        b_k = np.multiply(spare, shrink, out=scratch)
        tmp = np.multiply(g_r0, np.conj(b_k, out=scratch), out=scratch).real
        factor = np.divide(tmp, s, out=factor)
        g_theta[k, 0] = -4.0 * float(np.sum(factor))
        g_theta[k, 1:] = g_w
        if k:
            # the gradients of layer k - 1's outputs: its factors, and its B through s_k,
            # which is this factor, 2 lambda_k tmp / s_k^3, times B_(k-1)
            g_u_next = g_p2 @ q_v + u_in @ (g_m_v + g_m_v.conj().T) - g_r0 @ v_in
            g_v_next = -(g_r0.T @ u_in.conj()).conj()
            factor /= s
            factor /= s
            factor *= 2.0 * lam
        # layer k's input factors are layer k - 1's output, and so is D - U_in V_in^H;
        # its spent blood scale is freed before the next step rebuilds a segment beside it
        u, v, s = u_in, v_in, None
        resid, spare = spare, resid

    scale_sq = scale * scale
    return c * loss_norm * scale_sq, g_theta * (-c * scale_sq) * logistic(net.theta)


def train(net, train_data, val_data, cfg):
    """Optimize the layer parameters on batches of frames.

    Each epoch's losses go to this module's logger at INFO.

    Training runs in the data's precision, as infer does. The frames stay
    in input units; each batch and the validation set are scaled by their
    own peak inside layer_residuals and the adjoint.

    Args:
        net: starting UnfoldedNetwork.
        train_data: (n_space, n_frames) matrix; its last 20% of frames validate,
            the rest form consecutive batches of cfg.batch_frames (remainder dropped).
        val_data: must be None, the slot kept for positional callers.
        cfg: TrainConfig; training stops cfg.patience epochs after history.best_epoch.

    Returns:
        (trained network with the best-validation parameters, TrainHistory).

    Raises:
        RuntimeError: when any loss turns non-finite; the partial history is
            attached to the exception as .history.
    """
    if val_data is not None:
        raise ValueError("val_data must be None: the last 20% of train_data validates")
    data = np.asarray(train_data)
    if data.ndim != 2:
        raise ValueError("expected a 2-d Casorati matrix")
    n_val = max(1, int(round(0.2 * data.shape[1])))
    if data.shape[1] - n_val < 1:
        raise ValueError("not enough frames to split off a validation set")
    val = data[:, data.shape[1] - n_val:]
    fit = data[:, :data.shape[1] - n_val]
    n_batches = fit.shape[1] // cfg.batch_frames
    if n_batches < 1:
        raise ValueError(
            f"batch_frames={cfg.batch_frames} exceeds the {fit.shape[1]} training frames")
    batches = [fit[:, i * cfg.batch_frames:(i + 1) * cfg.batch_frames]
               for i in range(n_batches)]

    theta = net.theta
    # one row of rates, broadcast over the layers
    rates = np.array([cfg.learning_rate] + [cfg.wc_learning_rate] * net.d)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    moment1 = np.zeros_like(theta)
    moment2 = np.zeros_like(theta)
    steps = 0

    history = TrainHistory()

    def abort(stage):
        err = RuntimeError(f"training aborted: non-finite loss during {stage}")
        err.history = history
        raise err

    def validation_loss(th):
        return float(np.mean(np.square(layer_residuals(replace(net, theta=th), val))))

    v0 = validation_loss(theta)
    history.val_loss.append(v0)
    if not np.isfinite(v0):
        abort("initial validation")
    best_theta = theta.copy()
    rng = np.random.default_rng(cfg.seed)

    for epoch in range(1, cfg.max_epochs + 1):
        batch_losses = []
        for bi in rng.permutation(n_batches):
            bloss, grad = _analytic_loss_grad(replace(net, theta=theta), batches[bi])
            if not (np.isfinite(bloss) and np.all(np.isfinite(grad))):
                abort(f"epoch {epoch}")
            batch_losses.append(bloss)
            steps += 1
            moment1 = beta1 * moment1 + (1 - beta1) * grad
            moment2 = beta2 * moment2 + (1 - beta2) * grad * grad
            m_hat = moment1 / (1 - beta1 ** steps)
            v_hat = moment2 / (1 - beta2 ** steps)
            theta = theta - rates * m_hat / (np.sqrt(v_hat) + adam_eps)
        # fsum rounds once, so the mean does not depend on the shuffled batch order
        history.train_loss.append(math.fsum(batch_losses) / len(batch_losses))
        vl = validation_loss(theta)
        if not np.isfinite(vl):
            abort(f"epoch {epoch} validation")
        history.val_loss.append(vl)
        _log.info("epoch %3d  train %.6e  val %.6e", epoch, history.train_loss[-1], vl)
        if vl < history.val_loss[history.best_epoch]:
            best_theta = theta.copy()
            history.best_epoch = epoch
        if epoch - history.best_epoch >= cfg.patience:
            break

    return replace(net, theta=best_theta), history


def infer(net, d_mat_new):
    """Frozen-parameter forward pass; returns the final-layer decomposition.

    The layers run in the input's precision, as irls.prepare_input keeps it.
    """
    if net.n_space is not None and np.ndim(d_mat_new) == 2 and len(d_mat_new) != net.n_space:
        raise ValueError(f"input has {len(d_mat_new)} rows, network expects {net.n_space}")
    work, scale, u, v = irls.prepare_input(d_mat_new, net.d)
    for u, v, b, _, _ in irls.steps(work, u, v, net.penalties(), net.epsilon):
        pass
    return Decomposition(basis_u=u, coeffs_v=v * scale, blood_b=np.multiply(b, scale, out=b))
