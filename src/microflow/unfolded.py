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
against central differences of the loss. One generator runs the layers for
infer and layer_residuals; the adjoint forms the same layers with the same
irls functions. All run in the precision irls.prepare_input picks, so the
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


def inv_softplus(y):
    """Inverse of softplus; targets at or near zero clamp to a floor of -50.

    softplus(-50) is about 2e-22, small enough that 1 + 2*lambda*W rounds to
    exactly 1.0 for any weight this package produces.
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
    work, _ = irls.prepare_input(d_mat, d)
    if not 0 <= lambda_b_init < np.inf:
        raise ValueError("lambda_b_init must be finite and nonnegative")
    u0, v0 = irls._init_state(work, d)
    w_init = 2.0 * cfg.lambda_c * irls.lowrank_weights(u0, v0, cfg.epsilon)
    theta = np.empty((k, 1 + d))
    theta[:, 0] = inv_softplus(lambda_b_init)
    theta[:, 1:] = inv_softplus(w_init)
    return UnfoldedNetwork(theta=theta, epsilon=cfg.epsilon, n_space=work.shape[0])


def _layers(net, work, init_state=None):
    """Yield each layer's (u, v, b) for the peak-1 work matrix, holding only the current state.

    A layer is one irls.update_step: B = (D - U_in V_in^H) / (1 + 2 lambda_b w_b), with
    w_b the blood weights of the entering B, then V and U from w_c. Layer 0's entering B
    is zero, so its |B|^2 is a (1, 1) zero and its w_b one broadcast value.
    """
    u, v = irls._init_state(work, net.d) if init_state is None else init_state
    b, zero_sq = None, np.zeros((1, 1), dtype=work.real.dtype)
    for lambda_b, w_c in net.penalties():
        u, v, b, _ = irls.update_step(work, u, work - u @ v.conj().T,
                                      zero_sq if b is None else np.abs(b) ** 2,
                                      lambda_b, w_c, net.epsilon)
        yield u, v, b


def layer_residuals(net, d_mat, init_state=None):
    """Each layer's norm ||D - B_k - U_k V_k^H||_F in input units, as K floats.

    The layers and the input-units misfits run in the work matrix's
    precision; init_state is an optional (u0, v0) for the input scaled to
    peak 1. The training loss is the mean square of this list. Layer k's
    full decomposition is infer(dataclasses.replace(net, theta=net.theta[:k]), d_mat).
    """
    work, scale = irls.prepare_input(d_mat, net.d)
    d_mat = np.asarray(d_mat, dtype=work.dtype, order="C")
    return [float(np.linalg.norm(d_mat - b * scale - u @ (v * scale).conj().T))
            for u, v, b in _layers(net, work, init_state)]


def _analytic_loss_grad(net, d_mat, init_state=None):
    """Loss and its gradient via the adjoint of the layer equations.

    The pass runs on the input scaled to peak 1; since the loss is quadratic
    in the data scale, the gradient (and loss) are multiplied by scale**2.
    It keeps three things.

    Bits. Layer k's state is (U_in, V_in, w_k): its input factors and the
    blood weights of the B entering it. One routine, advance, forms each
    layer's output state, forward and rebuilt, with the functions
    irls.update_step calls: B_k = (D - U_in V_in^H) * (1 / blood_divisor),
    then factor_updates on D - B_k, then blood_weights(|B_k|^2). So the loss
    and gradient are bit-identical to an adjoint that keeps every layer's B,
    and trained .u2m files do not change.

    Checkpoints. The forward pass keeps layer k's state only where
    k % s == 0, s = ceil(sqrt(K)), and across the last segment
    k >= floor((K - 1) / s) * s, plus the final output factors: about
    2 sqrt(K) states instead of K. Layer 0's weights are one broadcast
    value, as its entering B is zero. On entering a segment whose states
    were dropped, the backward sweep reruns it from its checkpoint.

    Buffers. Besides the work matrix, the full-matrix temporaries share four
    complex buffers (B among them) and two real ones. No B is kept: each
    backward step forms its own B_k, and B_k's gradient through the next
    layer's weights is a real factor, left by that layer's step, times B_k.
    All buffers are C-ordered, like the work matrix and numpy's own
    temporaries: the order of a product's output changes its rounding, and
    mixed orders are slow. A product X^H Y is formed as conj(X^T conj(Y)),
    the same bits without a full-matrix conjugate copy. The buffers take the
    work matrix's precision; the two d x d inverses are formed in double, as
    in irls._factor_solve, and narrowed before use.
    """
    from scipy.special import expit  # here, so importing microflow never loads scipy
    work, scale = irls.prepare_input(d_mat, net.d)
    u0, v0 = irls._init_state(work, net.d) if init_state is None else init_state
    penalties = net.penalties()
    n_layers = len(penalties)
    c = 1.0 / n_layers
    stride = math.isqrt(n_layers - 1) + 1
    last_segment = (n_layers - 1) // stride * stride

    b, r = (np.empty(work.shape, work.dtype) for _ in range(2))
    recip = np.empty(work.shape, work.real.dtype)

    def blood(k, state):
        """Layer k's B into b from its state; recip ends as 1 / divisor."""
        u_in, v_in, w_b = state
        np.divide(1.0, irls.blood_divisor(penalties[k][0], w_b, out=recip), out=recip)
        np.matmul(u_in, v_in.conj().T, out=b)
        np.multiply(np.subtract(work, b, out=b), recip, out=b)

    def advance(k, state):
        """Layer k's output state from its input state, with b, r and recip as scratch.

        The factors come before the weights, which would otherwise sit beside
        the factor updates' temporaries; the last layer's weights feed nothing.
        """
        blood(k, state)
        u, v = irls.factor_updates(state[0], np.subtract(work, b, out=r), penalties[k][1])
        if k + 1 == n_layers:
            return u, v, None
        return u, v, irls.blood_weights(np.square(np.abs(b, out=recip), out=recip), net.epsilon)

    state = (u0, v0, irls.blood_weights(np.zeros((1, 1), work.real.dtype), net.epsilon))
    states = [state]
    for k in range(n_layers):
        state = advance(k, state)
        states.append(state if (k + 1) % stride == 0 or k + 1 >= last_segment else None)
    u, v, _ = states.pop()

    # the backward sweep's own buffers, made only now so the forward pass stays small;
    # no layer follows the last, so the factor starts at zero
    e, g = (np.empty(work.shape, work.dtype) for _ in range(2))
    factor = np.zeros(work.shape, work.real.dtype)
    loss_norm = 0.0
    g_theta = np.zeros(net.theta.shape)
    g_u_next = g_v_next = 0.0
    for k in range(n_layers - 1, -1, -1):
        if states[k] is None:
            # entering a segment whose states were dropped: rerun it from its checkpoint
            for j in range(k - k % stride, k):
                states[j + 1] = advance(j, states[j])
        u_in, v_in, w_b = states.pop()
        lam, w_c = penalties[k]
        blood(k, (u_in, v_in, w_b))
        np.subtract(work, b, out=r)
        np.subtract(r, np.matmul(u, v.conj().T, out=e), out=e)
        loss_norm += float(np.linalg.norm(e)) ** 2

        g_u = -c * (e @ v) + g_u_next
        g_v = -c * (e.T @ u.conj()).conj() + g_v_next
        # B's gradient: the loss term's, plus the factor from layer k + 1's step times B
        g_b = np.add(np.multiply(-c, e, out=e), np.multiply(factor, b, out=g), out=e)

        # basis update U = R V inv(M_U); g_r takes the spent incoming gradient's buffer
        q_u = np.linalg.inv(v.conj().T @ v + np.diag(w_c)).astype(work.dtype, copy=False)
        g_r = np.matmul(g_u @ q_u, v.conj().T, out=g)
        g_p = (r.T @ g_u.conj()).conj()
        g_m_u = -q_u @ (v.conj().T @ g_p) @ q_u
        g_v = g_v + g_p @ q_u + v @ (g_m_u + g_m_u.conj().T)
        g_w = 2.0 * np.real(np.diag(g_m_u))

        # coefficient update V = R^H U_in inv(M_V)
        q_v = np.linalg.inv(u_in.conj().T @ u_in + np.diag(w_c)).astype(work.dtype, copy=False)
        g_p2 = r @ g_v
        g_r += np.matmul(u_in, q_v @ g_v.conj().T, out=r)
        g_m_v = -q_v @ (u_in.conj().T @ g_p2) @ q_v
        g_w = g_w + 2.0 * np.real(np.diag(g_m_v))

        # R = D - B, then B = (D - U_in V_in^H) / divisor
        g_b = np.subtract(g_b, g_r, out=g_b)
        g_r0 = np.multiply(g_b, recip, out=g_r)
        g_u_next = g_p2 @ q_v + u_in @ (g_m_v + g_m_v.conj().T) - g_r0 @ v_in
        g_v_next = -(g_r0.T @ u_in.conj()).conj()
        # recip's last use was g_r0: its buffer takes the divisor, and then tmp
        tmp = np.divide(np.multiply(np.conj(g_b, out=r), b, out=r).real,
                        irls.blood_divisor(lam, w_b, out=recip), out=recip)
        g_theta[k, 0] = -4.0 * float(np.sum(np.multiply(tmp, w_b, out=factor)))
        g_theta[k, 1:] = g_w
        # B_{k-1}'s gradient through w_k is this factor, 2 lambda_k w_k^3 tmp, times B_{k-1}
        np.power(w_b, 3, out=factor)
        factor *= tmp
        factor *= 2.0 * lam
        # layer k's input factors are layer k - 1's output; its spent weights are
        # freed before the next step rebuilds a segment beside them
        u, v, w_b = u_in, v_in, None

    return c * loss_norm * scale ** 2, g_theta * expit(net.theta) * scale ** 2


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
        cfg: TrainConfig.

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
    best = v0
    best_theta = theta.copy()
    stall = 0
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
        history.train_loss.append(float(np.mean(batch_losses)))
        vl = validation_loss(theta)
        if not np.isfinite(vl):
            abort(f"epoch {epoch} validation")
        history.val_loss.append(vl)
        _log.info("epoch %3d  train %.6e  val %.6e", epoch, history.train_loss[-1], vl)
        if vl < best:
            best = vl
            best_theta = theta.copy()
            history.best_epoch = epoch
            stall = 0
        else:
            stall += 1
        if stall >= cfg.patience:
            break

    return replace(net, theta=best_theta), history


def infer(net, d_mat_new):
    """Frozen-parameter forward pass; returns the final-layer decomposition.

    The layers run in the input's precision, as irls.prepare_input keeps it.
    """
    work, scale = irls.prepare_input(d_mat_new, net.d)
    if net.n_space is not None and work.shape[0] != net.n_space:
        raise ValueError(f"input has {work.shape[0]} rows, network expects {net.n_space}")
    for u, v, b in _layers(net, work):
        pass
    return Decomposition(basis_u=u, coeffs_v=v * scale, blood_b=b * scale)
