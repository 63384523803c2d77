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
against central differences of the loss. One generator runs the layers;
infer, layer_residuals and the adjoint all consume it, in the precision
irls.prepare_input picks, so the network trains in the precision it infers in.

Positivity of both learnable groups is enforced by parameterizing them
through softplus; the unconstrained values, one (K, 1 + d) array, are what
the optimizer steps on, in that shape, and what the model file stores.
"""

import logging
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
    """Yield each layer's (u, v, b, w_b) for the peak-1 work matrix, holding only the current state.

    A layer is one irls.update_step: B = (D - U_in V_in^H) / (1 + 2 lambda_b w_b), with
    w_b the blood weights of the entering B (zero at layer 0), then V and U from w_c.
    """
    u, v = irls._init_state(work, net.d) if init_state is None else init_state
    b = np.zeros_like(work)
    for lambda_b, w_c in net.penalties():
        u, v, b, w_b = irls.update_step(work, u, work - u @ v.conj().T, np.abs(b) ** 2,
                                        lambda_b, w_c, net.epsilon)
        yield u, v, b, w_b


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
            for u, v, b, _ in _layers(net, work, init_state)]


def _analytic_loss_grad(net, d_mat, init_state=None):
    """Loss and its gradient via the adjoint of the layer equations.

    The pass runs on the input scaled to peak 1; since the loss is quadratic
    in the data scale, the gradient (and loss) are multiplied by scale**2.

    The forward pass keeps each layer's small factors and its real blood
    weights, not its complex blood matrix. Going backwards, the blood matrix
    entering layer k is rebuilt with the forward pass's own operations,
    B_{k-1} = (D - U_{k-2} V_{k-2}^H) * (1 / (1 + 2 lambda_{k-1} w_{k-1})), so
    the result is bit-identical to keeping every B. The rebuilt matrices
    overwrite the last layer's B; the other full-matrix temporaries of all
    layers share four more complex and three real buffers. All are C-ordered,
    like the work matrix and numpy's own temporaries (B included): the order
    of a product's output changes its rounding, and mixed orders are slow.
    The buffers take the work matrix's precision; the two d x d inverses are
    formed in double, as in irls._factor_solve, and narrowed before use.
    """
    from scipy.special import expit  # here, so importing microflow never loads scipy
    work, scale = irls.prepare_input(d_mat, net.d)
    u0, v0 = irls._init_state(work, net.d) if init_state is None else init_state
    # factors[k] holds layer k's input factors and factors[k + 1] its output;
    # weights[k] holds layer k's blood weights and b ends as the last layer's B
    factors, weights = [(u0, v0)], []
    for u, v, b, w_b in _layers(net, work, (u0, v0)):
        factors.append((u, v))
        weights.append(w_b)
    penalties = net.penalties()
    n_layers = len(penalties)
    c = 1.0 / n_layers

    def divisor(k, out):
        """1 + 2 lambda_b w_b of layer k, in the forward pass's order of operations."""
        np.multiply(2.0 * penalties[k][0], weights[k], out=out)
        return np.add(1.0, out, out=out)

    r, e, g_r, g_b_next = (np.empty(work.shape, work.dtype) for _ in range(4))
    den = divisor(n_layers - 1, np.empty(work.shape, work.real.dtype))
    recip = np.divide(1.0, den)
    real_tmp = np.empty(work.shape, work.real.dtype)

    loss_norm = 0.0
    g_theta = np.zeros(net.theta.shape)
    g_u_next = None
    g_v_next = None
    for k in range(n_layers - 1, -1, -1):
        u_in, v_in = factors[k]
        u, v = factors[k + 1]
        w_b = weights.pop()
        lam, w_c = penalties[k]
        np.subtract(work, b, out=r)
        e = np.subtract(r, np.matmul(u, v.conj().T, out=e), out=e)
        loss_norm += float(np.linalg.norm(e)) ** 2

        g_u = -c * (e @ v)
        g_v = -c * (np.conj(e, out=g_r).T @ u)
        g_b = np.multiply(-c, e, out=e)
        if g_u_next is not None:
            g_u = g_u + g_u_next
            g_v = g_v + g_v_next
            np.add(g_b, g_b_next, out=g_b)

        # basis update U = R V inv(M_U)
        q_u = np.linalg.inv(v.conj().T @ v + np.diag(w_c)).astype(work.dtype, copy=False)
        np.matmul(g_u @ q_u, v.conj().T, out=g_r)
        g_p = np.conj(r, out=g_b_next).T @ g_u
        g_m_u = -q_u @ (v.conj().T @ g_p) @ q_u
        g_v = g_v + g_p @ q_u + v @ (g_m_u + g_m_u.conj().T)
        g_w = 2.0 * np.real(np.diag(g_m_u))

        # coefficient update V = R^H U_in inv(M_V)
        q_v = np.linalg.inv(u_in.conj().T @ u_in + np.diag(w_c)).astype(work.dtype, copy=False)
        g_p2 = r @ g_v
        g_r += np.matmul(u_in, q_v @ g_v.conj().T, out=r)
        g_m_v = -q_v @ (u_in.conj().T @ g_p2) @ q_v
        g_u_in = g_p2 @ q_v + u_in @ (g_m_v + g_m_v.conj().T)
        g_w = g_w + 2.0 * np.real(np.diag(g_m_v))

        # R = D - B, then B = (D - U_in V_in^H) / den
        g_b_tot = np.subtract(g_b, g_r, out=g_b)
        g_r0 = np.multiply(g_b_tot, recip, out=g_r)
        # den's last use: tmp takes its buffer, and den is refilled for layer k - 1 below
        tmp = np.divide(np.multiply(np.conj(g_b_tot, out=r), b, out=r).real, den, out=den)
        g_lam = -4.0 * float(np.sum(np.multiply(tmp, w_b, out=real_tmp)))
        if k > 0:
            # layer 0's input B is the fixed zero start, which needs no gradient
            g_b_in = np.power(w_b, 3, out=real_tmp)
            g_b_in *= tmp
            g_b_in *= 2.0 * lam
            # real_tmp holds g_b_in until g_b_next is formed, so 1 / den has its own buffer
            np.divide(1.0, divisor(k - 1, den), out=recip)
            u_prev, v_prev = factors[k - 1]
            np.matmul(u_prev, v_prev.conj().T, out=b)
            np.multiply(np.subtract(work, b, out=b), recip, out=b)
            np.multiply(g_b_in, b, out=g_b_next)
        g_u_in = g_u_in - g_r0 @ v_in
        g_v_in = -(np.conj(g_r0, out=e).T @ u_in)

        g_theta[k, 0] = g_lam * expit(net.theta[k, 0])
        g_theta[k, 1:] = g_w * expit(net.theta[k, 1:])
        g_u_next, g_v_next = g_u_in, g_v_in

    return c * loss_norm * scale ** 2, g_theta * scale ** 2


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
    for u, v, b, _ in _layers(net, work):
        pass
    return Decomposition(basis_u=u, coeffs_v=v * scale, blood_b=b * scale)
