"""Reference forms the shipped solver and network are checked against.

irls.update_step fuses the weights and block updates and run_irls carries
the misfit and the convergence metric's pieces between iterations in
reused buffers; the tests keep the separate forms as the reference that both
must reproduce bit for bit.

unfolded.train steps on the adjoint gradient; finite_difference_gradient
takes central differences of the same loss, the reference the adjoint is
checked against.

layouts gives one matrix in the three memory layouts the solvers meet; their
outputs must not depend on which one they get.
"""

import dataclasses

import numpy as np

from microflow import irls, unfolded


def blood_scale(b, epsilon):
    """The blood update's scale for the blood matrix; the IRLS weights are its reciprocal.

    Args:
        b: complex matrix.
        epsilon: positive regularizer.

    Returns:
        Real matrix with entries s = sqrt(|b|^2 + epsilon), strictly positive.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return np.sqrt(np.abs(b) ** 2 + epsilon)


def update_blood(d_mat, u, v, s, lambda_b):
    """Exact minimizer for B with the factors held fixed and weights 1 / s.

    B = (D - U V^H) s / (s + 2 lambda_b), elementwise, which is
    (D - U V^H) / (1 + 2 lambda_b / s); the factor is at most 1, so |B|
    never exceeds the residual magnitude.
    """
    resid = d_mat - u @ v.conj().T
    return resid * (s / (s + 2.0 * lambda_b))


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
    w_diag = 2.0 * lambda_c * np.asarray(w_c, dtype=float)
    return irls._factor_solve(u, ((d_mat - b).T @ u.conj()).conj(), w_diag)


def update_basis(d_mat, b, v, w_c, lambda_c):
    """Exact minimizer for U: solves U (V^H V + 2 lambda_c W_c) = (D-B) V."""
    w_diag = 2.0 * lambda_c * np.asarray(w_c, dtype=float)
    return irls._factor_solve(v, (d_mat - b) @ v, w_diag)


def misfit(d_mat, u, v, b):
    """The solver's misfit F = (D - U V^H) - B; its estimate U V^H + B is D - F."""
    return (d_mat - u @ v.conj().T) - b


def convergence_metric(d_mat, f_now, f_prev):
    """Squared relative change of the estimate D - F between iterates, read off the misfits F."""
    return irls._relative_change(irls.squared_norm(f_now - f_prev),
                                 irls.squared_norm(d_mat - f_prev))


def finite_difference_gradient(net, d_mat, init_state=None, fd_step=1e-5):
    """Central-difference gradient of the training loss over all parameters.

    Args:
        net: UnfoldedNetwork.
        d_mat: data matrix.
        init_state: optional (u0, v0) override, forwarded to the passes.
        fd_step: base step; the per-parameter step is fd_step * (1 + |theta|).

    Returns:
        Real gradient array shaped like net.theta.
    """
    def loss(theta):
        net_at = dataclasses.replace(net, theta=theta)
        return float(np.mean(np.square(unfolded.layer_residuals(net_at, d_mat, init_state))))

    theta0 = net.theta
    grad = np.zeros_like(theta0)
    for i in np.ndindex(theta0.shape):
        h = fd_step * (1.0 + abs(theta0[i]))
        probe = theta0.copy()
        probe[i] = theta0[i] + h
        lp = loss(probe)
        probe[i] = theta0[i] - h
        lm = loss(probe)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise RuntimeError(f"non-finite loss while perturbing parameter {i}")
        grad[i] = (lp - lm) / (2.0 * h)
    return grad


def layouts(d_mat):
    """d_mat C-ordered, F-ordered, and as a column slice of a wider F matrix.

    to_casorati returns F-ordered matrices, and a benchmark or pipeline
    ensemble is a column range of one.
    """
    n_frames = d_mat.shape[1]
    wide = np.zeros((d_mat.shape[0], n_frames + 7), dtype=d_mat.dtype, order="F")
    wide[:, 3:3 + n_frames] = d_mat
    return {"C": np.ascontiguousarray(d_mat), "F": np.asfortranarray(d_mat),
            "slice": wide[:, 3:3 + n_frames]}
