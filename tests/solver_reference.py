"""The solver's weights, block updates and convergence metric as separate functions.

irls.update_step fuses these updates and run_irls carries the metric's
pieces between iterations; the tests keep the separate forms as the
reference that both must reproduce bit for bit.
"""

import numpy as np

from microflow import irls


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
    w_diag = 2.0 * lambda_c * np.asarray(w_c, dtype=float)
    return irls._factor_solve(u, u.conj().T @ (d_mat - b), w_diag)


def update_basis(d_mat, b, v, w_c, lambda_c):
    """Exact minimizer for U: solves U (V^H V + 2 lambda_c W_c) = (D-B) V."""
    w_diag = 2.0 * lambda_c * np.asarray(w_c, dtype=float)
    return irls._factor_solve(v, ((d_mat - b) @ v).conj().T, w_diag)


def convergence_metric(t_now, b_now, t_prev, b_prev):
    """Squared relative change of the denoised estimate T + B between iterates."""
    prev = t_prev + b_prev
    return irls._relative_change(np.linalg.norm(t_now + b_now - prev) ** 2,
                                 np.linalg.norm(prev) ** 2)
