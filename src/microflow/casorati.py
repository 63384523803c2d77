"""Complex matrix substrate: Casorati reshaping, factor init, small Hermitian inverses.

Layout convention used everywhere in this package: a frame stack has shape
(nz, nx, nt) and vectorizes column-major with the axial (first) index fastest,
so Casorati column t is frame t flattened in Fortran order and the matrix is
F-ordered; the solvers work on the C-ordered copy irls.prepare_input makes.
Datasets are complex64 from the file on; the filters' full-matrix products
keep that precision, while the d x d Gram inverses (hermitian_inverse, via
irls.gram_inverse) run in complex128.
"""

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(np.float64).eps


class SolverError(RuntimeError):
    """A dense factorization or solve could not meet its accuracy contract."""


# Speed of sound in tissue, m/s. A dataset header stores the frame rate,
# center frequency and PRF but no sound speed, so the phantom that renders
# the frames and the velocity estimator that reads them share this value.
SOUND_SPEED = 1540.0


@dataclass
class FrameSequence:
    """IQ frame stack (nz, nx, nt) with its acquisition timing in Hz."""

    voxels: np.ndarray
    frame_rate: float
    center_freq: float
    prf: float

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.ndim != 3:
            raise ValueError(f"expected (nz, nx, nt) voxels, got shape {self.voxels.shape}")

    @property
    def nz(self):
        return self.voxels.shape[0]

    @property
    def nx(self):
        return self.voxels.shape[1]

    @property
    def nt(self):
        return self.voxels.shape[2]


def to_casorati(seq):
    """Reshape an (nz, nx, nt) frame stack into an (nz*nx, nt) matrix."""
    if isinstance(seq, FrameSequence):
        seq = seq.voxels
    seq = np.asarray(seq)
    if seq.ndim != 3:
        raise ValueError(f"expected (nz, nx, nt) array, got shape {seq.shape}")
    nz, nx, nt = seq.shape
    return seq.reshape(nz * nx, nt, order="F")


def from_casorati(m, nz, nx):
    """Inverse of to_casorati: unpack columns into (nz, nx, nt) frames."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != nz * nx:
        raise ValueError(f"matrix with {m.shape} rows does not factor as nz*nx = {nz}*{nx}")
    return m.reshape(nz, nx, m.shape[1], order="F")


def orthonormal_columns(m, d):
    """Orthonormal basis for the span of the first d columns of m (QR based)."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if not 1 <= d <= min(m.shape):
        raise ValueError(f"d={d} outside [1, min{m.shape}]")
    lead = m[:, :d]
    # the d x d R has the lead block's singular values, read here for the rank check
    q, r = np.linalg.qr(lead)
    s = np.linalg.svd(r, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= max(lead.shape) * _EPS * s[0]:
        raise SolverError(
            f"leading {d} columns are rank deficient "
            f"(singular values {s[0]:.3e} .. {s[-1]:.3e}); reduce d"
        )
    return q


def hermitian_inverse(a):
    """Inverse of a Hermitian positive definite a via Cholesky.

    a = L L^H is factored with numpy's LAPACK. L is only d x d, so it is
    inverted once and the two triangular solves of a X = I become matrix
    products, X = L^-H L^-1, which stay in numpy's single BLAS thread pool.
    One step of iterative refinement keeps ||a X - I||_F below
    1e-10 * sqrt(d) even for moderately ill-conditioned Gram matrices.
    """
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError as err:
        w = np.linalg.eigvalsh(a)
        wmin, wmax = w.min(), w.max()
        cond = np.inf if wmin <= 0 else wmax / wmin
        raise SolverError(
            "matrix is not positive definite "
            f"(eigenvalues in [{wmin:.3e}, {wmax:.3e}], condition {cond:.3e})"
        ) from err
    l_inv_h = l_inv.conj().T
    x = l_inv_h @ l_inv
    return x + l_inv_h @ (l_inv @ (np.eye(len(a)) - a @ x))
