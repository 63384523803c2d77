import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import casorati


def rng(seed=0):
    return np.random.default_rng(seed)


def crandn(r, shape, scale=1.0):
    return scale * (r.standard_normal(shape) + 1j * r.standard_normal(shape))


class TestToCasorati:
    def test_degenerate_spatial_dims(self):
        seq = np.array([1 + 1j, 2.0, 3 - 2j]).reshape(1, 1, 3)
        m = casorati.to_casorati(seq)
        assert m.shape == (1, 3)
        assert np.array_equal(m, np.array([[1 + 1j, 2.0, 3 - 2j]]))

    def test_single_frame_column_major(self):
        p, q, r, s = 1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j
        frame = np.array([[p, q], [r, s]]).reshape(2, 2, 1)
        m = casorati.to_casorati(frame)
        assert m.shape == (4, 1)
        # axial (first) index fastest
        assert np.array_equal(m[:, 0], np.array([p, r, q, s]))

    def test_round_trip_bit_exact(self):
        x = crandn(rng(1), (4, 3, 5))
        back = casorati.from_casorati(casorati.to_casorati(x), 4, 3)
        assert back.shape == x.shape
        assert np.array_equal(back, x)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            casorati.to_casorati(np.zeros((4, 3)))


class TestFromCasorati:
    def test_row_vector(self):
        seq = casorati.from_casorati(np.array([[1j, 2j, 3j]]), 1, 1)
        assert seq.shape == (1, 1, 3)
        assert np.array_equal(seq[0, 0, :], np.array([1j, 2j, 3j]))

    def test_column_unpacks_axial_fastest(self):
        p, q, r, s = 5 + 1j, 6 + 2j, 7 + 3j, 8 + 4j
        seq = casorati.from_casorati(np.array([[p], [r], [q], [s]]), 2, 2)
        assert np.array_equal(seq[:, :, 0], np.array([[p, q], [r, s]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            casorati.from_casorati(np.zeros((5, 3), dtype=complex), 2, 2)

    def test_round_trip_other_shape(self):
        x = crandn(rng(2), (6, 2, 4))
        assert np.array_equal(casorati.from_casorati(casorati.to_casorati(x), 6, 2), x)


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nz=st.integers(1, 7), nx=st.integers(1, 7),
           nt=st.integers(1, 6), dtype=st.sampled_from([np.complex64, np.complex128]),
           order=st.sampled_from(["C", "F"]))
    def test_round_trip_and_frame_columns(self, seed, nz, nx, nt, dtype, order):
        x = np.asarray(crandn(rng(seed), (nz, nx, nt)), dtype=dtype, order=order)
        m = casorati.to_casorati(x)
        assert m.dtype == dtype and m.shape == (nz * nx, nt)
        assert np.array_equal(casorati.from_casorati(m, nz, nx), x)
        for t in range(nt):
            assert np.array_equal(m[:, t], x[:, :, t].ravel(order="F"))


class TestOrthonormalColumns:
    def test_already_orthonormal_up_to_phase(self):
        r = rng(3)
        q0, _ = np.linalg.qr(crandn(r, (7, 4)))
        extra = crandn(r, (7, 2))
        m = np.concatenate([q0, extra], axis=1)
        q = casorati.orthonormal_columns(m, 4)
        # each output column matches the input column up to a unit phase
        for j in range(4):
            assert abs(abs(np.vdot(q[:, j], q0[:, j])) - 1.0) < 1e-12

    def test_single_column_normalization(self):
        c = np.array([3.0, 4.0j])
        q = casorati.orthonormal_columns(c.reshape(2, 1), 1)
        assert np.allclose(np.abs(q[:, 0]), np.array([0.6, 0.8]), atol=1e-15)
        assert abs(np.linalg.norm(q[:, 0]) - 1.0) < 1e-14

    def test_gram_identity_and_projector(self):
        m = crandn(rng(4), (8, 5))
        q = casorati.orthonormal_columns(m, 3)
        gram = q.conj().T @ q
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-12
        # independent rank factorization of the same column block via SVD
        u, s, vh = np.linalg.svd(m[:, :3], full_matrices=False)
        p_ref = u @ u.conj().T
        p_q = q @ q.conj().T
        assert np.linalg.norm(p_q - p_ref) <= 1e-10

    def test_rank_deficient_reported(self):
        r = rng(5)
        col = crandn(r, (6, 1))
        m = np.concatenate([col, 2 * col, crandn(r, (6, 2))], axis=1)
        with pytest.raises(casorati.SolverError):
            casorati.orthonormal_columns(m, 2)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            casorati.orthonormal_columns(np.eye(3), 4)


class TestHermitianSolve:
    """hermitian_inverse, the Cholesky solve of a X = I."""

    def test_identity(self):
        x = casorati.hermitian_inverse(np.eye(4))
        assert np.allclose(x, np.eye(4), rtol=0, atol=1e-14)

    def test_scaled_identity(self):
        x = casorati.hermitian_inverse(2.0 * np.eye(4))
        assert np.allclose(x, np.eye(4) / 2.0, rtol=0, atol=1e-14)

    def test_multiply_back_residual(self):
        r = rng(8)
        g = crandn(r, (5, 5))
        a = g.conj().T @ g + 0.1 * np.eye(5)
        x = casorati.hermitian_inverse(a)
        assert np.linalg.norm(a @ x - np.eye(5)) <= 1e-10 * np.sqrt(5)

    def test_indefinite_rejected_with_diagnostic(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(casorati.SolverError, match="definite"):
            casorati.hermitian_inverse(a)


def hermitian_matrix(r, eigenvalues):
    q, _ = np.linalg.qr(crandn(r, (eigenvalues.size, eigenvalues.size)))
    a = (q * eigenvalues) @ q.conj().T
    return 0.5 * (a + a.conj().T)


class TestHermitianSolveProperties:
    """hermitian_inverse over sizes, conditions and scales."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 32), log_cond=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_refined_residual(self, d, log_cond, seed):
        r = rng(seed)
        scale = 10.0 ** r.uniform(-3, 3)
        a = hermitian_matrix(r, scale * 10.0 ** r.uniform(0, log_cond, d))
        x = casorati.hermitian_inverse(a)
        assert np.linalg.norm(a @ x - np.eye(d)) <= 1e-10 * np.sqrt(d)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 32), n_negative=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1))
    def test_indefinite_rejected(self, d, n_negative, seed):
        r = rng(seed)
        w = r.uniform(1e-2, 1.0, d)
        w[:min(n_negative, d)] *= -1.0
        with pytest.raises(casorati.SolverError, match="definite"):
            casorati.hermitian_inverse(hermitian_matrix(r, w))


def test_package_never_loads_scipy_linalg():
    """All dense linear algebra goes through numpy's one BLAS thread pool.

    scipy ships its own OpenBLAS; mixing the two libraries puts two thread
    pools on the same cores. The check runs in a fresh interpreter so this
    process's imports cannot mask or cause a failure.
    """
    probe = (
        "import importlib, pkgutil, sys, microflow\n"
        "for m in pkgutil.walk_packages(microflow.__path__, 'microflow.'):\n"
        "    importlib.import_module(m.name)\n"
        "print('microflow.pipeline' in sys.modules)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(casorati.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True", "False"]


def test_package_loads_only_numpy_and_the_standard_library():
    """Importing every module loads no third-party package but numpy, and
    simulating and training load no scipy.

    The config table needs no schema library, and the phantom's PSF blur and
    the training gradient's logistic are numpy code with the bits of scipy's
    gaussian_filter and expit, which the tests keep as references only. So no
    CLI call pays for scipy. After the imports the probe synthesizes a few
    frames of a small phantom and trains one epoch with the analytic
    gradient. Modules the interpreter loaded before the probe ran (site
    hooks) are not counted.
    """
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import importlib, pkgutil, microflow\n"
        "for m in pkgutil.walk_packages(microflow.__path__, 'microflow.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(len([m for m in sys.modules if m.startswith('microflow.')]))\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}\n"
        "             - set(sys.stdlib_module_names)))\n"
        "from microflow import casorati, irls, unfolded\n"
        "from microflow.phantom import imaging, scene\n"
        "sc = scene.build_phantom(seed=3, n_units=1, cylinder_radius_mm=3.0, pixel_mm=0.3)[0]\n"
        "seq, _ = imaging.synthesize_iq(sc, 24, noise_snr_db=25.0)\n"
        "data = casorati.to_casorati(seq)\n"
        "net = unfolded.init_network(data, 3, 2, 0.02, irls.IrlsConfig(d=2))\n"
        "cfg = unfolded.TrainConfig(batch_frames=16, max_epochs=1, grad_mode='analytic')\n"
        "unfolded.train(net, data, None, cfg)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = os.path.dirname(os.path.dirname(casorati.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                         capture_output=True, text=True).stdout.splitlines()
    assert int(out[0]) >= 14
    assert out[1] == "['microflow', 'numpy']"
    assert out[2] == "[]"
