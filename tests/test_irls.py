
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import irls, unfolded
from microflow.casorati import SolverError, hermitian_inverse
from solver_reference import (blood_scale, convergence_metric, layouts, misfit, solver_weights,
                              update_basis, update_blood, update_coeffs)


def crandn(r, shape, scale=1.0):
    return scale * (r.standard_normal(shape) + 1j * r.standard_normal(shape))


def make_config(**kw):
    base = dict(d=3, lambda_c=0.01, lambda_b=0.01)
    base.update(kw)
    return irls.IrlsConfig(**base)


def lowrank_sparse_instance(seed, ns=200, nt=80, rank=3, support=0.02, boost=5.0):
    """Ground-truth instance: D = T + B0, T random rank-r, B0 sparse and strong."""
    r = np.random.default_rng(seed)
    t = crandn(r, (ns, rank)) @ crandn(r, (nt, rank)).conj().T
    entry_scale = np.linalg.norm(t) / np.sqrt(ns * nt)
    b0 = np.zeros((ns, nt), dtype=complex)
    n_hits = int(round(support * ns * nt))
    flat = r.choice(ns * nt, size=n_hits, replace=False)
    b0.flat[flat] = boost * entry_scale * np.exp(2j * np.pi * r.random(n_hits))
    return t, b0


class TestSparseWeights:
    """The blood weights are 1 / s, the reciprocal of the blood scale."""

    def test_zero_entry(self):
        w = 1.0 / blood_scale(np.zeros((2, 2), dtype=complex), 1e-4)
        assert np.allclose(w, 100.0, rtol=0, atol=1e-12)

    def test_modulus_entry(self):
        w = 1.0 / blood_scale(np.array([[3 + 4j]]), 1e-12)
        assert abs(w[0, 0] - 0.2) < 1e-9

    def test_positive_and_epsilon_guard(self):
        r = np.random.default_rng(0)
        s = blood_scale(crandn(r, (4, 5)), 1e-8)
        assert np.all(s > 0)
        with pytest.raises(ValueError):
            blood_scale(np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            irls.blood_scale(np.zeros((1, 1)), 0.0)


class TestLowrankWeights:
    def test_zero_columns(self):
        energy = irls.column_energy(np.zeros((4, 2), dtype=complex), np.zeros((3, 2), dtype=complex))
        w = irls.lowrank_weights(energy, 1e-4)
        assert np.allclose(w, 100.0, rtol=0, atol=1e-12)

    def test_column_energies(self):
        u = np.array([[3.0], [0.0]], dtype=complex)
        v = np.array([[4.0], [0.0]], dtype=complex)
        w = irls.lowrank_weights(irls.column_energy(u, v), 1e-12)
        assert abs(w[0] - 0.2) < 1e-9


class TestUpdateBlood:
    def test_lambda_zero_returns_residual(self):
        r = np.random.default_rng(2)
        d = crandn(r, (6, 5))
        u = crandn(r, (6, 2))
        v = crandn(r, (5, 2))
        s = blood_scale(crandn(r, (6, 5)), 1e-8)
        b = update_blood(d, u, v, s, 0.0)
        assert np.array_equal(b, d - u @ v.conj().T)

    def test_exact_model_gives_zero(self):
        r = np.random.default_rng(3)
        u = crandn(r, (6, 2))
        v = crandn(r, (5, 2))
        d = u @ v.conj().T
        b = update_blood(d, u, v, np.ones((6, 5)), 0.7)
        assert np.allclose(b, 0, atol=1e-16)

    def test_scalar_case(self):
        b = update_blood(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]),
                         np.array([[1.0 + 0j]]), np.array([[1.0]]), 0.5)
        assert b[0, 0] == pytest.approx(0.5)

    def test_shrinks_magnitudes(self):
        r = np.random.default_rng(4)
        d = crandn(r, (7, 6))
        u = crandn(r, (7, 3))
        v = crandn(r, (6, 3))
        s = blood_scale(crandn(r, (7, 6)), 1e-6)
        b = update_blood(d, u, v, s, 0.3)
        assert np.all(np.abs(b) <= np.abs(d - u @ v.conj().T) + 1e-15)

    def test_monotone_in_lambda(self):
        r = np.random.default_rng(5)
        d = crandn(r, (5, 4))
        u = np.zeros((5, 1), dtype=complex)
        v = np.zeros((4, 1), dtype=complex)
        s = blood_scale(d, 1e-8)
        mags = [np.abs(update_blood(d, u, v, s, lam)) for lam in (0.0, 0.1, 1.0, 100.0, 1e12)]
        for lo, hi in zip(mags, mags[1:]):
            assert np.all(hi <= lo + 1e-15)
        assert np.all(mags[-1] <= 1e-6 * np.abs(d))


class TestFactorUpdates:
    def test_coeffs_orthonormal_basis_no_penalty(self):
        r = np.random.default_rng(6)
        d = crandn(r, (8, 5))
        b = crandn(r, (8, 5), 0.1)
        u, _ = np.linalg.qr(crandn(r, (8, 3)))
        v = update_coeffs(d, b, u, np.ones(3), 0.0)
        assert np.allclose(v, (d - b).conj().T @ u, atol=1e-12)

    def test_coeffs_zero_on_fully_explained_data(self):
        r = np.random.default_rng(7)
        b = crandn(r, (8, 5))
        u, _ = np.linalg.qr(crandn(r, (8, 3)))
        v = update_coeffs(b.copy(), b, u, np.ones(3), 0.1)
        assert np.allclose(v, 0, atol=1e-14)

    def test_coeffs_normal_equation_residual(self):
        r = np.random.default_rng(8)
        d = crandn(r, (6, 4))
        b = crandn(r, (6, 4), 0.2)
        u = crandn(r, (6, 3))
        w = r.random(3) + 0.5
        lam = 0.05
        v = update_coeffs(d, b, u, w, lam)
        gram = u.conj().T @ u + np.diag(2 * lam * w)
        rhs = (d - b).conj().T @ u
        assert np.linalg.norm(v @ gram - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_basis_symmetric_contracts(self):
        r = np.random.default_rng(9)
        d = crandn(r, (6, 4))
        b = crandn(r, (6, 4), 0.2)
        v, _ = np.linalg.qr(crandn(r, (4, 2)))
        u = update_basis(d, b, v, np.ones(2), 0.0)
        assert np.allclose(u, (d - b) @ v, atol=1e-12)
        u2 = update_basis(b.copy(), b, v, np.ones(2), 0.3)
        assert np.allclose(u2, 0, atol=1e-14)

    def test_basis_normal_equation_residual(self):
        r = np.random.default_rng(10)
        d = crandn(r, (7, 5))
        b = crandn(r, (7, 5), 0.3)
        v = crandn(r, (5, 3))
        w = r.random(3) + 0.2
        lam = 0.02
        u = update_basis(d, b, v, w, lam)
        gram = v.conj().T @ v + np.diag(2 * lam * w)
        rhs = (d - b) @ v
        assert np.linalg.norm(u @ gram - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_singular_unpenalized_system_rejected(self):
        r = np.random.default_rng(11)
        d = crandn(r, (6, 4))
        u = np.zeros((6, 2), dtype=complex)
        with pytest.raises(SolverError):
            update_coeffs(d, np.zeros_like(d), u, np.ones(2), 0.0)


class TestFactorSolvePrecision:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.complex64, np.complex128]),
           n=st.integers(2, 30), m=st.integers(1, 12), d=st.integers(1, 4),
           exponent=st.floats(-1.2, 0.0))
    def test_parts_below_the_floor_turn_zero_and_the_rest_match_a_double_solve(
            self, seed, dtype, n, m, d, exponent):
        # exponent -1 scales one factor column and its column of P to the flush
        # floor sqrt(tiny/eps), the regime the column reweighting drives dead columns to
        info = np.finfo(dtype)
        floor = np.sqrt(info.tiny / info.eps)
        r = np.random.default_rng(seed)
        f, p = crandn(r, (n, d)), crandn(r, (m, d))
        if exponent < 0.0:
            scale = float(floor) ** -exponent
            f[:, 0] *= scale
            p[:, 0] *= scale
        f, p, w_diag = f.astype(dtype), p.astype(dtype), r.random(d) + 0.5
        got = irls._factor_solve(f, p, w_diag)
        gram = (f.conj().T @ f).astype(np.complex128) + np.diag(w_diag)
        exact = p.astype(np.complex128) @ hermitian_inverse(gram)
        assert got.dtype == dtype
        for part, want in ((got.real, exact.real), (got.imag, exact.imag)):
            assert not np.any((part != 0) & (np.abs(part) < floor))
            kept = np.abs(want) >= floor
            assert np.array_equal(part[kept], want[kept].astype(info.dtype))
        small = np.abs([exact.real, exact.imag])
        if not np.any((small > 0) & (small < floor)):
            assert np.array_equal(got, exact.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_a_dying_column_leaves_no_subnormal_gram_entry(self, dtype):
        # parts near sqrt(tiny) / 100 lie above the old floor tiny/eps but square
        # to subnormal numbers; the floor flushes them, so F^H F of the update's
        # output, the next Gram matrix, has only zero or normal parts
        info = np.finfo(dtype)
        r = np.random.default_rng(20)
        f, p = crandn(r, (30, 4)), crandn(r, (12, 4))
        for m in (f, p):
            m[:, 0] *= np.sqrt(info.tiny) / 100.0
        got = irls._factor_solve(f.astype(dtype), p.astype(dtype), r.random(4) + 0.5)
        assert not np.any(got[:, 0])
        gram = got.conj().T @ got
        parts = np.abs([gram.real, gram.imag])
        assert not np.any((parts > 0) & (parts < info.tiny))


class TestSquaredNorm:
    @pytest.mark.parametrize("dtype, rel", [(np.complex64, 1e-6), (np.complex128, 1e-14),
                                            (np.float32, 1e-6), (np.float64, 1e-14)])
    def test_matches_an_exactly_rounded_sum(self, dtype, rel):
        r = np.random.default_rng(21)
        f = crandn(r, (300, 50)).astype(dtype) if np.dtype(dtype).kind == "c" \
            else r.standard_normal((300, 50)).astype(dtype)
        parts = np.concatenate([f.real.ravel(), f.imag.ravel()]) if np.iscomplexobj(f) \
            else f.ravel()
        want = math.fsum(float(x) * float(x) for x in parts.astype(np.float64))
        assert irls.squared_norm(f) == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_zero_matrix_gives_exactly_zero(self, dtype):
        assert irls.squared_norm(np.zeros((7, 5), dtype)) == 0.0


class TestConvergenceMetric:
    """The metric reads the estimate E = D - F off the misfits F."""

    def test_identical_iterates(self):
        r = np.random.default_rng(12)
        d, f = crandn(r, (4, 4)), crandn(r, (4, 4))
        assert convergence_metric(d, f, f) == 0.0

    def test_doubling(self):
        r = np.random.default_rng(13)
        d, e = crandn(r, (4, 3)), crandn(r, (4, 3))
        m = convergence_metric(d, d - 2 * e, d - e)
        assert m == pytest.approx(1.0, rel=1e-12)

    def test_matches_recompute(self):
        r = np.random.default_rng(14)
        d, tn, bn, tp, bp = (crandn(r, (5, 6)) for _ in range(5))
        ref = np.linalg.norm(tn + bn - tp - bp) ** 2 / np.linalg.norm(tp + bp) ** 2
        got = convergence_metric(d, d - tn - bn, d - tp - bp)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_zero_previous(self):
        z = np.zeros((2, 2), dtype=complex)
        assert convergence_metric(z, z, z) == 0.0
        with pytest.raises(ValueError):
            convergence_metric(z, -np.ones((2, 2), dtype=complex), z)


class TestRunIrls:
    def test_pure_rank_one(self):
        r = np.random.default_rng(15)
        d = crandn(r, (40, 1)) @ crandn(r, (20, 1)).conj().T
        dec, trace = irls.run_irls(d, make_config(d=1, lambda_b=0.01, lambda_c=0.001))
        assert np.linalg.norm(dec.blood_b) <= 1e-6 * np.linalg.norm(d)
        assert trace.iterations <= 100

    def test_sparse_recovery(self):
        t, b0 = lowrank_sparse_instance(seed=100)
        d = t + b0
        cfg = irls.IrlsConfig(d=6, lambda_c=1.0, lambda_b=0.005)
        dec, trace = irls.run_irls(d, cfg)
        rel = np.linalg.norm(dec.blood_b - b0) / np.linalg.norm(b0)
        assert rel <= 0.1
        assert trace.convergence[-1] < cfg.tol or trace.iterations == cfg.max_iter

    def test_fixed_weight_objective_never_increases(self):
        t, b0 = lowrank_sparse_instance(seed=101, ns=80, nt=40)
        _, trace = irls.run_irls(t + b0, make_config(d=5, lambda_c=0.003, lambda_b=0.004))
        assert np.all(trace.objective <= trace.objective_pre * (1 + 1e-9))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ns=st.integers(8, 60), nt=st.integers(4, 30),
           rank=st.integers(1, 4), d_frac=st.floats(0.0, 1.0),
           log_lambda_c=st.floats(-3.0, 0.5), log_lambda_b=st.floats(-3.0, 0.0),
           log_scale=st.floats(-3.0, 3.0), single=st.booleans())
    def test_block_descent_certificate_on_random_instances(
            self, seed, ns, nt, rank, d_frac, log_lambda_c, log_lambda_b, log_scale, single):
        t, b0 = lowrank_sparse_instance(seed, ns=ns, nt=nt, rank=rank, support=0.05)
        noise = crandn(np.random.default_rng(seed + 1), (ns, nt), 0.01)
        d_mat = (t + b0 + noise) * 10.0 ** log_scale
        d = 1 + int(d_frac * (min(ns, nt) - 1))
        cfg = make_config(d=d, lambda_c=10.0 ** log_lambda_c, lambda_b=10.0 ** log_lambda_b,
                          max_iter=8)
        if single:
            # a complex64 matrix is solved in single precision
            d_mat, slack = d_mat.astype(np.complex64), 8 * np.finfo(np.float32).eps
        else:
            slack = 1e-9
        _, trace = irls.run_irls(d_mat, cfg)
        assert np.all(trace.objective <= trace.objective_pre * (1 + slack))

    def test_trace_shapes_and_stop_rule(self):
        t, b0 = lowrank_sparse_instance(seed=102, ns=60, nt=30)
        cfg = make_config(d=4, max_iter=7, tol=1e-300)
        _, trace = irls.run_irls(t + b0, cfg)
        assert trace.iterations == 7
        assert len(trace.convergence) == 7
        assert len(trace.objective) == 7

    def test_deterministic(self):
        r = np.random.default_rng(16)
        d = crandn(r, (50, 25))
        dec1, _ = irls.run_irls(d, make_config())
        dec2, _ = irls.run_irls(d, make_config())
        assert np.array_equal(dec1.blood_b, dec2.blood_b)
        assert np.array_equal(dec1.basis_u, dec2.basis_u)
        assert np.array_equal(dec1.coeffs_v, dec2.coeffs_v)

    def test_normalization_scale_equivariance(self):
        r = np.random.default_rng(17)
        d = crandn(r, (30, 15))
        dec1, _ = irls.run_irls(d, make_config())
        dec4, _ = irls.run_irls(4.0 * d, make_config())
        assert np.array_equal(dec4.blood_b, 4.0 * dec1.blood_b)

    def test_zero_input(self):
        dec, _ = irls.run_irls(np.zeros((12, 6), dtype=complex), make_config(d=2))
        assert np.all(dec.blood_b == 0)
        assert np.all(dec.basis_u @ dec.coeffs_v.conj().T == 0)

    def test_kidney_scale_parameters_accepted(self):
        r = np.random.default_rng(18)
        d = crandn(r, (120, 40))
        cfg = irls.IrlsConfig(d=25, lambda_c=0.01, lambda_b=0.0004, max_iter=3)
        dec, trace = irls.run_irls(d, cfg)
        assert np.all(np.isfinite(dec.blood_b))
        assert trace.iterations == 3

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_peak_memory_is_bounded_by_the_input(self, dtype):
        # the work matrix, the steps' two complex buffers and one real one
        # (half the input), and the solver's own two complex ones, F and a
        # free one that takes |B|^2 and its quotient by s side by side: 5.5x
        # the input, plus the factor updates' n x d temporaries. Measured:
        # 6.12x in complex64, 5.87x in complex128. A fresh full-size array
        # per pass would exceed the bound
        t, b0 = lowrank_sparse_instance(seed=27, ns=2000, nt=100, rank=6)
        d_mat = np.asfortranarray(t + b0).astype(dtype)
        cfg = make_config(d=10, lambda_c=1.0, lambda_b=0.02, max_iter=10, tol=1e-300)
        tracemalloc.start()
        try:
            irls.run_irls(d_mat, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.2 * d_mat.nbytes, f"peak {peak / d_mat.nbytes:.2f}x the input"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            irls.IrlsConfig(d=0, lambda_c=0.1, lambda_b=0.1)
        with pytest.raises(ValueError):
            irls.IrlsConfig(d=2, lambda_c=0.1, lambda_b=0.1, epsilon=0.0)
        with pytest.raises(ValueError):
            irls.IrlsConfig(d=2, lambda_c=0.1, lambda_b=0.1, tol=-1.0)
        with pytest.raises(ValueError):
            irls.run_irls(np.ones((3, 2), dtype=complex), make_config(d=3))


def reference_irls(d_mat, cfg, estimate_based=False):
    """The solver loop as written before the fused step, from the public helpers.

    Every iteration recomputes U V^H, D - B, |B|^2 and the misfit
    F = (D - U V^H) - B where it needs them; run_irls must return the same
    bits. With estimate_based, the fit and convergence terms take the
    definitions the solver used before it carried the misfit:
    np.linalg.norm of F, and of the estimate T + B's change over its
    previous value.
    """
    def objective(u, v, b, s, w_c):
        f = misfit(d_work, u, v, b)
        fit = 0.5 * (np.linalg.norm(f) ** 2 if estimate_based else irls.squared_norm(f))
        col = float(np.dot(w_c, (np.abs(u) ** 2).sum(axis=0) + (np.abs(v) ** 2).sum(axis=0)))
        spr = float((np.abs(b) ** 2 / s).sum())
        return fit + cfg.lambda_c * col + cfg.lambda_b * spr

    def metric(u, v, b, prev_u, prev_v, prev_b):
        if estimate_based:
            prev = prev_u @ prev_v.conj().T + prev_b
            return irls._relative_change(np.linalg.norm(u @ v.conj().T + b - prev) ** 2,
                                         np.linalg.norm(prev) ** 2)
        return convergence_metric(d_work, misfit(d_work, u, v, b),
                                  misfit(d_work, prev_u, prev_v, prev_b))

    d_work, scale, u, v = irls.prepare_input(d_mat, cfg.d)
    b = np.zeros_like(d_work)
    w_c = irls.lowrank_weights(irls.column_energy(u, v), cfg.epsilon)
    conv, obj, obj_pre = [], [], []
    for k in range(1, cfg.max_iter + 1):
        s = blood_scale(b, cfg.epsilon)
        obj_pre.append(objective(u, v, b, s, w_c))
        prev = u, v, b
        b = update_blood(d_work, u, v, s, cfg.lambda_b)
        v = update_coeffs(d_work, b, u, w_c, cfg.lambda_c)
        u = update_basis(d_work, b, v, w_c, cfg.lambda_c)
        obj.append(objective(u, v, b, s, w_c))
        conv.append(metric(u, v, b, *prev))
        w_c = irls.lowrank_weights(irls.column_energy(u, v), cfg.epsilon)
        if conv[-1] < cfg.tol:
            break
    dec = irls.Decomposition(basis_u=u, coeffs_v=v * scale, blood_b=b * scale)
    return dec, irls.IrlsTrace(iterations=k, convergence=np.asarray(conv),
                               objective=np.asarray(obj),
                               objective_pre=np.asarray(obj_pre))


def equivalence_cases():
    from test_acceptance import recovery_instance
    criterion_1 = irls.IrlsConfig(d=6, lambda_c=1.0, lambda_b=0.005)
    cases = [pytest.param(recovery_instance(seed)[1], criterion_1, id=f"criterion1-seed{seed}")
             for seed in range(10)]
    t, b0 = lowrank_sparse_instance(seed=103, ns=2000, nt=40)
    cases.append(pytest.param(t + b0, irls.IrlsConfig(d=4, lambda_c=0.5, lambda_b=0.02,
                                                      max_iter=30), id="tall-2000x40"))
    t, b0 = lowrank_sparse_instance(seed=104, ns=300, nt=40, rank=4)
    cases.append(pytest.param(1e6 * (t + b0), irls.IrlsConfig(d=5, lambda_c=0.3, lambda_b=0.01,
                                                              max_iter=40),
                              id="scaled-300x40"))
    return cases


class TestFusedStepEquivalence:
    @pytest.mark.parametrize("d_mat, cfg", equivalence_cases())
    def test_run_irls_matches_reference_loop(self, d_mat, cfg):
        want_dec, want = reference_irls(d_mat, cfg)
        got_dec, got = irls.run_irls(d_mat, cfg)
        assert got.iterations == want.iterations
        for field in ("basis_u", "coeffs_v", "blood_b"):
            assert np.array_equal(getattr(got_dec, field), getattr(want_dec, field)), field
        for field in ("convergence", "objective", "objective_pre"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("d_mat, cfg", equivalence_cases())
    def test_trace_matches_the_estimate_based_definitions(self, d_mat, cfg):
        # the misfit's change equals the estimate's in exact arithmetic; the
        # norms differ only by rounding
        _, got = irls.run_irls(d_mat, cfg)
        fixed = dataclasses.replace(cfg, max_iter=got.iterations, tol=1e-300)
        _, want = reference_irls(d_mat, fixed, estimate_based=True)
        for field in ("convergence", "objective", "objective_pre"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-12)

    @pytest.mark.parametrize("dtype, rtol", [(np.complex64, 1e-5), (np.complex128, 1e-12)])
    def test_desk_trace_matches_the_estimate_based_definitions(self, desk_ensemble, dtype, rtol):
        d_mat = desk_ensemble.astype(dtype)
        cfg = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02)
        dec, got = irls.run_irls(d_mat, cfg)
        fixed = dataclasses.replace(cfg, max_iter=got.iterations, tol=1e-300)
        want_dec, want = reference_irls(d_mat, fixed, estimate_based=True)
        assert np.array_equal(dec.blood_b, want_dec.blood_b)
        for field in ("convergence", "objective", "objective_pre"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=rtol)

    def test_solver_iterations_equal_layers(self):
        t, b0 = lowrank_sparse_instance(seed=105, ns=90, nt=30)
        d_mat = t + b0
        cfg = make_config(d=4, lambda_c=0.2, lambda_b=0.03, max_iter=3, tol=1e-300)
        dec, _ = irls.run_irls(d_mat, cfg)
        # layers that take the solver's exact penalties, with no softplus round trip
        penalties = [(cfg.lambda_b, 2.0 * cfg.lambda_c * w_c)
                     for w_c in solver_weights(d_mat, cfg)]
        work, scale, u0, v0 = irls.prepare_input(d_mat, cfg.d)
        *_, (u, v, b, _, _) = irls.steps(work, u0, v0, penalties, cfg.epsilon)
        assert np.array_equal(u, dec.basis_u)
        assert np.array_equal(v * scale, dec.coeffs_v)
        assert np.array_equal(b * scale, dec.blood_b)

    def test_step_leaves_blood_in_the_residual_buffer(self):
        r = np.random.default_rng(19)
        d_mat, _, u, v = irls.prepare_input(crandn(r, (20, 8)), 2)
        resid = d_mat - u @ v.conj().T
        want = update_blood(d_mat, u, v, blood_scale(np.zeros_like(d_mat), 1e-8), 0.1)
        s = irls.blood_scale(np.zeros(d_mat.shape), 1e-8)
        _, _, b = irls.update_step(d_mat, u, resid, s, 0.1, np.ones(2),
                                   np.empty(resid.shape, resid.dtype))
        assert b is resid
        assert np.array_equal(b, want)
        assert np.array_equal(s, np.full(d_mat.shape, np.sqrt(1e-8)))
        with pytest.raises(ValueError):
            irls.blood_scale(np.zeros(d_mat.shape), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ns=st.integers(1, 40), nt=st.integers(1, 20),
           lambda_b=st.floats(0.0, 1e3), epsilon=st.sampled_from([1e-12, 1e-8, 1e-3, 1.0]),
           fortran=st.booleans())
    def test_step_shrinks_the_residual_and_its_blood_rebuilds_from_w_b(
            self, seed, ns, nt, lambda_b, epsilon, fortran):
        r = np.random.default_rng(seed)
        d = int(r.integers(1, min(ns, nt) + 1))
        d_mat = crandn(r, (ns, nt))
        if fortran:
            d_mat = np.asfortranarray(d_mat)
        u, v = crandn(r, (ns, d)), crandn(r, (nt, d))
        b_in = crandn(r, (ns, nt), r.choice([0.0, 1e-3, 1.0]))
        resid = d_mat - u @ v.conj().T
        bound = np.abs(resid)
        s = irls.blood_scale(np.abs(b_in) ** 2, epsilon)
        _, _, b = irls.update_step(d_mat, u, resid, s, lambda_b, r.random(d) + 0.1,
                                   np.empty(resid.shape, resid.dtype))
        assert np.all(np.abs(b) <= bound)
        # the adjoint rebuilds each layer's B this way instead of storing it
        rebuilt = (d_mat - u @ v.conj().T) * (s / (s + 2.0 * lambda_b))
        assert np.array_equal(rebuilt, b)


class TestSteps:
    """irls.steps, the one loop the solver's iterations and the network's layers run in."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_yields_each_steps_residual_and_blood_scale_and_draws_lazily(self, dtype):
        t, b0 = lowrank_sparse_instance(seed=106, ns=120, nt=30)
        work, _, u, v = irls.prepare_input((t + b0).astype(dtype), 4)
        yielded, draws = 0, []

        def penalties():
            # the solver computes each pair from the previous step's output, so
            # a pair may be drawn only after that step has been yielded
            for k in range(5):
                draws.append(yielded)
                yield 0.01 * (k + 1), np.full(4, 0.3)

        b_prev = np.zeros((1, 1), dtype)
        for u, v, b, resid, s in irls.steps(work, u, v, penalties(), 1e-8):
            assert resid.tobytes() == (work - u @ v.conj().T).tobytes()
            want = irls.blood_scale(np.square(np.abs(b_prev)), 1e-8)
            assert s.shape == want.shape and s.tobytes() == want.tobytes()
            b_prev = b.copy()
            yielded += 1
        assert yielded == 5
        assert draws == [0, 1, 2, 3, 4]


class TestSinglePrecision:
    CFG = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02)

    def test_complex64_filters_track_their_complex128_runs(self, desk_ensemble):
        wide = desk_ensemble.astype(np.complex128)
        dec, trace = irls.run_irls(desk_ensemble, self.CFG)
        want, want_trace = irls.run_irls(wide, self.CFG)
        net = unfolded.init_network(desk_ensemble, 15, 10, 0.02, self.CFG)
        got_net, want_net = unfolded.infer(net, desk_ensemble), unfolded.infer(net, wide)
        assert trace.iterations == want_trace.iterations < self.CFG.max_iter
        for got, ref in ((dec, want), (got_net, want_net)):
            assert got.blood_b.dtype == got.coeffs_v.dtype == np.complex64
            assert want.blood_b.dtype == np.complex128
            rel = np.linalg.norm(got.blood_b - ref.blood_b) / np.linalg.norm(ref.blood_b)
            assert rel <= 1e-3

    def test_dying_factor_columns_skip_the_subnormal_range(self, desk_ensemble):
        # the column reweighting shrinks 8 of the 10 coefficient columns
        # geometrically; unflushed, 45 iterations leave some of their
        # entries subnormal in complex128
        cfg = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02, max_iter=45, tol=1e-300)
        dec, _ = irls.run_irls(desk_ensemble.astype(np.complex128), cfg)
        for factor in (dec.basis_u, dec.coeffs_v):
            parts = np.abs([factor.real, factor.imag])
            assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))
        assert np.count_nonzero(~np.any(dec.coeffs_v, axis=0)) >= 1

    @pytest.mark.parametrize("amplitude", [1e-30, 1e25])
    def test_complex64_input_runs_in_single_at_any_scale(self, amplitude):
        # |B|^2 of the raw data would underflow or overflow single precision
        # here; scaled to peak 1, it lies well inside its range
        d_mat = (amplitude * crandn(np.random.default_rng(21), (30, 10))).astype(np.complex64)
        work, scale, *_ = irls.prepare_input(d_mat, 2)
        assert work.dtype == np.complex64 and np.abs(work).max() == 1.0
        assert scale == np.abs(d_mat).max()
        got, got_trace = irls.run_irls(d_mat, make_config(d=2))
        want, want_trace = irls.run_irls(d_mat.astype(np.complex128), make_config(d=2))
        assert got.blood_b.dtype == np.complex64 and np.all(np.isfinite(got.blood_b))
        assert got_trace.iterations == want_trace.iterations
        rel = np.linalg.norm(got.blood_b - want.blood_b) / np.linalg.norm(want.blood_b)
        assert rel <= 1e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.complex128])
    def test_every_other_input_is_solved_in_double(self, dtype):
        d_mat = np.arange(1, 13).reshape(4, 3).astype(dtype)
        work, scale, *_ = irls.prepare_input(d_mat, 2)
        assert work.dtype == np.complex128 and scale == 12.0
        assert np.array_equal(work, d_mat.astype(np.complex128) / 12.0)
        zero, unit, *_ = irls.prepare_input(np.zeros((4, 3), dtype=dtype), 2)
        assert zero.dtype == np.complex128 and not np.any(zero) and unit == 1.0

    def test_extreme_penalties_stay_finite_and_quiet(self):
        d_mat = crandn(np.random.default_rng(22), (30, 10)).astype(np.complex64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec, _ = irls.run_irls(d_mat, make_config(d=2, epsilon=1e-50))
            blood = [unfolded.infer(unfolded.UnfoldedNetwork(np.array([[theta, 0.0]]), 1e-50),
                                    d_mat).blood_b for theta in (-1000.0, 1e300)]
        for b in [dec.blood_b, *blood]:
            assert b.dtype == np.complex64 and np.all(np.isfinite(b))
        assert not np.any(blood[1])

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_non_finite_iterate_is_a_solver_error(self, dtype):
        # finite data, but 2 lambda_c (1.7e308) or the penalty term (1e307)
        # overflows: the factor solves turn NaN, and no warning is printed
        d_mat = crandn(np.random.default_rng(20), (30, 10)).astype(dtype)
        for lambda_c, k in ((1.7e308, 1), (1e307, 2)):
            with pytest.raises(SolverError, match=f"non-finite iterate at iteration {k}"):
                irls.run_irls(d_mat, make_config(d=2, lambda_c=lambda_c))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_refused(self, dtype, bad):
        d_mat = crandn(np.random.default_rng(20), (30, 10))
        d_mat[4, -1] = bad
        d_mat = d_mat.astype(dtype)
        net = unfolded.init_network(crandn(np.random.default_rng(21), (30, 10)), 2, 2, 0.1,
                                    make_config(d=2))
        for solve in (lambda: irls.run_irls(d_mat, make_config(d=2)),
                      lambda: unfolded.infer(net, d_mat),
                      lambda: unfolded.layer_residuals(net, d_mat)):
            with pytest.raises(ValueError, match="non-finite entries"):
                solve()


class TestWorkLayout:
    """The work matrix is C-ordered, like every temporary the solver forms."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_prepare_input_returns_c_order_for_every_layout(self, dtype):
        d_mat = crandn(np.random.default_rng(25), (40, 12)).astype(dtype)
        starts = set()
        for name, x in layouts(d_mat).items():
            for data in (x, np.zeros_like(x)):
                work, _, u0, v0 = irls.prepare_input(data, 3)
                assert work.flags.c_contiguous, name
                assert work.dtype == u0.dtype == v0.dtype == dtype
                if np.any(data):
                    starts.add((u0.tobytes(), v0.tobytes()))
                    np.testing.assert_allclose(u0.conj().T @ u0, np.eye(3), rtol=0,
                                               atol=10 * np.finfo(dtype).eps)
                else:  # the canonical basis, so the zero decomposition is representable
                    assert np.array_equal(u0, np.eye(40, 3)) and not np.any(v0), name
        # the start, like the work matrix, does not depend on the input layout
        assert len(starts) == 1

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_solver_output_bytes_do_not_depend_on_the_input_layout(self, dtype):
        t, b0 = lowrank_sparse_instance(26, ns=300, nt=40)
        cfg = make_config(d=4, max_iter=8, tol=1e-300)
        runs = {name: irls.run_irls(x, cfg)
                for name, x in layouts((t + b0).astype(dtype)).items()}
        want_dec, want_trace = runs.pop("C")
        for name, (dec, trace) in runs.items():
            for got, want in ((dec.basis_u, want_dec.basis_u),
                              (dec.coeffs_v, want_dec.coeffs_v),
                              (dec.blood_b, want_dec.blood_b),
                              (trace.convergence, want_trace.convergence),
                              (trace.objective, want_trace.objective),
                              (trace.objective_pre, want_trace.objective_pre)):
                assert got.tobytes() == want.tobytes(), name
            assert trace.iterations == want_trace.iterations


class TestBloodShrink:
    """update_step's blood update B = R s / (s + 2 lambda_b), s = sqrt(|B_in|^2 + epsilon)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.complex64, np.complex128]),
           ns=st.integers(1, 30), nt=st.integers(1, 12),
           lambda_b=st.one_of(st.sampled_from([0.0, "max"]), st.floats(1e-12, 1e6)),
           epsilon=st.sampled_from([1e-50, 1e-12, 1e-8, 1e-3, 1.0]),
           b_scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0]))
    def test_blood_shrinks_the_residual_by_the_weighted_divisor(
            self, seed, dtype, ns, nt, lambda_b, epsilon, b_scale):
        r = np.random.default_rng(seed)
        info = np.finfo(dtype)
        if lambda_b == "max":
            lambda_b = float(info.max)
        d_mat = crandn(r, (ns, nt)).astype(dtype)
        u = crandn(r, (ns, 1)).astype(dtype)
        # magnitudes from 1e-3 to 1e3, with exact zeros of both signs
        resid = (crandn(r, (ns, nt)) * 10.0 ** r.uniform(-3, 3, (ns, nt))).astype(dtype)
        resid.real[::3] *= -0.0
        resid.imag[::4] = 0.0
        b_sq = np.square(np.abs(crandn(r, (ns, nt), b_scale))).astype(info.dtype)
        entering = resid.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = irls.blood_scale(b_sq, epsilon)
            _, _, b = irls.update_step(d_mat, u, resid, s, lambda_b, np.ones(1),
                                       np.empty(resid.shape, resid.dtype))
        assert b.dtype == dtype and s.dtype == info.dtype
        assert np.all(np.abs(b) <= np.abs(entering))
        if lambda_b == 0.0:
            assert np.array_equal(b, entering)
        elif lambda_b == float(info.max):
            assert not np.any(b)
        else:
            # the weighted form, a few rounding steps apart
            want = entering / (1.0 + 2.0 * lambda_b / s)
            assert np.all(np.abs(b - want) <= 8 * info.eps * np.abs(entering) + info.tiny)
