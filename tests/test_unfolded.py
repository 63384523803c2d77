import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import irls, unfolded
from solver_reference import (blood_scale, finite_difference_gradient, layouts, solver_weights,
                              update_basis, update_blood, update_coeffs)


def crandn(r, shape, scale=1.0):
    return scale * (r.standard_normal(shape) + 1j * r.standard_normal(shape))


def lowrank_sparse(seed, ns, nt, rank=2, support=0.03, boost=5.0, noise=0.01):
    r = np.random.default_rng(seed)
    t = crandn(r, (ns, rank)) @ crandn(r, (nt, rank)).conj().T
    es = np.linalg.norm(t) / np.sqrt(ns * nt)
    b = np.zeros((ns, nt), dtype=complex)
    hits = r.choice(ns * nt, size=int(round(support * ns * nt)), replace=False)
    b.flat[hits] = boost * es * np.exp(2j * np.pi * r.random(hits.size))
    return t + b + noise * es * crandn(r, (ns, nt))


def frozen_net_from_irls(d_mat, d, k, lambda_c, lambda_b, epsilon=1e-8):
    """Freeze layer parameters to reproduce k baseline iterations exactly."""
    cfg = irls.IrlsConfig(d=d, lambda_c=lambda_c, lambda_b=lambda_b,
                          epsilon=epsilon, max_iter=k, tol=1e-300)
    dec, _ = irls.run_irls(d_mat, cfg)
    theta = [np.append(unfolded.inv_softplus(lambda_b), unfolded.inv_softplus(2.0 * lambda_c * w))
             for w in solver_weights(d_mat, cfg)]
    net = unfolded.UnfoldedNetwork(theta=theta, epsilon=epsilon)
    return net, dec


def one_layer(d_mat, u0, v0, penalties, epsilon=1e-8):
    """(u, v, b) after one network layer with raw penalties, from (u0, v0) and B = 0."""
    return next(irls.steps(d_mat, u0, v0, [penalties], epsilon))[:3]


class TestPositivityMap:
    def test_round_trip(self):
        for val in (20.0, 10.0, 6.0, 0.5, 1e-6):
            theta = unfolded.inv_softplus(val)
            assert unfolded.softplus(theta) == pytest.approx(val, rel=1e-12)

    def test_zero_target_is_effectively_zero(self):
        lam = unfolded.softplus(unfolded.inv_softplus(0.0))
        assert irls.blood_shrink(np.array([1e-4]), lam)[0] == 1.0

    def test_always_positive(self):
        theta = np.linspace(-60, 60, 25)
        assert np.all(unfolded.softplus(theta) > 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 20), d=st.integers(1, 12),
           spread=st.sampled_from([1e-3, 1.0, 30.0, 700.0]))
    def test_logistic_is_scipy_expit_bit_for_bit(self, seed, k, d, spread):
        """scipy is the reference only: the gradient's softplus derivative has expit's bytes."""
        from scipy.special import expit
        theta = np.random.default_rng(seed).standard_normal((k, 1 + d)) * spread
        assert unfolded.logistic(theta).tobytes() == expit(theta).tobytes()
        edges = np.array([[0.0, -0.0, 50.0, -50.0, 700.0, -700.0, 1e-300, -1e-300, -800.0]])
        assert unfolded.logistic(edges).tobytes() == expit(edges).tobytes()


class TestInitNetwork:
    def test_simulation_scale_accepted(self):
        r = np.random.default_rng(0)
        d_mat = crandn(r, (64, 32))
        cfg = irls.IrlsConfig(d=10, lambda_c=0.01, lambda_b=6.0)
        net = unfolded.init_network(d_mat, k=10, d=10, lambda_b_init=6.0, cfg=cfg)
        assert net.theta.shape == (10, 11)
        for lambda_b, w_c in net.penalties():
            assert lambda_b == pytest.approx(6.0, rel=1e-12)
            assert np.all(w_c > 0)

    def test_zero_lambda_first_layer_returns_residual(self):
        r = np.random.default_rng(1)
        d_mat = crandn(r, (20, 10))
        cfg = irls.IrlsConfig(d=3, lambda_c=0.01, lambda_b=0.0)
        net = unfolded.init_network(d_mat, k=1, d=3, lambda_b_init=0.0, cfg=cfg)
        work, _, u0, v0 = irls.prepare_input(d_mat, 3)
        state = one_layer(work, u0, v0, net.penalties()[0], epsilon=net.epsilon)
        assert np.array_equal(state[2], work - u0 @ v0.conj().T)

    def test_layer_weights_follow_init_factors(self):
        r = np.random.default_rng(2)
        d_mat = crandn(r, (24, 12))
        cfg = irls.IrlsConfig(d=4, lambda_c=0.05, lambda_b=1.0)
        net = unfolded.init_network(d_mat, k=3, d=4, lambda_b_init=1.0, cfg=cfg)
        _, _, u0, v0 = irls.prepare_input(d_mat, 4)
        want = 2.0 * 0.05 * irls.lowrank_weights(irls.column_energy(u0, v0), cfg.epsilon)
        for _, w_c in net.penalties():
            assert np.allclose(w_c, want, rtol=1e-9)

    @pytest.mark.parametrize("k, lambda_b_init", [(0, 1.0), (2, float("nan")),
                                                  (2, float("inf")), (2, -1.0)])
    def test_bad_shape_or_penalty_rejected(self, k, lambda_b_init):
        d_mat = crandn(np.random.default_rng(3), (12, 8))
        cfg = irls.IrlsConfig(d=2, lambda_c=0.05, lambda_b=1.0)
        with pytest.raises(ValueError):
            unfolded.init_network(d_mat, k=k, d=2, lambda_b_init=lambda_b_init, cfg=cfg)


class TestNetworkConstruction:
    @pytest.mark.parametrize("n_layers, d", [(0, 2), (1, 0)])
    def test_empty_network_rejected(self, n_layers, d):
        with pytest.raises(ValueError, match="at least one layer"):
            unfolded.UnfoldedNetwork(theta=np.zeros((n_layers, 1 + d)), epsilon=1e-8)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_theta_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="theta must be"):
            unfolded.UnfoldedNetwork(theta=np.zeros(shape), epsilon=1e-8)

    def test_d_follows_theta(self):
        net = unfolded.UnfoldedNetwork(theta=np.zeros((2, 4)), epsilon=1e-8)
        assert net.d == 3
        with pytest.raises(AttributeError):
            net.d = 5


class TestLayerForward:
    def test_matches_one_baseline_iteration(self):
        d_mat = lowrank_sparse(3, 30, 16)
        net, _ = frozen_net_from_irls(d_mat, d=4, k=1, lambda_c=0.02, lambda_b=0.05)
        work, _, u0, v0 = irls.prepare_input(d_mat, 4)
        b0 = np.zeros_like(work)
        u1, v1, b1 = one_layer(work, u0, v0, net.penalties()[0])

        s = blood_scale(b0, 1e-8)
        b_ref = update_blood(work, u0, v0, s, 0.05)
        w_c = irls.lowrank_weights(irls.column_energy(u0, v0), 1e-8)
        v_ref = update_coeffs(work, b_ref, u0, w_c, 0.02)
        u_ref = update_basis(work, b_ref, v_ref, w_c, 0.02)
        assert np.linalg.norm(b1 - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        assert np.linalg.norm(v1 - v_ref) <= 1e-10 * np.linalg.norm(v_ref)
        assert np.linalg.norm(u1 - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    def test_exact_factor_state_is_fixed_point(self):
        r = np.random.default_rng(4)
        u = crandn(r, (12, 2))
        v = crandn(r, (8, 2))
        d_mat = u @ v.conj().T
        u1, v1, b1 = one_layer(d_mat, u, v, (0.5, np.full(2, 1e-6)))
        assert np.allclose(b1, 0, atol=1e-14)
        assert np.linalg.norm(u1 @ v1.conj().T - d_mat) <= 1e-6 * np.linalg.norm(d_mat)

    def test_huge_lambda_suppresses_blood(self):
        r = np.random.default_rng(5)
        d_mat, _, u0, v0 = irls.prepare_input(crandn(r, (10, 6)), 2)
        _, _, b1 = one_layer(d_mat, u0, v0, (1e12, np.ones(2)))
        assert np.linalg.norm(b1) <= 1e-6 * np.linalg.norm(d_mat - u0 @ v0.conj().T)


class TestNetworkForward:
    def test_single_layer_network(self):
        d_mat = lowrank_sparse(6, 20, 10)
        net, _ = frozen_net_from_irls(d_mat, d=3, k=1, lambda_c=0.01, lambda_b=0.02)
        dec = unfolded.infer(net, d_mat)
        work, scale, u0, v0 = irls.prepare_input(d_mat, 3)
        u1, v1, b1 = one_layer(work, u0, v0, net.penalties()[0], epsilon=net.epsilon)
        assert np.allclose(dec.blood_b, b1 * scale, rtol=1e-12, atol=0)
        assert len(unfolded.layer_residuals(net, d_mat)) == 1

    def test_frozen_equivalence_multi_layer(self):
        sizes = [(64, 32, 5, 5), (40, 20, 3, 4), (16, 12, 2, 2)]
        for seed, (ns, nt, d, k) in enumerate(sizes, start=10):
            d_mat = lowrank_sparse(seed, ns, nt)
            net, dec = frozen_net_from_irls(d_mat, d=d, k=k, lambda_c=0.03, lambda_b=0.01)
            blood = unfolded.infer(net, d_mat).blood_b
            rel = np.linalg.norm(blood - dec.blood_b) / np.linalg.norm(dec.blood_b)
            assert rel <= 1e-10

    def test_residuals_finite(self):
        d_mat = lowrank_sparse(7, 24, 14)
        cfg = irls.IrlsConfig(d=3, lambda_c=0.01, lambda_b=1.0)
        net = unfolded.init_network(d_mat, k=4, d=3, lambda_b_init=1.0, cfg=cfg)
        residuals = unfolded.layer_residuals(net, d_mat)
        assert len(residuals) == 4
        assert np.all(np.isfinite(residuals))

    def test_scalar_weight_forward_is_rotation_invariant(self):
        d_mat = lowrank_sparse(8, 18, 12)
        row = unfolded.inv_softplus([0.3, 0.7, 0.7, 0.7])
        net = unfolded.UnfoldedNetwork(theta=[row, row], epsilon=1e-8)
        work, _, u0, v0 = irls.prepare_input(d_mat, 3)
        r = np.random.default_rng(9)
        q, _ = np.linalg.qr(crandn(r, (3, 3)))
        inits = (u0, v0), (u0 @ q, v0 @ q)
        b1, b2 = (list(irls.steps(work, *init, net.penalties(), net.epsilon))[-1][2]
                  for init in inits)
        assert np.allclose(b1, b2, rtol=1e-9, atol=1e-12)
        r1, r2 = (unfolded.layer_residuals(net, d_mat, init_state=init) for init in inits)
        assert np.mean(np.square(r1)) == pytest.approx(np.mean(np.square(r2)), rel=1e-9)


class TestLoss:
    """The training loss is the mean square of layer_residuals."""

    def test_exact_decomposition_zero(self):
        r = np.random.default_rng(11)
        u = crandn(r, (10, 2))
        v = crandn(r, (6, 2))
        d_mat = u @ v.conj().T
        # the weights act on the factors of the data scaled to peak 1, whose
        # V is smaller by that scale than the raw one
        net = unfolded.UnfoldedNetwork(theta=[unfolded.inv_softplus([0.5, 1e-8, 1e-8])],
                                       epsilon=1e-8)
        _, scale, *_ = irls.prepare_input(d_mat, 2)
        residuals = unfolded.layer_residuals(net, d_mat, init_state=(u, v / scale))
        assert residuals[0] <= 1e-6 * np.linalg.norm(d_mat)

    def test_scalar_case(self):
        # zero factors stay zero and a huge penalty keeps B near zero, so D is all misfit
        zero = np.zeros((1, 1), dtype=complex)
        net = unfolded.UnfoldedNetwork(theta=[unfolded.inv_softplus([1e12, 1.0])],
                                       epsilon=1e-8)
        residuals = unfolded.layer_residuals(net, np.array([[1.0 + 0j]]),
                                             init_state=(zero, zero))
        assert residuals == [pytest.approx(1.0)]

    def test_matches_recompute(self):
        d_mat = lowrank_sparse(12, 22, 11)
        cfg = irls.IrlsConfig(d=3, lambda_c=0.02, lambda_b=2.0)
        net = unfolded.init_network(d_mat, k=3, d=3, lambda_b_init=2.0, cfg=cfg)
        ref = []
        for k in range(1, 4):
            dec = unfolded.infer(dataclasses.replace(net, theta=net.theta[:k]), d_mat)
            ref.append(np.linalg.norm(d_mat - dec.blood_b - dec.basis_u @ dec.coeffs_v.conj().T))
        np.testing.assert_allclose(unfolded.layer_residuals(net, d_mat), ref, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.complex64, np.complex128]),
           ns=st.integers(8, 60), nt=st.integers(4, 30), k=st.integers(1, 5),
           lambda_b=st.floats(0.01, 5.0))
    def test_each_entry_is_its_definition(self, seed, dtype, ns, nt, k, lambda_b):
        # layer k's misfit is read off layer k + 1's D - U_k V_k^H; its
        # definition ||D - B_k - U_k V_k^H|| comes from the first k layers alone
        d_mat = lowrank_sparse(seed, ns, nt).astype(dtype)
        d = min(3, ns, nt)
        cfg = irls.IrlsConfig(d=d, lambda_c=0.05, lambda_b=lambda_b)
        net = perturbed(unfolded.init_network(d_mat, k=k, d=d, lambda_b_init=lambda_b, cfg=cfg),
                        seed % 7)
        got = unfolded.layer_residuals(net, d_mat)
        want = []
        for j in range(1, k + 1):
            dec = unfolded.infer(dataclasses.replace(net, theta=net.theta[:j]), d_mat)
            want.append(np.linalg.norm(d_mat - dec.blood_b - dec.basis_u @ dec.coeffs_v.conj().T))
        rtol = 1e-4 if dtype == np.complex64 else 1e-10
        np.testing.assert_allclose(got, want, rtol=rtol)

    def test_complex64_stays_complex64(self, monkeypatch):
        """init_network, layer_residuals, the adjoint and train keep the
        precision irls.prepare_input keeps; nothing in between widens."""
        seen = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                seen.extend(a.dtype for a in args if isinstance(a, np.ndarray) and a.ndim == 2)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("prepare_input", "update_step"):
            monkeypatch.setattr(irls, name, spy(getattr(irls, name)))
        d_mat = lowrank_sparse(13, 22, 40).astype(np.complex64)
        cfg = irls.IrlsConfig(d=3, lambda_c=0.02, lambda_b=2.0)
        net = unfolded.init_network(d_mat, k=3, d=3, lambda_b_init=2.0, cfg=cfg)
        got = unfolded.layer_residuals(net, d_mat)
        loss, _ = unfolded._analytic_loss_grad(net, d_mat)
        train_cfg = unfolded.TrainConfig(learning_rate=0.01, batch_frames=16, max_epochs=1,
                                         patience=1)
        unfolded.train(net, d_mat, None, train_cfg)
        assert set(seen) == {np.dtype(np.complex64), np.dtype(np.float32)}
        assert type(loss) is float
        # single-precision layers round differently from double ones, but only at float32 size
        want = unfolded.layer_residuals(net, d_mat.astype(np.complex128))
        assert got != want
        np.testing.assert_allclose(got, want, rtol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ns=st.integers(4, 40), nt=st.integers(3, 20),
           d=st.integers(1, 4), k=st.integers(1, 4), j=st.integers(-30, 30))
    def test_forward_loss_is_the_adjoint_loss(self, seed, ns, nt, d, k, j):
        r = np.random.default_rng(seed)
        d = min(d, ns, nt)
        d_mat = 2.0 ** j * crandn(r, (ns, nt))
        cfg = irls.IrlsConfig(d=d, lambda_c=0.05, lambda_b=0.5)
        net = unfolded.init_network(d_mat, k=k, d=d, lambda_b_init=0.5, cfg=cfg)
        net.theta += 0.1 * r.standard_normal(net.theta.shape)
        forward = np.mean(np.square(unfolded.layer_residuals(net, d_mat)))
        assert forward == pytest.approx(unfolded._analytic_loss_grad(net, d_mat)[0], rel=1e-11)


def tiny_net_and_data(seed=13, ns=12, nt=8, d=2, k=2, lambda_b=1.5):
    d_mat = lowrank_sparse(seed, ns, nt)
    cfg = irls.IrlsConfig(d=d, lambda_c=0.05, lambda_b=lambda_b)
    net = unfolded.init_network(d_mat, k=k, d=d, lambda_b_init=lambda_b, cfg=cfg)
    return net, d_mat


class TestParameterGradient:
    def test_analytic_matches_finite_difference(self):
        net, d_mat = tiny_net_and_data()
        g_fd = finite_difference_gradient(net, d_mat)
        g_an = unfolded._analytic_loss_grad(net, d_mat)[1]
        scale = np.max(np.abs(g_fd))
        assert scale > 0
        rel = np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-6 * scale)
        assert np.max(rel) <= 1e-4

    def test_richardson_step_halving(self):
        net, d_mat = tiny_net_and_data(seed=14)
        g_h = finite_difference_gradient(net, d_mat, fd_step=1e-4)
        g_h2 = finite_difference_gradient(net, d_mat, fd_step=5e-5)
        g_ref = finite_difference_gradient(net, d_mat, fd_step=1e-6)
        err_h = np.abs(g_h - g_ref)
        err_h2 = np.abs(g_h2 - g_ref)
        # central differences: quartering the error when the step halves;
        # components whose error already sits at the roundoff floor of the
        # reference step are excluded (their ratio is noise, not truncation)
        big = err_h > 2e-8 * np.max(np.abs(g_ref))
        assert np.count_nonzero(big) >= 2
        assert np.all(err_h2[big] <= 0.35 * err_h[big])

    def test_flat_direction_is_zero(self):
        r = np.random.default_rng(15)
        ns, nt, d = 14, 9, 3
        d_mat = crandn(r, (ns, nt))
        row = unfolded.inv_softplus([0.8] + [1.0] * d)
        net = unfolded.UnfoldedNetwork(theta=[row, row], epsilon=1e-8)
        u0 = np.zeros((ns, d), dtype=complex)
        u0[0, 0] = 1.0
        u0[1, 1] = 1.0
        # column 2 carries no energy: its weight cannot influence the loss
        v0 = irls.prepare_input(d_mat, d)[0].conj().T @ u0
        g_fd = finite_difference_gradient(net, d_mat, init_state=(u0, v0))
        g_an = unfolded._analytic_loss_grad(net, d_mat, init_state=(u0, v0))[1]
        # weight 2 of each layer
        for grad in (g_fd[:, 3], g_an[:, 3]):
            assert np.all(np.abs(grad) <= 1e-6)


def reference_analytic_loss_grad(net, d_mat, init_state=None):
    """Reference adjoint that keeps every layer's complex B.

    It recomputes each layer's blood scale from the B entering it;
    _analytic_loss_grad, which keeps the states of every ceil(sqrt(K))-th
    layer and of the last segment, reruns the rest and forms each B again,
    must return the same bits. Like it, the reference runs in the work matrix's
    precision, with irls.gram_inverse's d x d inverses narrowed to it and
    the loss summed in double.
    """
    from scipy.special import expit
    work, scale, *start = irls.prepare_input(d_mat, net.d)
    u0, v0 = start if init_state is None else init_state
    # entry k holds layer k's input, entry k + 1 its output; irls.steps reuses its
    # buffers, so each B is copied before the next layer overwrites it
    states = [(u0, v0, np.zeros_like(work))] + [
        (u, v, b.copy()) for u, v, b, _, _ in irls.steps(work, u0, v0, net.penalties(),
                                                          net.epsilon)]
    n_layers = len(net.theta)
    c = 1.0 / n_layers

    loss_norm = 0.0
    g_theta = np.zeros(net.theta.shape)
    g_u_next = None
    g_v_next = None
    g_b_next = None
    for k in range(n_layers - 1, -1, -1):
        u_in, v_in, b_in = states[k]
        u, v, b = states[k + 1]
        states[k + 1] = None
        lam, w_c = net.penalties()[k]
        s = blood_scale(b_in, net.epsilon)
        shrink = s / (s + 2.0 * lam)
        e = (work - u @ v.conj().T) - b
        misfit = float(np.linalg.norm(e))
        loss_norm += misfit * misfit

        # gradients times -1 / c, as the adjoint carries them
        g_u = e @ v
        g_v = e.conj().T @ u
        g_b = e
        if g_u_next is not None:
            g_u = g_u + g_u_next
            g_v = g_v + g_v_next
            g_b = g_b + g_b_next

        # R = D - B = E + U V^H
        q_u = irls.gram_inverse(v, w_c).astype(work.dtype)
        g_p = e.conj().T @ g_u + v @ (u.conj().T @ g_u)
        g_m_u = -q_u @ (v.conj().T @ g_p) @ q_u
        g_v = g_v + g_p @ q_u + v @ (g_m_u + g_m_u.conj().T)
        g_w = 2.0 * np.real(np.diag(g_m_u))

        q_v = irls.gram_inverse(u_in, w_c).astype(work.dtype)
        g_p2 = e @ g_v + u @ (v.conj().T @ g_v)
        g_m_v = -q_v @ (u_in.conj().T @ g_p2) @ q_v
        g_u_in = g_p2 @ q_v + u_in @ (g_m_v + g_m_v.conj().T)
        g_w = g_w + 2.0 * np.real(np.diag(g_m_v))

        g_b_tot = g_b - (g_u @ q_u) @ v.conj().T - u_in @ (q_v @ g_v.conj().T)
        g_r0 = g_b_tot * shrink
        tmp_s = np.real(np.conj(g_r0) * b) / s
        g_lam = -4.0 * float(np.sum(tmp_s))
        g_b_in = (tmp_s / s / s * (2.0 * lam)) * b_in
        g_u_in = g_u_in - g_r0 @ v_in
        g_v_in = -(g_r0.conj().T @ u_in)

        g_theta[k, 0] = g_lam
        g_theta[k, 1:] = g_w
        g_u_next, g_v_next, g_b_next = g_u_in, g_v_in, g_b_in

    return c * loss_norm * (scale * scale), g_theta * (-c * (scale * scale)) * expit(net.theta)


def perturbed(net, seed):
    theta = net.theta + np.random.default_rng(seed).normal(0.0, 0.5, net.theta.shape)
    return dataclasses.replace(net, theta=theta)


def adjoint_cases():
    cases = []
    for seed in (13, 14):
        net, d_mat = tiny_net_and_data(seed=seed)
        cases.append(pytest.param(net, d_mat, None, id=f"tiny-seed{seed}"))
    d_mat = lowrank_sparse(25, 400, 60)
    cfg = irls.IrlsConfig(d=4, lambda_c=0.05, lambda_b=2.0)
    net = unfolded.init_network(d_mat, k=6, d=4, lambda_b_init=2.0, cfg=cfg)
    cases.append(pytest.param(net, d_mat, None, id="400x60"))
    cases.append(pytest.param(perturbed(net, 1), d_mat, None, id="perturbed"))
    _, _, u0, v0 = irls.prepare_input(d_mat, 4)
    q, _ = np.linalg.qr(crandn(np.random.default_rng(26), (4, 4)))
    cases.append(pytest.param(net, d_mat, (u0 @ q, v0 @ q), id="init-state"))
    k1 = unfolded.init_network(d_mat, k=1, d=4, lambda_b_init=2.0, cfg=cfg)
    cases.append(pytest.param(perturbed(k1, 2), d_mat, None, id="one-layer"))
    # the adjoint keeps the blood scale and input factors of layers k % t == 0,
    # t = ceil(sqrt(K)), and of the last segment, and rebuilds the rest: K=10 (t=4)
    # rebuilds layers 1-3 and 5-7 and keeps 8 and 9; K=13 (t=4) rebuilds three segments
    # and its last layer, 12, is a checkpoint; K=16 (t=4) has only full segments, its
    # last one (12-15) kept; K=17 (t=5) rebuilds three segments of four and keeps 15 and 16
    deep = {k: unfolded.init_network(d_mat, k=k, d=4, lambda_b_init=2.0, cfg=cfg)
            for k in (10, 13, 16)}
    for k, net_k in deep.items():
        cases.append(pytest.param(net_k, d_mat, None, id=f"k{k}"))
    cases.append(pytest.param(deep[10], d_mat.astype(np.complex64), None, id="k10-complex64"))
    deeper = perturbed(unfolded.init_network(d_mat, k=17, d=4, lambda_b_init=2.0, cfg=cfg), 4)
    cases.append(pytest.param(deeper, d_mat, None, id="k17-perturbed"))
    cases.append(pytest.param(deeper, d_mat.astype(np.complex64), None, id="k17-complex64"))
    zeros = np.zeros((30, 12), dtype=complex)
    cfg = irls.IrlsConfig(d=2, lambda_c=0.05, lambda_b=1.0)
    cases.append(pytest.param(unfolded.init_network(zeros, k=3, d=2, lambda_b_init=1.0, cfg=cfg),
                              zeros, None, id="zero-input"))
    cfg = irls.IrlsConfig(d=3, lambda_c=0.05, lambda_b=3.0)
    net = perturbed(unfolded.init_network(d_mat, k=5, d=3, lambda_b_init=3.0, cfg=cfg), 3)
    cases.append(pytest.param(net, np.asfortranarray(d_mat), None, id="fortran-order"))
    cases.append(pytest.param(net, np.ascontiguousarray(d_mat), None, id="c-order"))
    return cases


class TestAdjointReference:
    @pytest.mark.parametrize("net, d_mat, init_state", adjoint_cases())
    def test_matches_stored_blood_adjoint(self, net, d_mat, init_state):
        want_loss, want_grad = reference_analytic_loss_grad(net, d_mat, init_state)
        got_loss, got_grad = unfolded._analytic_loss_grad(net, d_mat, init_state)
        assert np.array_equal(got_loss, want_loss)
        assert np.array_equal(got_grad, want_grad)

    @pytest.mark.parametrize("dtype, k", [
        pytest.param(np.complex64, 15, id="complex64"),
        pytest.param(np.complex128, 15, id="complex128"),
        pytest.param(np.complex64, 40, id="complex64-k40"),
        pytest.param(np.complex128, 40, id="complex128-k40"),
    ])
    def test_peak_memory_is_bounded_by_the_input(self, dtype, k):
        # k complex blood matrices alone would be k times the input. The
        # adjoint holds the work matrix, four complex work matrices (B among
        # them) and two real ones: 6x the input. It keeps the real blood
        # scale (half the input each) and the factors of about 2 sqrt(k)
        # layers, every ceil(sqrt(k))-th and the last segment; layer 0's
        # blood scale is one value. All take the input's precision, so complex64
        # input allocates no double-size copy. Keeping every layer's factors
        # would exceed these bounds
        d_mat = np.asfortranarray(lowrank_sparse(27, 2000, 100, rank=6)).astype(dtype)
        cfg = irls.IrlsConfig(d=10, lambda_c=0.01, lambda_b=6.0)
        net = unfolded.init_network(d_mat, k=k, d=10, lambda_b_init=6.0, cfg=cfg)
        tracemalloc.start()
        try:
            unfolded._analytic_loss_grad(net, d_mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = {15: 10.5, 40: 13.5}[k]
        assert peak <= bound * d_mat.nbytes, f"peak {peak / d_mat.nbytes:.2f}x the input"

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_infer_peak_memory_is_bounded_by_the_input(self, dtype):
        # infer holds the work matrix and the steps' two complex buffers and
        # one real one (half the input): 3.5x the input, and the blood is
        # scaled in place. Measured: 4.11x in complex64, 3.87x in complex128.
        # A fresh full-size array per layer pass would exceed the bound
        d_mat = np.asfortranarray(lowrank_sparse(27, 2000, 100, rank=6)).astype(dtype)
        cfg = irls.IrlsConfig(d=10, lambda_c=0.01, lambda_b=6.0)
        net = unfolded.init_network(d_mat, k=15, d=10, lambda_b_init=6.0, cfg=cfg)
        tracemalloc.start()
        try:
            unfolded.infer(net, d_mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * d_mat.nbytes, f"peak {peak / d_mat.nbytes:.2f}x the input"

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_layer_residuals_peak_memory_is_bounded_by_the_input(self, dtype):
        # the steps' buffers as in infer, and each layer's misfit in one full
        # temporary freed before the next layer runs: 4.5x the input.
        # Measured: 4.71x in both precisions. A misfit buffer held across the
        # layers measured 5.22x in complex64
        d_mat = np.asfortranarray(lowrank_sparse(27, 2000, 100, rank=6)).astype(dtype)
        cfg = irls.IrlsConfig(d=10, lambda_c=0.01, lambda_b=6.0)
        net = unfolded.init_network(d_mat, k=15, d=10, lambda_b_init=6.0, cfg=cfg)
        tracemalloc.start()
        try:
            unfolded.layer_residuals(net, d_mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * d_mat.nbytes, f"peak {peak / d_mat.nbytes:.2f}x the input"

    def test_complex64_tracks_complex128(self, desk_ensemble):
        """On a dataset-file ensemble the single-precision adjoint gives the
        double-precision gradient's signs and, to float32 size, its values."""
        wide = desk_ensemble.astype(np.complex128)
        cfg = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02)
        net = unfolded.init_network(wide, k=15, d=10, lambda_b_init=0.02, cfg=cfg)
        got_loss, got_grad = unfolded._analytic_loss_grad(net, desk_ensemble)
        want_loss, want_grad = unfolded._analytic_loss_grad(net, wide)
        top = np.max(np.abs(want_grad))
        assert np.max(np.abs(got_grad - want_grad)) <= 1e-4 * top
        clear = np.abs(want_grad) > 1e-3 * top
        assert np.array_equal(np.sign(got_grad[clear]), np.sign(want_grad[clear]))
        assert got_loss == pytest.approx(want_loss, rel=1e-6)
        np.testing.assert_allclose(unfolded.layer_residuals(net, desk_ensemble),
                                   unfolded.layer_residuals(net, wide), rtol=1e-6)


class TestTrain:
    def test_zero_learning_rate_is_inert(self):
        net, d_mat = tiny_net_and_data(seed=16, ns=20, nt=40)
        cfg = unfolded.TrainConfig(learning_rate=0.0, batch_frames=10, max_epochs=4,
                                   patience=10, seed=1, grad_mode="analytic")
        theta_before = net.theta.copy()
        out, hist = unfolded.train(net, d_mat, None, cfg)
        assert np.array_equal(out.theta, theta_before)
        assert len(set(np.round(hist.train_loss, 15))) == 1

    def test_training_reduces_validation_loss(self):
        d_mat = lowrank_sparse(17, 60, 300, rank=2, support=0.05, boost=6.0)
        cfg_net = irls.IrlsConfig(d=3, lambda_c=0.01, lambda_b=20.0)
        net = unfolded.init_network(d_mat, k=3, d=3, lambda_b_init=20.0, cfg=cfg_net)
        cfg = unfolded.TrainConfig(learning_rate=0.3, batch_frames=40, max_epochs=30,
                                   patience=8, seed=2, grad_mode="analytic")
        out, hist = unfolded.train(net, d_mat, None, cfg)
        assert hist.val_loss[hist.best_epoch] <= 0.1 * hist.val_loss[0]

    def test_large_batch_size_accepted(self):
        d_mat = lowrank_sparse(18, 30, 2000)
        cfg_net = irls.IrlsConfig(d=3, lambda_c=0.01, lambda_b=5.0)
        net = unfolded.init_network(d_mat, k=2, d=3, lambda_b_init=5.0, cfg=cfg_net)
        cfg = unfolded.TrainConfig(learning_rate=0.01, batch_frames=800, max_epochs=1,
                                   patience=2, seed=3, grad_mode="analytic")
        _, hist = unfolded.train(net, d_mat, None, cfg)
        assert len(hist.train_loss) == 1

    def test_deterministic_trajectory(self):
        d_mat = lowrank_sparse(19, 24, 120)
        cfg_net = irls.IrlsConfig(d=2, lambda_c=0.02, lambda_b=3.0)
        runs = []
        for _ in range(2):
            net = unfolded.init_network(d_mat, k=2, d=2, lambda_b_init=3.0, cfg=cfg_net)
            cfg = unfolded.TrainConfig(learning_rate=0.02, batch_frames=40, max_epochs=6,
                                       patience=6, seed=7, grad_mode="analytic")
            out, hist = unfolded.train(net, d_mat, None, cfg)
            runs.append((out.theta, np.asarray(hist.train_loss)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loss_aborts_with_history(self):
        net, d_mat = tiny_net_and_data(seed=20, ns=16, nt=40)
        net.theta[0, 0] = np.nan
        cfg = unfolded.TrainConfig(learning_rate=0.01, batch_frames=20, max_epochs=3,
                                   patience=3, seed=0, grad_mode="analytic")
        with pytest.raises(RuntimeError) as excinfo:
            unfolded.train(net, d_mat, None, cfg)
        assert hasattr(excinfo.value, "history")

    @pytest.mark.parametrize("single", [True, False])
    def test_losses_are_the_forward_loss(self, single):
        net, d_mat = tiny_net_and_data(seed=24, ns=16, nt=40)
        # the adjoint sums its misfits on data scaled to peak 1 and
        # layer_residuals in input units; in complex64 the two sums round
        # apart at float32 size, in complex128 at float64 size
        rel = 1e-12
        if single:
            d_mat = d_mat.astype(np.complex64)
            rel = 10 * np.finfo(np.float32).eps
        # one 32-frame batch and 8 validation frames; a zero rate leaves theta fixed
        cfg = unfolded.TrainConfig(learning_rate=0.0, batch_frames=32, max_epochs=1,
                                   patience=1)
        _, hist = unfolded.train(net, d_mat, None, cfg)
        val, batch = d_mat[:, 32:], d_mat[:, :32]
        assert hist.val_loss[0] == np.mean(np.square(unfolded.layer_residuals(net, val)))
        assert hist.train_loss[0] == unfolded._analytic_loss_grad(net, batch)[0]
        assert hist.train_loss[0] == pytest.approx(
            np.mean(np.square(unfolded.layer_residuals(net, batch))), rel=rel)

    @pytest.mark.parametrize("shape", [(120,), (10, 12, 1)])
    def test_non_matrix_data_rejected(self, shape):
        net, d_mat = tiny_net_and_data(seed=21, ns=10, nt=12)
        cfg = unfolded.TrainConfig(batch_frames=4, max_epochs=1, patience=1)
        with pytest.raises(ValueError, match="2-d"):
            unfolded.train(net, d_mat.reshape(shape), None, cfg)

    def test_separate_validation_data_rejected(self):
        net, d_mat = tiny_net_and_data(seed=21, ns=10, nt=12)
        cfg = unfolded.TrainConfig(batch_frames=4, max_epochs=1, patience=1)
        with pytest.raises(ValueError, match="val_data must be None"):
            unfolded.train(net, d_mat, d_mat, cfg)

    def test_batch_larger_than_data_rejected(self):
        net, d_mat = tiny_net_and_data(seed=21, ns=10, nt=12)
        cfg = unfolded.TrainConfig(batch_frames=500, max_epochs=1, patience=1, seed=0)
        with pytest.raises(ValueError):
            unfolded.train(net, d_mat, None, cfg)


class TestInfer:
    def test_reproduces_forward_outputs(self):
        d_mat = lowrank_sparse(22, 28, 60)
        cfg_net = irls.IrlsConfig(d=3, lambda_c=0.02, lambda_b=2.0)
        net = unfolded.init_network(d_mat, k=3, d=3, lambda_b_init=2.0, cfg=cfg_net)
        dec = unfolded.infer(net, d_mat)
        # the last layer in work units, which infer scales back
        work, scale, u0, v0 = irls.prepare_input(d_mat, 3)
        *_, (u, v, b, _, _) = irls.steps(work, u0, v0, net.penalties(), net.epsilon)
        assert np.array_equal(dec.basis_u, u)
        assert np.array_equal(dec.coeffs_v, v * scale)
        assert np.array_equal(dec.blood_b, b * scale)
        misfit = float(np.linalg.norm(work - u @ v.conj().T - b)) * scale
        assert misfit == unfolded.layer_residuals(net, d_mat)[-1]

    def test_zero_input(self):
        cfg_net = irls.IrlsConfig(d=2, lambda_c=0.01, lambda_b=1.0)
        zeros = np.zeros((12, 8), dtype=complex)
        net = unfolded.init_network(zeros, k=2, d=2, lambda_b_init=1.0, cfg=cfg_net)
        dec = unfolded.infer(net, zeros)
        assert np.all(dec.blood_b == 0)
        assert unfolded.layer_residuals(net, zeros) == [0.0, 0.0]

    def test_row_count_mismatch_rejected(self):
        d_mat = lowrank_sparse(23, 20, 15)
        cfg_net = irls.IrlsConfig(d=2, lambda_c=0.01, lambda_b=1.0)
        net = unfolded.init_network(d_mat, k=2, d=2, lambda_b_init=1.0, cfg=cfg_net)
        # refused for its rows ahead of the start's QR, which finds ones rank deficient
        for d_new in (lowrank_sparse(24, 30, 15), np.ones((30, 15), dtype=complex)):
            with pytest.raises(ValueError, match="rows"):
                unfolded.infer(net, d_new)


class TestSharedNormalization:
    """Solver and network divide by the same peak, so power-of-two scaling is exact."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-30, 30),
           ns=st.integers(2, 40), nt=st.integers(2, 20))
    def test_power_of_two_scaling(self, seed, j, ns, nt):
        r = np.random.default_rng(seed)
        d = int(r.integers(1, min(ns, nt) + 1))
        d_mat, c = crandn(r, (ns, nt)), 2.0 ** j
        cfg = irls.IrlsConfig(d=d, lambda_c=0.05, lambda_b=0.1, max_iter=20)
        dec, _ = irls.run_irls(d_mat, cfg)
        dec_c, _ = irls.run_irls(c * d_mat, cfg)
        assert np.array_equal(dec_c.blood_b, c * dec.blood_b)
        assert np.array_equal(dec_c.basis_u, dec.basis_u)
        net = unfolded.init_network(d_mat, k=2, d=d, lambda_b_init=0.1, cfg=cfg)
        net_c = unfolded.init_network(c * d_mat, k=2, d=d, lambda_b_init=0.1, cfg=cfg)
        assert np.array_equal(net_c.theta, net.theta)
        assert np.array_equal(unfolded.infer(net, c * d_mat).blood_b,
                              c * unfolded.infer(net, d_mat).blood_b)

    @settings(max_examples=20, deadline=None)
    @given(ns=st.integers(1, 30), nt=st.integers(1, 12))
    def test_zero_input_gives_zero_blood(self, ns, nt):
        cfg = irls.IrlsConfig(d=min(ns, nt), lambda_c=0.05, lambda_b=0.1)
        dec, _ = irls.run_irls(np.zeros((ns, nt), dtype=complex), cfg)
        assert np.all(dec.blood_b == 0)


class TestWorkLayout:
    """The network and its adjoint give the same bytes for every input layout."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_outputs_do_not_depend_on_the_input_layout(self, dtype):
        d_mat = lowrank_sparse(29, 300, 40).astype(dtype)
        cfg = irls.IrlsConfig(d=4, lambda_c=0.05, lambda_b=2.0)
        net = perturbed(unfolded.init_network(d_mat, k=5, d=4, lambda_b_init=2.0, cfg=cfg), 4)

        def outputs(x):
            dec = unfolded.infer(net, x)
            loss, grad = unfolded._analytic_loss_grad(net, x)
            return [dec.basis_u, dec.coeffs_v, dec.blood_b,
                    np.array(unfolded.layer_residuals(net, x)), np.array(loss), grad]

        runs = {name: outputs(x) for name, x in layouts(d_mat).items()}
        want = runs.pop("C")
        assert want[2].dtype == dtype
        for name, got in runs.items():
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], name
