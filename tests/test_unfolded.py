import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import irls, unfolded


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
                          epsilon=epsilon, max_iter=k, tol=1e-300, normalize=False)
    dec, trace = irls.run_irls(d_mat, cfg)
    layers = [unfolded.LayerParams.from_values(lambda_b, 2.0 * lambda_c * w)
              for w in trace.w_c_history]
    net = unfolded.UnfoldedNetwork(layers=layers, d=d, epsilon=epsilon, normalize=False)
    return net, dec


class TestPositivityMap:
    def test_round_trip(self):
        for val in (20.0, 10.0, 6.0, 0.5, 1e-6):
            theta = unfolded.inv_softplus(val)
            assert unfolded.softplus(theta) == pytest.approx(val, rel=1e-12)

    def test_zero_target_is_effectively_zero(self):
        lam = unfolded.softplus(unfolded.inv_softplus(0.0))
        assert 1.0 + 2.0 * lam * 1e4 == 1.0

    def test_always_positive(self):
        theta = np.linspace(-60, 60, 25)
        assert np.all(unfolded.softplus(theta) > 0)


class TestInitNetwork:
    def test_simulation_scale_accepted(self):
        r = np.random.default_rng(0)
        d_mat = crandn(r, (64, 32))
        cfg = irls.IrlsConfig(d=10, lambda_c=0.01, lambda_b=6.0)
        net = unfolded.init_network(d_mat, k=10, d=10, lambda_b_init=6.0, cfg=cfg)
        assert len(net.layers) == 10
        for layer in net.layers:
            assert layer.lambda_b == pytest.approx(6.0, rel=1e-12)
            assert np.all(layer.w_c > 0)

    def test_zero_lambda_first_layer_returns_residual(self):
        r = np.random.default_rng(1)
        d_mat = crandn(r, (20, 10))
        cfg = irls.IrlsConfig(d=3, lambda_c=0.01, lambda_b=0.0, normalize=False)
        net = unfolded.init_network(d_mat, k=1, d=3, lambda_b_init=0.0, cfg=cfg)
        u0, v0 = irls._init_state(d_mat, 3)
        state = unfolded.layer_forward((u0, v0, np.zeros_like(d_mat)), net.layers[0], d_mat,
                                       epsilon=net.epsilon)
        assert np.array_equal(state[2], d_mat - u0 @ v0.conj().T)

    def test_layer_weights_follow_init_factors(self):
        r = np.random.default_rng(2)
        d_mat = crandn(r, (24, 12))
        cfg = irls.IrlsConfig(d=4, lambda_c=0.05, lambda_b=1.0, normalize=False)
        net = unfolded.init_network(d_mat, k=3, d=4, lambda_b_init=1.0, cfg=cfg)
        u0, v0 = irls._init_state(d_mat, 4)
        want = 2.0 * 0.05 * irls.lowrank_weights(u0, v0, cfg.epsilon, cfg.rho)
        for layer in net.layers:
            assert np.allclose(layer.w_c, want, rtol=1e-9)


class TestLayerForward:
    def test_matches_one_baseline_iteration(self):
        d_mat = lowrank_sparse(3, 30, 16)
        net, _ = frozen_net_from_irls(d_mat, d=4, k=1, lambda_c=0.02, lambda_b=0.05)
        u0, v0 = irls._init_state(d_mat, 4)
        b0 = np.zeros_like(d_mat)
        u1, v1, b1 = unfolded.layer_forward((u0, v0, b0), net.layers[0], d_mat, epsilon=1e-8)

        w_b = irls.sparse_weights(b0, 1e-8)
        b_ref = irls.update_blood(d_mat, u0, v0, w_b, 0.05)
        w_c = irls.lowrank_weights(u0, v0, 1e-8, 1.0)
        v_ref = irls.update_coeffs(d_mat, b_ref, u0, w_c, 0.02)
        u_ref = irls.update_basis(d_mat, b_ref, v_ref, w_c, 0.02)
        assert np.linalg.norm(b1 - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        assert np.linalg.norm(v1 - v_ref) <= 1e-10 * np.linalg.norm(v_ref)
        assert np.linalg.norm(u1 - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    def test_exact_factor_state_is_fixed_point(self):
        r = np.random.default_rng(4)
        u = crandn(r, (12, 2))
        v = crandn(r, (8, 2))
        d_mat = u @ v.conj().T
        params = unfolded.LayerParams.from_values(0.5, np.full(2, 1e-6))
        u1, v1, b1 = unfolded.layer_forward((u, v, np.zeros_like(d_mat)), params, d_mat)
        assert np.allclose(b1, 0, atol=1e-14)
        assert np.linalg.norm(u1 @ v1.conj().T - d_mat) <= 1e-6 * np.linalg.norm(d_mat)

    def test_huge_lambda_suppresses_blood(self):
        r = np.random.default_rng(5)
        d_mat = crandn(r, (10, 6))
        u0, v0 = irls._init_state(d_mat, 2)
        params = unfolded.LayerParams.from_values(1e12, np.ones(2))
        _, _, b1 = unfolded.layer_forward((u0, v0, np.zeros_like(d_mat)), params, d_mat)
        assert np.linalg.norm(b1) <= 1e-6 * np.linalg.norm(d_mat - u0 @ v0.conj().T)


class TestNetworkForward:
    def test_single_layer_network(self):
        d_mat = lowrank_sparse(6, 20, 10)
        net, _ = frozen_net_from_irls(d_mat, d=3, k=1, lambda_c=0.01, lambda_b=0.02)
        trace = unfolded.network_forward(net, d_mat)
        u0, v0 = irls._init_state(d_mat, 3)
        u1, v1, b1 = unfolded.layer_forward((u0, v0, np.zeros_like(d_mat)), net.layers[0],
                                            d_mat, epsilon=net.epsilon)
        assert np.allclose(trace.blood[0], b1, rtol=1e-12, atol=0)
        assert len(trace.blood) == 1

    def test_frozen_equivalence_multi_layer(self):
        sizes = [(64, 32, 5, 5), (40, 20, 3, 4), (16, 12, 2, 2)]
        for seed, (ns, nt, d, k) in enumerate(sizes, start=10):
            d_mat = lowrank_sparse(seed, ns, nt)
            net, dec = frozen_net_from_irls(d_mat, d=d, k=k, lambda_c=0.03, lambda_b=0.01)
            trace = unfolded.network_forward(net, d_mat)
            rel = np.linalg.norm(trace.blood[-1] - dec.blood_b) / np.linalg.norm(dec.blood_b)
            assert rel <= 1e-10

    def test_residuals_finite(self):
        d_mat = lowrank_sparse(7, 24, 14)
        cfg = irls.IrlsConfig(d=3, lambda_c=0.01, lambda_b=1.0)
        net = unfolded.init_network(d_mat, k=4, d=3, lambda_b_init=1.0, cfg=cfg)
        trace = unfolded.network_forward(net, d_mat)
        assert len(trace.residual) == 4
        assert np.all(np.isfinite(trace.residual))

    def test_scalar_weight_forward_is_rotation_invariant(self):
        d_mat = lowrank_sparse(8, 18, 12)
        layers = [unfolded.LayerParams.from_values(0.3, np.full(3, 0.7)) for _ in range(2)]
        net = unfolded.UnfoldedNetwork(layers=layers, d=3, epsilon=1e-8, normalize=False)
        u0, v0 = irls._init_state(d_mat, 3)
        r = np.random.default_rng(9)
        q, _ = np.linalg.qr(crandn(r, (3, 3)))
        t1 = unfolded.network_forward(net, d_mat, init_state=(u0, v0))
        t2 = unfolded.network_forward(net, d_mat, init_state=(u0 @ q, v0 @ q))
        assert np.allclose(t1.blood[-1], t2.blood[-1], rtol=1e-9, atol=1e-12)
        assert unfolded.loss(t1, d_mat) == pytest.approx(unfolded.loss(t2, d_mat), rel=1e-9)


class TestLoss:
    def test_exact_decomposition_zero(self):
        r = np.random.default_rng(11)
        u = crandn(r, (10, 2))
        v = crandn(r, (6, 2))
        b = crandn(r, (10, 6), 0.1)
        d_mat = u @ v.conj().T + b
        trace = unfolded.ForwardTrace(basis=[u], coeffs=[v], blood=[b], residual=[0.0])
        assert unfolded.loss(trace, d_mat) == pytest.approx(0.0, abs=1e-25)

    def test_scalar_case(self):
        d_mat = np.array([[1.0 + 0j]])
        trace = unfolded.ForwardTrace(
            basis=[np.zeros((1, 1), dtype=complex)],
            coeffs=[np.zeros((1, 1), dtype=complex)],
            blood=[np.zeros((1, 1), dtype=complex)],
            residual=[1.0])
        assert unfolded.loss(trace, d_mat) == pytest.approx(1.0)

    def test_matches_recompute(self):
        d_mat = lowrank_sparse(12, 22, 11)
        cfg = irls.IrlsConfig(d=3, lambda_c=0.02, lambda_b=2.0)
        net = unfolded.init_network(d_mat, k=3, d=3, lambda_b_init=2.0, cfg=cfg)
        trace = unfolded.network_forward(net, d_mat)
        ref = np.mean([np.linalg.norm(d_mat - b - u @ v.conj().T) ** 2
                       for u, v, b in zip(trace.basis, trace.coeffs, trace.blood)])
        assert unfolded.loss(trace, d_mat) == pytest.approx(ref, rel=1e-12)


def tiny_net_and_data(seed=13, ns=12, nt=8, d=2, k=2, lambda_b=1.5):
    d_mat = lowrank_sparse(seed, ns, nt)
    cfg = irls.IrlsConfig(d=d, lambda_c=0.05, lambda_b=lambda_b)
    net = unfolded.init_network(d_mat, k=k, d=d, lambda_b_init=lambda_b, cfg=cfg)
    return net, d_mat


class TestParameterGradient:
    def test_analytic_matches_finite_difference(self):
        net, d_mat = tiny_net_and_data()
        cfg_fd = unfolded.TrainConfig(grad_mode="finite_difference")
        cfg_an = unfolded.TrainConfig(grad_mode="analytic")
        g_fd = unfolded.parameter_gradient(net, d_mat, cfg_fd)
        g_an = unfolded.parameter_gradient(net, d_mat, cfg_an)
        scale = np.max(np.abs(g_fd))
        assert scale > 0
        rel = np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-6 * scale)
        assert np.max(rel) <= 1e-4

    def test_richardson_step_halving(self):
        net, d_mat = tiny_net_and_data(seed=14)
        cfg = unfolded.TrainConfig(grad_mode="finite_difference")
        g_h = unfolded.parameter_gradient(net, d_mat, cfg, fd_step=1e-4)
        g_h2 = unfolded.parameter_gradient(net, d_mat, cfg, fd_step=5e-5)
        g_ref = unfolded.parameter_gradient(net, d_mat, cfg, fd_step=1e-6)
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
        layers = [unfolded.LayerParams.from_values(0.8, np.ones(d)) for _ in range(2)]
        net = unfolded.UnfoldedNetwork(layers=layers, d=d, epsilon=1e-8, normalize=False)
        u0 = np.zeros((ns, d), dtype=complex)
        u0[0, 0] = 1.0
        u0[1, 1] = 1.0
        # column 2 carries no energy: its weight cannot influence the loss
        v0 = d_mat.conj().T @ u0
        cfg = unfolded.TrainConfig(grad_mode="finite_difference")
        g_fd = unfolded.parameter_gradient(net, d_mat, cfg, init_state=(u0, v0))
        g_an = unfolded.parameter_gradient(
            net, d_mat, unfolded.TrainConfig(grad_mode="analytic"), init_state=(u0, v0))
        flat = [unfolded.param_index(net, layer, "w_c", 2) for layer in range(2)]
        for idx in flat:
            assert abs(g_fd[idx]) <= 1e-6
            assert abs(g_an[idx]) <= 1e-6


class TestTrain:
    def test_zero_learning_rate_is_inert(self):
        net, d_mat = tiny_net_and_data(seed=16, ns=20, nt=40)
        cfg = unfolded.TrainConfig(learning_rate=0.0, batch_frames=10, max_epochs=4,
                                   patience=10, seed=1, grad_mode="analytic")
        theta_before = unfolded.pack_parameters(net)
        out, hist = unfolded.train(net, d_mat, None, cfg)
        assert np.array_equal(unfolded.pack_parameters(out), theta_before)
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
            runs.append((unfolded.pack_parameters(out), np.asarray(hist.train_loss)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loss_aborts_with_history(self):
        net, d_mat = tiny_net_and_data(seed=20, ns=16, nt=40)
        net.layers[0].theta_lambda = np.nan
        cfg = unfolded.TrainConfig(learning_rate=0.01, batch_frames=20, max_epochs=3,
                                   patience=3, seed=0, grad_mode="analytic")
        with pytest.raises(RuntimeError) as excinfo:
            unfolded.train(net, d_mat, None, cfg)
        assert hasattr(excinfo.value, "history")

    def test_losses_are_the_forward_loss(self):
        net, d_mat = tiny_net_and_data(seed=24, ns=16, nt=40)
        cfg = unfolded.TrainConfig(batch_frames=10, max_epochs=1, patience=1)
        _, hist = unfolded.train(net, d_mat, None, cfg)
        val, batch = d_mat[:, 32:], d_mat[:, :10]
        assert hist.val_loss[0] == unfolded.loss(unfolded.network_forward(net, val), val)
        got, _ = unfolded._batch_loss_grad(net, unfolded.pack_parameters(net), batch, cfg)
        assert got == unfolded.loss(unfolded.network_forward(net, batch), batch)

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
        trace = unfolded.network_forward(net, d_mat)
        dec = unfolded.infer(net, d_mat)
        assert np.array_equal(dec.blood_b, trace.blood[-1])
        assert np.array_equal(dec.basis_u, trace.basis[-1])
        assert np.array_equal(dec.coeffs_v, trace.coeffs[-1])

    def test_zero_input(self):
        cfg_net = irls.IrlsConfig(d=2, lambda_c=0.01, lambda_b=1.0)
        zeros = np.zeros((12, 8), dtype=complex)
        net = unfolded.init_network(zeros, k=2, d=2, lambda_b_init=1.0, cfg=cfg_net)
        dec = unfolded.infer(net, zeros)
        assert np.all(dec.blood_b == 0)
        trace = unfolded.network_forward(net, zeros)
        assert unfolded.loss(trace, zeros) == 0.0

    def test_row_count_mismatch_rejected(self):
        d_mat = lowrank_sparse(23, 20, 15)
        cfg_net = irls.IrlsConfig(d=2, lambda_c=0.01, lambda_b=1.0)
        net = unfolded.init_network(d_mat, k=2, d=2, lambda_b_init=1.0, cfg=cfg_net)
        with pytest.raises(ValueError):
            unfolded.infer(net, lowrank_sparse(24, 30, 15))


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
        assert np.array_equal(unfolded.pack_parameters(net_c), unfolded.pack_parameters(net))
        assert np.array_equal(unfolded.infer(net, c * d_mat).blood_b,
                              c * unfolded.infer(net, d_mat).blood_b)

    @settings(max_examples=20, deadline=None)
    @given(ns=st.integers(1, 30), nt=st.integers(1, 12), normalize=st.booleans())
    def test_zero_input_gives_zero_blood(self, ns, nt, normalize):
        cfg = irls.IrlsConfig(d=min(ns, nt), lambda_c=0.05, lambda_b=0.1, normalize=normalize)
        dec, _ = irls.run_irls(np.zeros((ns, nt), dtype=complex), cfg)
        assert np.all(dec.blood_b == 0)
