"""Flow-unit sampling and hydraulic network solve.

Oracles: the complete-unit incidence matrix is asserted literally; pressures
and flows are checked against an independent dense nodal-analysis solve and,
for the complete topology, a series/parallel conductance reduction.
"""

import dataclasses

import numpy as np
import pytest

from microflow.phantom import geometry, hydraulics


REFERENCE_INCIDENCE = np.array([
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0, 0],
    [0, 0, -1, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, 1, 0, 0],
    [0, 0, 0, -1, 0, 0, 1, 0],
    [0, 0, 0, -1, 0, 0, 0, 1],
], dtype=float)


def manual_unit(specs, variant_id=0):
    """Build a FlowUnit from (parent, length_mm, angle_deg, radius_mm) tuples."""
    vessels = []
    for parent, length, angle, radius in specs:
        hierarchy = 1 if parent is None else vessels[parent].hierarchy + 1
        vessels.append(geometry.Vessel(hierarchy=hierarchy, parent=parent,
                                       length=length, angle=angle, radius=radius))
    return geometry.FlowUnit(variant_id=variant_id, vessels=vessels, target_v1=25.0)


def symmetric_complete_unit():
    specs = [(None, 3.5, 0.0, 1.25)]
    r2 = 1.25 / np.sqrt(2.0)
    specs += [(0, 3.5, -30.0, r2), (0, 3.5, 30.0, r2)]
    r3 = r2 / np.sqrt(2.0)
    specs += [(1, 3.5, -60.0, r3), (1, 3.5, 0.0, r3),
              (2, 3.5, 60.0, r3), (2, 3.5, 0.0, r3)]
    return manual_unit(specs, variant_id=8)


def nodal_oracle(unit):
    """Dense conductance-Laplacian solve of the full node-law system at a 1 Pa inlet."""
    edges = geometry.edge_list(unit)
    c = hydraulics.edge_conductance(unit)
    n_nodes = len(unit.vessels) + 1
    lap = np.zeros((n_nodes, n_nodes))
    for (f, t), ce in zip(edges, c):
        lap[f, f] += ce
        lap[t, t] += ce
        lap[f, t] -= ce
        lap[t, f] -= ce
    hanging, interior = hydraulics.node_partition(unit)
    p_known = np.zeros(len(hanging))
    p_known[0] = 1.0
    p = np.zeros(n_nodes)
    p[hanging] = p_known
    if interior:
        rhs = -lap[np.ix_(interior, hanging)] @ p_known
        p[interior] = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
    q = np.array([c[e] * (p[t] - p[f]) for e, (f, t) in enumerate(edges)])
    return p, q


class TestSampling:
    def test_deterministic(self):
        a = geometry.sample_flow_unit(123, 5)
        b = geometry.sample_flow_unit(123, 5)
        assert a.variant_id == b.variant_id
        assert a.target_v1 == b.target_v1
        for va, vb in zip(a.vessels, b.vessels):
            assert (va.length, va.angle, va.radius, va.parent) == \
                   (vb.length, vb.angle, vb.radius, vb.parent)

    def test_variant_edge_counts(self):
        grandchildren = {1: (0, 1), 2: (0, 2), 3: (1, 0), 4: (1, 1),
                         5: (1, 2), 6: (2, 0), 7: (2, 1), 8: (2, 2)}
        for vid, (gl, gr) in grandchildren.items():
            unit = geometry.sample_flow_unit(7, vid)
            assert len(unit.vessels) == 3 + gl + gr
            by_h = [v.hierarchy for v in unit.vessels]
            assert by_h.count(1) == 1 and by_h.count(2) == 2
            assert by_h.count(3) == gl + gr

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            geometry.sample_flow_unit(1, 0)
        with pytest.raises(ValueError):
            geometry.sample_flow_unit(1, 9)

    def test_parameter_ranges_ten_thousand(self):
        n_per = 1250
        lengths, r1, s1 = [], [], []
        for seed in range(n_per):
            for vid in range(1, 9):
                unit = geometry.sample_flow_unit(seed, vid)
                root = unit.vessels[0]
                s1.append(root.angle)
                r1.append(root.radius)
                for v in unit.vessels:
                    lengths.append(v.length)
                    if v.hierarchy == 2:
                        assert 28.0 <= abs(v.angle) <= 32.0
                    if v.hierarchy == 3:
                        mag = abs(v.angle)
                        assert mag <= 3.0 or 57.0 <= mag <= 63.0
                assert 20.0 <= unit.target_v1 <= 30.0
        lengths = np.array(lengths)
        assert lengths.min() >= 3.15 and lengths.max() <= 3.85
        assert min(r1) >= 1.125 and max(r1) <= 1.375
        assert min(s1) >= -10.0 and max(s1) <= 10.0

    def test_angles_fan_out(self):
        unit = geometry.sample_flow_unit(42, 8)
        child_l, child_r = unit.vessels[1], unit.vessels[2]
        assert child_l.angle < 0 < child_r.angle
        for v in unit.vessels[3:]:
            parent = unit.vessels[v.parent]
            if abs(v.angle) > 3.0:
                assert np.sign(v.angle) == np.sign(parent.angle)

    def test_murray_radius_rule(self):
        unit = geometry.sample_flow_unit(11, 8)
        r1 = unit.vessels[0].radius
        for v in unit.vessels[1:]:
            if v.hierarchy == 2:
                assert v.radius == pytest.approx(r1 / np.sqrt(2.0), rel=1e-12)
        unit = geometry.sample_flow_unit(11, 4)
        for v in unit.vessels:
            if v.hierarchy == 3:
                parent = unit.vessels[v.parent]
                assert v.radius == pytest.approx(parent.radius, rel=1e-12)

    def test_segments_connect(self):
        unit = geometry.sample_flow_unit(3, 8)
        segs = geometry.unit_segments(unit)
        assert len(segs) == 7
        for i, v in enumerate(unit.vessels):
            start, end = segs[i]
            assert np.linalg.norm(end - start) == pytest.approx(v.length, rel=1e-12)
            if v.parent is None:
                assert np.allclose(start, 0.0)
            else:
                np.testing.assert_allclose(start, segs[v.parent][1], atol=1e-12)


class TestIncidence:
    def test_complete_unit_matches_reference(self):
        unit = geometry.sample_flow_unit(0, 8)
        a, a_h, a_nh = hydraulics.assemble_incidence(unit)
        np.testing.assert_array_equal(a, REFERENCE_INCIDENCE)
        hanging, interior = hydraulics.node_partition(unit)
        assert hanging == [0, 4, 5, 6, 7]
        assert interior == [1, 2, 3]
        np.testing.assert_array_equal(a_h, REFERENCE_INCIDENCE[:, hanging])
        np.testing.assert_array_equal(a_nh, REFERENCE_INCIDENCE[:, interior])

    def test_single_edge(self):
        unit = manual_unit([(None, 2.0, 0.0, 1.0)])
        a, a_h, a_nh = hydraulics.assemble_incidence(unit)
        np.testing.assert_array_equal(a, [[-1.0, 1.0]])
        assert a_h.shape == (1, 2)
        assert a_nh.shape == (1, 0)
        # no interior node: the empty system solves to no pressures, and the one
        # edge carries the 1 Pa drop from inlet to leaf
        net = hydraulics.build_network(unit)
        assert net.p_nh.shape == (0,) and net.p_nh.dtype == np.float64
        c = hydraulics.edge_conductance(unit)
        np.testing.assert_array_equal(net.q_e, -c)
        np.testing.assert_array_equal(net.v_max, hydraulics.edge_velocities(c, 1.0, [1.0e-3]))

    def test_rows_sum_to_zero(self):
        for vid in range(1, 9):
            a, _, _ = hydraulics.assemble_incidence(geometry.sample_flow_unit(vid, vid))
            np.testing.assert_array_equal(a.sum(axis=1), np.zeros(a.shape[0]))
            for row in a:
                assert sorted(row[row != 0]) == [-1.0, 1.0]


class TestConductance:
    def test_xi_spot_value(self):
        unit = manual_unit([(None, 3.5, 0.0, 1.25)])
        c = hydraulics.edge_conductance(unit)
        xi = 1.0 / c[0]
        assert xi == pytest.approx(14602529.690658635, rel=1e-12)
        assert xi == pytest.approx(1.460e7, rel=1e-3)

    def test_radius_fourth_power(self):
        base = manual_unit([(None, 3.5, 0.0, 1.0)])
        wide = manual_unit([(None, 3.5, 0.0, 2.0)])
        c0 = hydraulics.edge_conductance(base)[0]
        c1 = hydraulics.edge_conductance(wide)[0]
        assert c1 == pytest.approx(16.0 * c0, rel=1e-12)

    def test_length_halves(self):
        short = manual_unit([(None, 1.75, 0.0, 1.25)])
        long = manual_unit([(None, 3.5, 0.0, 1.25)])
        c_short = hydraulics.edge_conductance(short)[0]
        c_long = hydraulics.edge_conductance(long)[0]
        assert c_long == pytest.approx(0.5 * c_short, rel=1e-12)

    def test_nonpositive_geometry_rejected(self):
        bad = manual_unit([(None, 3.5, 0.0, -1.0)])
        with pytest.raises(ValueError):
            hydraulics.edge_conductance(bad)
        with pytest.raises(ValueError):
            hydraulics.edge_conductance(manual_unit([(None, 0.0, 0.0, 1.0)]))


class TestSolve:
    def test_series_middle_pressure(self):
        unit = manual_unit([(None, 2.0, 0.0, 1.0), (0, 2.0, 0.0, 1.0)])
        net = hydraulics.build_network(unit)
        assert net.p_nh[0] == pytest.approx(0.5, rel=1e-12)

    def test_symmetric_complete_split(self):
        net = hydraulics.build_network(symmetric_complete_unit())
        q = np.abs(net.q_e)
        assert q[1] == pytest.approx(q[0] / 2.0, rel=1e-12)
        assert q[2] == pytest.approx(q[0] / 2.0, rel=1e-12)
        for e in range(3, 7):
            assert q[e] == pytest.approx(q[0] / 4.0, rel=1e-12)

    def test_matches_nodal_oracle(self):
        for seed in range(50):
            vid = seed % 8 + 1
            unit = geometry.sample_flow_unit(seed, vid)
            net = hydraulics.build_network(unit)
            p_ref, q_ref = nodal_oracle(unit)
            _, interior = hydraulics.node_partition(unit)
            np.testing.assert_allclose(net.p_nh, p_ref[interior], rtol=1e-10)
            np.testing.assert_allclose(net.q_e, q_ref, rtol=1e-10)

    def test_conservation_random_units(self):
        for seed in range(200):
            unit = geometry.sample_flow_unit(seed, seed % 8 + 1)
            net = hydraulics.build_network(unit)
            residual = net.a_nh.T @ net.q_e
            assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(net.q_e))

    def test_series_parallel_reduction(self):
        def series(a, b):
            return a * b / (a + b)

        for seed in (1, 4, 9):
            unit = geometry.sample_flow_unit(seed, 8)
            c = hydraulics.edge_conductance(unit)
            left = series(c[1], c[3] + c[4])
            right = series(c[2], c[5] + c[6])
            total = series(c[0], left + right)
            net = hydraulics.build_network(unit)
            q_root = total * 1.0
            assert abs(net.q_e[0]) == pytest.approx(q_root, rel=1e-12)
            p_split = 1.0 - q_root / c[0]
            assert abs(net.q_e[1]) == pytest.approx(left * p_split, rel=1e-12)
            assert abs(net.q_e[2]) == pytest.approx(right * p_split, rel=1e-12)

    def test_disconnected_rejected(self):
        unit = symmetric_complete_unit()
        net = hydraulics.build_network(unit)
        with pytest.raises(ValueError, match="disconnect"):
            hydraulics.solve_pressures(net.a_h, np.zeros_like(net.a_nh),
                                       net.c, net.p_h)


class TestVelocities:
    def test_spot_value(self):
        unit = manual_unit([(None, 1.0, 0.0, 1.25)])
        c = hydraulics.edge_conductance(unit)
        v = hydraulics.edge_velocities(c, np.array([1.0]),
                                       np.array([1.25e-3]))
        assert v[0] == pytest.approx(97.65625, rel=1e-12)

    def test_zero_drop_is_zero(self):
        unit = manual_unit([(None, 1.0, 0.0, 1.25)])
        c = hydraulics.edge_conductance(unit)
        v = hydraulics.edge_velocities(c, np.array([0.0]), np.array([1.25e-3]))
        assert v[0] == 0.0

    def test_flow_velocity_consistency(self):
        for seed in range(20):
            unit = geometry.sample_flow_unit(seed, 8)
            net = hydraulics.build_network(unit)
            radii_m = np.array([v.radius for v in unit.vessels]) * 1e-3
            # parabolic profile: Q = pi R^2 * v_max / 2, in SI
            q_from_v = np.pi * radii_m ** 2 * (net.v_max * 1e-3) / 2.0
            np.testing.assert_allclose(q_from_v, np.abs(net.q_e), rtol=1e-12)

    def test_network_velocity_positive_toward_leaves(self):
        net = hydraulics.build_network(symmetric_complete_unit())
        assert np.all(net.v_max > 0)
        assert np.all(net.q_e < 0)  # incidence sign convention


class TestScaleToTarget:
    def test_hits_target(self):
        unit = geometry.sample_flow_unit(5, 8)
        net = hydraulics.build_network(unit)
        scaled = hydraulics.scale_to_target(net, 25.0)
        assert scaled.v_max[0] == pytest.approx(25.0, rel=1e-12)
        fresh = hydraulics.solve_pressures(scaled.a_h, scaled.a_nh, scaled.c,
                                           scaled.p_h)
        np.testing.assert_allclose(fresh, scaled.p_nh, rtol=1e-12)

    def test_identity_when_already_on_target(self):
        net = hydraulics.build_network(geometry.sample_flow_unit(5, 8))
        same = hydraulics.scale_to_target(net, net.v_max[0])
        np.testing.assert_allclose(same.q_e, net.q_e, rtol=1e-15)

    def test_linearity(self):
        net = hydraulics.build_network(geometry.sample_flow_unit(6, 7))
        doubled = hydraulics.scale_to_target(net, 2.0 * net.v_max[0])
        np.testing.assert_allclose(doubled.v_max, 2.0 * net.v_max, rtol=1e-12)
        np.testing.assert_allclose(doubled.q_e, 2.0 * net.q_e, rtol=1e-12)

    def test_zero_baseline_rejected(self):
        net = hydraulics.build_network(geometry.sample_flow_unit(5, 8))
        net = dataclasses.replace(net, v_max=np.zeros_like(net.v_max))
        with pytest.raises(ValueError):
            hydraulics.scale_to_target(net, 25.0)
