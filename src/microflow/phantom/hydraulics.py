"""Poiseuille hydraulics on a branching unit.

The unit's tree becomes a small resistor network: each vessel is an edge
with conductance C = pi R^4 / (8 mu L), mu = BLOOD_VISCOSITY, boundary
(hanging) node pressures are imposed at the inlet (1 Pa) and the leaf ends
(0 Pa), and the interior (non-hanging) pressures follow from flow
conservation. Solved flows obey the incidence sign convention, where an
edge's pressure difference is the head pressure minus the tail pressure;
with the positive inlet pressure the flows therefore come out negative
along the root-to-leaf orientation. Peak velocities are reported as
positive speeds along that orientation.

All solves run in SI units; vessel geometry arrives in mm and velocities
are returned in mm/s.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import geometry

BLOOD_VISCOSITY = 0.004  # Pa s


@dataclass
class FlowNetwork:
    """A solved hydraulic network.

    Parameters
    ----------
    unit : FlowUnit
        Source geometry.
    a_h, a_nh : ndarray
        Hanging and non-hanging column blocks of the incidence matrix; the
        first hanging column is the inlet.
    c : ndarray
        Edge conductances, m^3/(Pa s).
    p_h, p_nh : ndarray
        Boundary and solved interior pressures, Pa.
    dp_e, q_e : ndarray
        Edge pressure differences (Pa) and flows (m^3/s), incidence signs.
    v_max : ndarray
        Peak centerline speed per edge, mm/s, positive toward the leaves.
    """

    unit: geometry.FlowUnit
    a_h: np.ndarray
    a_nh: np.ndarray
    c: np.ndarray
    p_h: np.ndarray
    p_nh: np.ndarray
    dp_e: np.ndarray
    q_e: np.ndarray
    v_max: np.ndarray


def node_partition(unit):
    """Split node indices into (hanging, interior).

    Hanging nodes are the inlet and every vessel end without children;
    interior nodes are the bifurcation points where conservation applies.
    """
    n_vessels = len(unit.vessels)
    has_child = [False] * n_vessels
    for v in unit.vessels:
        if v.parent is not None:
            has_child[v.parent] = True
    hanging = [0] + [i + 1 for i in range(n_vessels) if not has_child[i]]
    interior = [i + 1 for i in range(n_vessels) if has_child[i]]
    return hanging, interior


def assemble_incidence(unit):
    """Incidence matrix of the unit and its column split by node class.

    Returns
    -------
    (a, a_h, a_nh)
        a is (n_edges, n_nodes) with -1 at each edge's tail and +1 at its
        head; a_h and a_nh take the hanging and interior columns.
    """
    edges = geometry.edge_list(unit)
    n_nodes = len(unit.vessels) + 1
    a = np.zeros((len(edges), n_nodes))
    for e, (tail, head) in enumerate(edges):
        a[e, tail] = -1.0
        a[e, head] = 1.0
    hanging, interior = node_partition(unit)
    return a, a[:, hanging], a[:, interior]


def edge_conductance(unit):
    """Diagonal of the conductance matrix, one entry per vessel.

    Parameters
    ----------
    unit : FlowUnit
        Geometry in mm.

    Returns
    -------
    ndarray
        C_e = pi R^4 / (8 mu L) in m^3/(Pa s), mu = BLOOD_VISCOSITY.
    """
    lengths = np.array([v.length for v in unit.vessels]) * 1e-3
    radii = np.array([v.radius for v in unit.vessels]) * 1e-3
    if np.any(lengths <= 0) or np.any(radii <= 0):
        raise ValueError("vessel lengths and radii must be positive")
    return np.pi * radii ** 4 / (8.0 * BLOOD_VISCOSITY * lengths)


def solve_pressures(a_h, a_nh, c, p_h):
    """Interior pressures from conservation at the non-hanging nodes.

    Solves (a_nh^T C a_nh) p_nh = -a_nh^T C a_h p_h, empty without interior nodes.

    Raises
    ------
    ValueError
        If the reduced system is singular (disconnected network).
    """
    weighted = c[:, None] * a_nh
    lhs = a_nh.T @ weighted
    rhs = -weighted.T @ (a_h @ p_h)
    try:
        p_nh = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise ValueError("singular node system: network is disconnected") from None
    if not np.all(np.isfinite(p_nh)):
        raise ValueError("singular node system: network is disconnected")
    return p_nh


def edge_velocities(c, dp_e, radii):
    """Peak parabolic-profile velocity per edge, in mm/s.

    The flow Q = C dp relates to the centerline peak through the parabolic
    profile mean, Q = pi R^2 v_max / 2; the viscosity is already folded
    into the conductance.

    Parameters
    ----------
    c : ndarray
        Edge conductances, m^3/(Pa s).
    dp_e : ndarray
        Edge pressure differences, Pa.
    radii : ndarray
        Edge radii, m.

    Returns
    -------
    ndarray
        Signed v_max in mm/s (sign follows dp_e).
    """
    return 2.0 * c * dp_e / (np.pi * np.asarray(radii) ** 2) * 1e3


def build_network(unit):
    """Assemble and solve the whole unit in one call.

    The inlet gets 1 Pa and every leaf 0 Pa; use scale_to_target afterward
    to impose a physical root velocity.
    """
    _, a_h, a_nh = assemble_incidence(unit)
    c = edge_conductance(unit)
    p_h = np.zeros(a_h.shape[1])
    p_h[0] = 1.0
    p_nh = solve_pressures(a_h, a_nh, c, p_h)
    dp_e = a_h @ p_h + a_nh @ p_nh
    q_e = c * dp_e
    radii = np.array([v.radius for v in unit.vessels]) * 1e-3
    v_max = -edge_velocities(c, dp_e, radii)
    return FlowNetwork(unit=unit, a_h=a_h, a_nh=a_nh, c=c, p_h=p_h, p_nh=p_nh,
                       dp_e=dp_e, q_e=q_e, v_max=v_max)


def scale_to_target(network, v_target):
    """Rescale all boundary pressures so the root's v_max hits v_target.

    Pressures, flows and velocities scale by the same factor (the system
    is linear in p_h); everything else is shared with the input network.
    """
    v1 = network.v_max[0]
    if v1 == 0.0:
        raise ValueError("cannot rescale a network with zero root velocity")
    factor = v_target / v1
    return dataclasses.replace(
        network,
        p_h=network.p_h * factor,
        p_nh=network.p_nh * factor,
        dp_e=network.dp_e * factor,
        q_e=network.q_e * factor,
        v_max=network.v_max * factor,
    )
