import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from oracles import (
    SignPattern,
    avg_reduced_purity,
    bloch_vectors,
    coincident_point_split,
    concurrence_census,
    distance_value_starts,
    match_sign_pattern,
    match_sign_patterns_by_full_scan,
    partial_transpose_simplex_check,
    reduced_state_census_per_sic,
    rounded_census,
    sic_states,
    sign_functions,
    sign_pattern,
    violating_patterns,
)
from sic4.orbits import LABEL_GRID, FiducialOrbit, enumerate_orbit
from sic4.regrouping import sic_family
from sic4.two_qubit import (
    CONCURRENCE_GAP,
    CUBE_GAP_TOL,
    CUBE_GAP_TOL as CUBE_RATIO_TOL,
    GBV_STATE_TOL,
    PAULI,
    REDUCED_POINT_TOL,
    SIGN_MATCH_TOL,
    Gbv,
    _pattern_table,
    _table_vector,
    bell_basis_map,
    concurrence,
    cube_census,
    detect_cube,
    from_gbv,
    gbv,
    match_sign_patterns,
    operator_schmidt_rank,
    partial_transpose,
    partial_transpose_simplex_checks,
    physical_state,
    reduced_purity,
    reduced_state_census,
    sign_census,
    sign_pattern_table,
    violating_signs,
)
from sic4.numerics import rank1_kets as state_ket, value_classes
from sic4.weyl_heisenberg import CONSTANTS, displacement

C_FLAT = math.sqrt(2 / 5)  # 0.632455532
C_HIGH = math.sqrt((2 + 2 * math.sqrt(CONSTANTS.G)) / 5)  # 0.845257683
C_LOW = math.sqrt((2 - 2 * math.sqrt(CONSTANTS.G)) / 5)  # 0.292471279

# sign-function values per label-grid position: h1 by row, (h2, h3) by column
ROW_H1 = (-1, 1, 1, -1)
COL_H23 = ((1, -1), (1, 1), (-1, 1), (-1, -1))


def test_gbv_round_trip():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    g = gbv(rho)
    assert np.max(np.abs(from_gbv(g) - rho)) < 1e-12
    assert isinstance(g, Gbv) and g.flat().shape == (15,)


def test_gbv_rejects_traceless():
    with pytest.raises(ValueError):
        gbv(np.zeros((4, 4), dtype=complex))


def test_pure_state_norm():
    for rho in sic_states(1):
        assert abs(gbv(rho).norm_sq() - 3.0) < 1e-12


def test_fiducial_pattern_frozen():
    # the base fiducial carries the class-1 pattern
    # (a, b, a1, a2, a3, b1, b2, b3) = (-1, -1, -1, -1, 1, -1, 1, -1)
    rho = enumerate_orbit().projectors[0]
    p = match_sign_pattern(gbv(rho), "product")
    assert p is not None
    assert p.class_id == 1
    assert p.signs == (-1, -1, -1, -1, 1, -1, 1, -1)
    h = sign_functions(p)
    assert (h.h1, h.h2, h.h3) == (-1, 1, -1)


def test_all_fiducials_match_patterns():
    for basis in ("product", "bell"):
        class_counts = {1: 0, 2: 0}
        for label in range(1, 17):
            for rho in sic_states(label):
                p = match_sign_pattern(gbv(physical_state(rho, basis)), basis)
                assert p is not None
                class_counts[p.class_id] += 1
                assert p.class_id == (1 if label <= 8 else 2)
        assert class_counts == {1: 128, 2: 128}


def test_sign_function_table():
    for basis in ("product", "bell"):
        for r, row in enumerate(LABEL_GRID):
            for c, label in enumerate(row):
                hs = set()
                for rho in sic_states(label):
                    p = match_sign_pattern(gbv(physical_state(rho, basis)), basis)
                    h = sign_functions(p)
                    hs.add((h.h1, h.h2, h.h3))
                assert hs == {(ROW_H1[r],) + COL_H23[c]}


def test_pattern_constraints():
    for basis in ("product", "bell"):
        for label in (1, 9):
            for rho in sic_states(label)[:4]:
                p = match_sign_pattern(gbv(physical_state(rho, basis)), basis)
                assert p.constraint_value() == 1


def test_concurrence_product_basis():
    for label in range(1, 9):
        for rho in sic_states(label):
            c = concurrence(state_ket(rho))
            assert abs(c - C_FLAT) < 1e-9
    for label in range(9, 17):
        hist = concurrence_census(sic_states(label), "product")
        assert hist == {round(C_HIGH, 9): 8, round(C_LOW, 9): 8}


def test_concurrence_roles_swap_in_bell_basis():
    for label in (2, 6):
        hist = concurrence_census(sic_states(label), "bell")
        assert hist == {round(C_HIGH, 9): 8, round(C_LOW, 9): 8}
    for label in (10, 14):
        hist = concurrence_census(sic_states(label), "bell")
        assert set(hist) == {round(C_FLAT, 9)}


def test_average_reduced_purity():
    orbit = enumerate_orbit()
    sics = orbit.projectors[sic_family()[0][16:]]
    for sic in [sic_states(n) for n in (1, 8, 12)] + [sics[0], sics[15]]:
        for basis in ("product", "bell"):
            assert abs(avg_reduced_purity(sic, basis) - 0.8) < 1e-9
    # tangle = 2 (1 - purity): the average matches the concurrence census
    assert abs(2 * (1 - 0.8) - (C_FLAT**2)) < 1e-12


def test_reduced_state_cube():
    for label in range(1, 9):
        rep = reduced_state_census(bloch_vectors(sic_states(label), "product", 1))
        is_cube, edge_length = detect_cube(rep.bloch_points)
        assert is_cube
        assert abs(edge_length - 2 / math.sqrt(5)) < 1e-9
        assert len(rep.bloch_points) == 8
        assert set(rep.multiplicities) == {2}
    rep = reduced_state_census(bloch_vectors(sic_states(9), "product", 1))
    assert not detect_cube(rep.bloch_points)[0]


def test_reduced_state_multiplicities_first_qubit():
    rep = reduced_state_census(bloch_vectors(sic_states(1), "product", 0))
    assert len(rep.bloch_points) == 8
    assert set(rep.multiplicities) == {2}


def test_bell_basis_map():
    w = bell_basis_map()
    assert np.max(np.abs(w.conj().T @ w - np.eye(4))) < 1e-12
    s = 1 / math.sqrt(2)
    assert np.allclose(w[:, 0], [s, 0, 0, s])  # (|00> + |11>)/sqrt 2
    assert np.allclose(np.abs(w), s * np.array(
        [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]]
    ))


def test_violating_patterns_simplex():
    vps = violating_patterns()
    assert len(vps) == 128
    assert all(p.class_id == 1 and p.constraint_value() == -1 for p in vps)
    orbit = enumerate_orbit()
    for p in vps[:8]:
        assert partial_transpose_simplex_check(p, orbit)


def test_simplex_check_rejects_satisfying_pattern():
    rho = enumerate_orbit().projectors[0]
    p = match_sign_pattern(gbv(rho), "product")
    with pytest.raises(ValueError):
        partial_transpose_simplex_check(p)


def test_partial_transpose_is_second_qubit_transpose():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(partial_transpose(np.kron(a, b)), np.kron(a, b.T))


def test_operator_schmidt_ranks():
    assert operator_schmidt_rank(np.kron(np.eye(2), np.eye(2)) + 0j) == 1
    assert operator_schmidt_rank(displacement(1, 0, 4)) == 2  # shift is non-local
    ranks = {
        operator_schmidt_rank(displacement(p1, p2, 4))
        for p1 in range(4)
        for p2 in range(4)
        if (p1, p2) != (0, 0)
    }
    assert ranks == {1, 2}


def _gbv_by_kron(mat):
    """The 15 kron traces that gbv replaced, as (r, s, C)."""
    r = np.array([np.real(np.trace(np.kron(np.eye(2), sj) @ mat)) for sj in PAULI])
    s = np.array([np.real(np.trace(np.kron(sj, np.eye(2)) @ mat)) for sj in PAULI])
    c = np.array([[np.real(np.trace(np.kron(sj, sk) @ mat)) for sk in PAULI] for sj in PAULI])
    return r, s, c


def test_gbv_matches_kron_traces():
    orbit = enumerate_orbit()
    mats = [physical_state(rho, basis) for basis in ("product", "bell") for rho in orbit.projectors]
    # one perturbed, mixed state
    mats.append(0.9 * orbit.projectors[7] + 0.1 * np.eye(4) / 4 + 1e-3 * np.diag([1, -1, 1, -1]))
    for mat in mats:
        g = gbv(mat)
        r, s, c = _gbv_by_kron(mat)
        assert np.max(np.abs(g.r - r)) <= 1e-14
        assert np.max(np.abs(g.s - s)) <= 1e-14
        assert np.max(np.abs(g.C - c)) <= 1e-14


def _simplex_check_by_loop(p, orbit, tol=1e-9):
    """The per-pattern certificate that partial_transpose_simplex_checks
    replaced."""
    vec = _table_vector("product", 1, p.signs)
    q = from_gbv(Gbv(r=vec[:3], s=vec[3:6], C=vec[6:].reshape(3, 3)))
    if np.max(np.abs(q - q.conj().T)) > tol or abs(np.trace(q) - 1) > tol:
        return False
    if np.linalg.eigvalsh(q)[0] > -1e-6:
        return False
    for p1, p2 in itertools.product(range(4), repeat=2):
        if (p1, p2) != (0, 0):
            dp = displacement(p1, p2, 4)
            if abs(np.trace(q @ dp @ q @ dp.conj().T) - 0.2) > tol:
                return False
    pt = partial_transpose(q)
    flat = orbit.projectors.reshape(256, 16)
    return bool(np.max(np.abs(flat.conj() @ pt.ravel())) >= 1.0 - 1e-8)


def _reduced_census_by_loop(sic, qubit, tol=1e-8):
    """The greedy per-state clustering and the pairwise-distance cube test
    that reduced_state_census replaced: (points, multiplicities, edge)."""
    distinct, counts = [], []
    for rho in sic:
        t = rho.reshape(2, 2, 2, 2)
        red = np.trace(t, axis1=1, axis2=3) if qubit == 0 else np.trace(t, axis1=0, axis2=2)
        p = np.array([np.real(np.trace(sj @ red)) for sj in PAULI])
        for i, q in enumerate(distinct):
            if np.max(np.abs(p - q)) <= tol:
                counts[i] += 1
                break
        else:
            distinct.append(p)
            counts.append(1)
    edge = None
    if len(distinct) == 8:
        dists = sorted(np.linalg.norm(a - b) for a, b in itertools.combinations(distinct, 2))
        values = sorted({round(x, 7) for x in dists})
        if len(values) == 3 and [sum(abs(x - v) < 1e-7 for x in dists) for v in values] == [12, 12, 4]:
            if abs(values[1] - math.sqrt(2) * values[0]) < 1e-6 and abs(values[2] - math.sqrt(3) * values[0]) < 1e-6:
                edge = dists[0]
    return np.array(distinct), tuple(counts), edge


def _patterns_by_loop(flat, basis, tol=1e-7):
    """The per-class table scan that match_sign_patterns replaced."""
    hits = []
    for class_id in (1, 2):
        vectors, signs = _pattern_table(basis, class_id, 1)
        hits += [
            SignPattern(*signs[:, i].tolist(), class_id=class_id, basis=basis)
            for i in np.flatnonzero(np.max(np.abs(vectors - flat), axis=1) <= tol)
        ]
    return hits


def test_stacked_calls_match_per_state_oracles():
    orbit = enumerate_orbit()
    yy = np.kron(PAULI[1], PAULI[1])
    for basis in ("product", "bell"):
        states = physical_state(orbit.projectors, basis)
        g = gbv(states)
        assert g.flat().shape == (256, 15) and g.norm_sq().shape == (256,)
        rows = match_sign_patterns(g, basis)
        conc = concurrence(state_ket(states))
        purity = reduced_purity(g.s)
        for k in range(256):
            r, s, c = _gbv_by_kron(states[k])
            assert np.max(np.abs(g.flat()[k] - np.concatenate([r, s, c.ravel()]))) <= 1e-14
            assert [sign_pattern(basis, rows[k])] == _patterns_by_loop(g.flat()[k], basis)
            ket = np.linalg.eigh(states[k])[1][:, -1]  # the ket state_ket used to return
            assert abs(conc[k] - abs(ket @ yy @ ket)) <= 1e-14
            red = np.trace(states[k].reshape(2, 2, 2, 2), axis1=1, axis2=3)
            assert abs(purity[k] - np.real(np.trace(red @ red))) <= 1e-14


def test_reduced_state_census_matches_greedy_loop():
    for label in range(1, 17):
        for qubit in (0, 1):
            rep = reduced_state_census(bloch_vectors(sic_states(label), "product", qubit))
            points, counts, edge = _reduced_census_by_loop(sic_states(label), qubit)
            assert np.max(np.abs(rep.bloch_points - points)) <= 1e-14
            assert rep.multiplicities == counts
            is_cube, edge_length = detect_cube(rep.bloch_points)
            assert is_cube == (edge is not None)
            if edge is not None:
                assert abs(edge_length - edge) <= 1e-14


def test_batched_simplex_check_matches_per_pattern_loop():
    vps = violating_patterns()
    orbit = enumerate_orbit()
    # an orbit stand-in holding every other projector twice: some partial
    # transposes find no fiducial there
    half = FiducialOrbit(np.concatenate([orbit.projectors[::2]] * 2))
    for orb in (orbit, half):
        ok = partial_transpose_simplex_checks(violating_signs(), orb)
        assert ok.tolist() == [_simplex_check_by_loop(p, orb) for p in vps]
        assert [partial_transpose_simplex_check(p, orb) for p in vps[:4]] == ok[:4].tolist()
    assert partial_transpose_simplex_checks(violating_signs(), orbit).all()
    assert 0 < partial_transpose_simplex_checks(violating_signs(), half).sum() < 128


_SQRT2 = math.sqrt(2.0)


def _table_vector_by_loop(basis, class_id, signs):
    """The per-assignment table row that the (8, N) _table_vector replaced."""
    a, b, a1, a2, a3, b1, b2, b3 = signs
    A = CONSTANTS.A
    Gpm = CONSTANTS.Gpm
    B = CONSTANTS.B
    if basis == "product" and class_id == 1:
        dab = 1.0 if a == b else 0.0
        damb = 1.0 - dab
        r = (b1 * A(b), b2 * A(-b), b3 * B)
        s = (a1 * B, a2 * A(a), a3 * A(-a))
        c = (
            (a1 * b1 * A(-b), a1 * b2 * A(b), a1 * b3 * B),
            (_SQRT2 * a * a2 * b1 * A(a) * dab, _SQRT2 * a * a2 * b2 * A(a) * damb, a2 * b3 * A(-a)),
            (-_SQRT2 * a * a3 * b1 * A(-a) * damb, -_SQRT2 * a * a3 * b2 * A(-a) * dab, a3 * b3 * A(a)),
        )
    elif basis == "product" and class_id == 2:
        em, ep = (1 - b) // 2, (1 + b) // 2
        r = (b1 * A(a), b2 * A(a), b3 * B)
        s = (a1 * B, a2 * A(a), a3 * A(a))
        c = (
            (a1 * b1 * A(-a), a1 * b2 * A(-a), a1 * b3 * B),
            (a**em * a2 * b1 * Gpm(-b), a**ep * a2 * b2 * Gpm(b), a2 * b3 * A(-a)),
            (a**ep * a3 * b1 * Gpm(b), a**em * a3 * b2 * Gpm(-b), a3 * b3 * A(-a)),
        )
    elif basis == "bell" and class_id == 1:
        dab = 1.0 if a == b else 0.0
        damb = 1.0 - dab
        r = (b1 * B, _SQRT2 * b2 * A(a) * dab, _SQRT2 * b3 * A(-a) * damb)
        s = (a1 * B, a2 * A(b), a3 * A(b))
        c = (
            (a1 * b1 * B, _SQRT2 * a1 * b2 * A(-a) * dab, _SQRT2 * a1 * b3 * A(a) * damb),
            (a2 * b1 * A(-b), b * a2 * b2 * A(a), b * a2 * b3 * A(-a)),
            (a3 * b1 * A(-b), a * a3 * b2 * A(a), -a * a3 * b3 * A(-a)),
        )
    elif basis == "bell" and class_id == 2:
        em, ep = (1 - b) // 2, (1 + b) // 2
        r = (b1 * B, b2 * Gpm(-b), b3 * Gpm(b))
        s = (a1 * B, a2 * A(-a), a3 * A(a))
        c = (
            (a1 * b1 * B, -b * a1 * b2 * Gpm(-b), b * a1 * b3 * Gpm(b)),
            (a2 * b1 * A(a), (-a) ** em * a2 * b2 * A(-a), (-a) ** ep * a2 * b3 * A(-a)),
            (a3 * b1 * A(-a), a**em * a3 * b2 * A(a), a**ep * a3 * b3 * A(a)),
        )
    else:
        raise ValueError("basis must be 'product' or 'bell', class_id 1 or 2")
    return np.concatenate([np.array(r), np.array(s), np.array(c).ravel()])


def _pattern_table_by_loop(basis, class_id, constraint):
    """The per-assignment loop that the one-call _pattern_table replaced."""
    vectors, signs = [], []
    for s in itertools.product((1, -1), repeat=8):
        if SignPattern(*s, class_id=class_id, basis=basis).constraint_value() == constraint:
            vectors.append(_table_vector_by_loop(basis, class_id, s))
            signs.append(s)
    return np.stack(vectors), signs


def test_sign_tables_match_scalar_loop():
    for basis, class_id, constraint in [
        ("product", 1, 1), ("product", 2, 1), ("bell", 1, 1), ("bell", 2, 1), ("product", 1, -1)
    ]:
        vectors, signs = _pattern_table(basis, class_id, constraint)
        old, old_signs = _pattern_table_by_loop(basis, class_id, constraint)
        assert np.array_equal(vectors, old) and vectors.tobytes() == old.tobytes()
        assert list(map(tuple, signs.T.tolist())) == old_signs and len(old_signs) == 128
    assert [p.signs for p in violating_patterns()] == _pattern_table_by_loop("product", 1, -1)[1]
    for basis in ("product", "bell"):
        patterns = [
            SignPattern(*s, class_id=class_id, basis=basis)
            for class_id in (1, 2)
            for s in _pattern_table_by_loop(basis, class_id, 1)[1]
        ]
        old = [(p.class_id,) + p.signs + astuple(sign_functions(p)) for p in patterns]
        assert sign_pattern_table(basis)[1].tolist() == [list(row) for row in old]


def _chebyshev_to_table(basis):
    """Distance in the largest coefficient from each fiducial's GBV to
    every table row, with each fiducial's matched row."""
    g = gbv(physical_state(enumerate_orbit().projectors, basis))
    dist = np.max(np.abs(g.flat()[:, None] - sign_pattern_table(basis)[0]), axis=2)
    return dist, match_sign_patterns(g, basis)


def test_sign_match_cut_has_a_margin():
    for basis in ("product", "bell"):
        dist, rows = _chebyshev_to_table(basis)
        matched = dist[np.arange(256), rows]
        dist[np.arange(256), rows] = np.inf
        assert np.all(rows >= 0)
        assert matched.max() <= 1e-15 < SIGN_MATCH_TOL < 0.56 <= dist.min()


def test_screened_sign_match_equals_full_scan():
    orbit = enumerate_orbit()
    rng = np.random.default_rng(8)
    for basis in ("product", "bell"):
        g = gbv(physical_state(orbit.projectors, basis))
        flat = g.flat()
        # unmatched rows: a perturbed fiducial, a mixed state, a NaN
        extra = np.stack([flat[5] + 1e-6 * rng.normal(size=15), 0.5 * flat[9], np.full(15, np.nan)])
        probe = np.concatenate([flat, extra])
        stack = Gbv(r=probe[:, :3], s=probe[:, 3:6], C=probe[:, 6:].reshape(-1, 3, 3))
        rows = match_sign_patterns(stack, basis)
        assert np.array_equal(rows, match_sign_patterns_by_full_scan(stack, basis))
        assert np.all(rows[:256] >= 0) and np.all(rows[256:] == -1)
        # a tolerance reaching a second row: both forms call the table degenerate
        for match in (match_sign_patterns, match_sign_patterns_by_full_scan):
            with pytest.raises(ValueError, match="degenerate"):
                match(g, basis, tol=1.0)


def test_gbv_state_cut_has_a_margin():
    for basis in ("product", "bell"):
        states = physical_state(enumerate_orbit().projectors, basis)
        herm = np.max(np.abs(states - states.conj().swapaxes(-1, -2)))
        trace = np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1))
        assert max(herm, trace) <= 8.9e-16 < GBV_STATE_TOL
    off = states[0] + 2 * GBV_STATE_TOL * np.eye(4) / 4  # trace 1 + 2 GBV_STATE_TOL
    with pytest.raises(ValueError, match="Hermitian trace-1"):
        gbv(off)


def test_reduced_point_cut_has_a_margin():
    for qubit in (0, 1):
        points = bloch_vectors(enumerate_orbit().projectors, "product", qubit).reshape(16, 16, 3)
        dist = np.max(np.abs(points[:, :, None] - points[:, None]), axis=3)
        same = dist <= REDUCED_POINT_TOL
        assert dist[same].max() <= 2.3e-16 < REDUCED_POINT_TOL < 0.39 <= dist[~same].min()


def test_cube_cuts_have_margins():
    reps = reduced_state_census(bloch_vectors(enumerate_orbit().projectors.reshape(16, 16, 4, 4), "product", 1))
    points = np.stack([rep.bloch_points for rep in reps])
    i, j = np.triu_indices(8, 1)
    dists = np.sort(np.linalg.norm(points[:, i] - points[:, j], axis=2), axis=1)
    steps = np.diff(dists, axis=1)
    # inside a distance value the sorted distances step by rounding only;
    # between values by at least 0.069 (the class-2 SICs), an absolute gap
    assert steps[steps <= CUBE_GAP_TOL].max() <= 1.2e-15 < CUBE_GAP_TOL < 0.069 <= steps[steps > CUBE_GAP_TOL].min()
    assert np.all(np.count_nonzero(steps > CUBE_GAP_TOL, axis=1) == [2] * 8 + [6] * 8)
    edge, face, body = dists[:8, [0, 12, 24]].T
    ratio_dev = np.maximum(np.abs(face - math.sqrt(2) * edge), np.abs(body - math.sqrt(3) * edge))
    assert ratio_dev.max() <= 1.4e-15 < CUBE_RATIO_TOL
    ok, edges = zip(*map(detect_cube, points))
    assert list(ok) == [True] * 8 + [False] * 8 and list(edges[:8]) == edge.tolist()


def test_one_class_cube_cut_and_closed_form_simplex_eigenvalue_have_margins():
    # the sorted distances of each SIC's eight Bloch points scaled by 1,
    # sqrt 2 and sqrt 3, for both qubits in both bases: a cube's spread
    # (largest distance from their mean) is rounding, every other set's at
    # least 0.3, also with one orbit state moved by diag(exp(i e (1, -1,
    # 0.5, -0.5))) at e = 1e-9, as in the CLI fault sweep
    i, j = np.triu_indices(8, 1)
    scale = np.sqrt(np.repeat([1, 2, 3], [12, 12, 4]))

    def spreads(projectors):
        stacks = [bloch_vectors(projectors, basis, qubit) for basis in ("product", "bell") for qubit in (0, 1)]
        distinct = np.stack([p[value_classes(p, REDUCED_POINT_TOL).first] for p in np.reshape(stacks, (64, 16, 3))])
        scaled = np.sort(np.linalg.norm(distinct[:, i] - distinct[:, j], axis=2), axis=1) / scale
        return np.array([np.max(np.abs(row - row.mean())) for row in scaled])

    projectors = enumerate_orbit().projectors
    # cubes: the product basis' second qubit in SICs 1-8, the Bell basis' first in SICs 9-16
    cube = np.zeros((4, 16), dtype=bool)
    cube[1, :8] = cube[2, 8:] = True
    spread = spreads(projectors).reshape(4, 16)
    assert spread[cube].max() <= 9e-16 < 0.3 <= spread[~cube].min()
    u = np.diag(np.exp(1e-9j * np.array([1.0, -1.0, 0.5, -0.5])))
    for state in (0, 7, 133, 200):
        moved = projectors.copy()
        moved[state] = u @ moved[state] @ u.conj().T
        spread = spreads(moved).reshape(4, 16)
        assert spread[cube].max() <= 1.04e-9 < CUBE_GAP_TOL / 2 and spread[~cube].min() >= 0.3
    # the 128 simplex operators: least eigenvalue -C/2 = -1/sqrt 10 for the
    # concurrence C = sqrt(2/5), the next one clear of it
    vec = _table_vector("product", 1, violating_signs())
    w = np.linalg.eigvalsh(from_gbv(Gbv(r=vec[:, :3], s=vec[:, 3:6], C=vec[:, 6:].reshape(-1, 3, 3))))
    assert np.max(np.abs(w[:, 0] + 1 / math.sqrt(10))) <= 1e-15 and w[:, 1].min() >= 0.11


def test_stacked_reduced_state_census_equals_per_sic_calls():
    sics = enumerate_orbit().projectors.reshape(16, 16, 4, 4)
    # a stack mixing a SIC with eight points and one whose states coincide
    odd = np.stack([sics[0], np.broadcast_to(sics[0, 0], (16, 4, 4))])
    for basis in ("product", "bell"):
        for qubit in (0, 1):
            for stack in (sics, odd):
                reps = reduced_state_census(bloch_vectors(stack, basis, qubit))
                assert len(reps) == len(stack)
                for states, rep in zip(stack, reps):
                    points, counts, is_cube, edge = reduced_state_census_per_sic(states, qubit, basis)
                    assert np.array_equal(rep.bloch_points, points) and rep.multiplicities == counts
                    assert detect_cube(rep.bloch_points) == (is_cube, edge)
                    one = reduced_state_census(bloch_vectors(states, basis, qubit))
                    assert np.array_equal(one.bloch_points, points) and one.multiplicities == counts
                    assert detect_cube(one.bloch_points) == (is_cube, edge)
    # a list of 32 states is one list, not a stack of two
    rep = reduced_state_census(bloch_vectors(np.concatenate([sics[0], sics[0]]), "product", 1))
    assert rep.multiplicities == (4,) * 8 and detect_cube(rep.bloch_points)[0]


def test_concurrence_classes_equal_rounded_census():
    # value_classes against the 9-decimal census it replaced, SIC by SIC:
    # the same classes and counts, and centers rounding to its keys bit for bit
    for basis in ("product", "bell"):
        conc = concurrence(state_ket(physical_state(enumerate_orbit().projectors, basis))).reshape(16, 16)
        for row in conc:
            split, hist = value_classes(row, CONCURRENCE_GAP), rounded_census(row)
            keys = np.array(list(hist))
            assert split.counts.tolist() == list(hist.values())
            assert np.round(split.centers, 9).tobytes() == keys.tobytes()
            assert np.array_equal(keys[split.classes], np.round(row, 9))


def test_bloch_point_and_cube_classes_equal_the_splits_they_replaced():
    # value_classes against the componentwise coincidence of Bloch points and
    # the sorted-distance steps of the cube test, for both qubits in both
    # bases: the same classes and counts, and the same first members
    i, j = np.triu_indices(8, 1)
    for basis in ("product", "bell"):
        for qubit in (0, 1):
            points = bloch_vectors(enumerate_orbit().projectors, basis, qubit).reshape(16, 16, 3)
            for p in points:
                split, first = value_classes(p, REDUCED_POINT_TOL), coincident_point_split(p, REDUCED_POINT_TOL)
                reps = np.flatnonzero(first == np.arange(16))
                assert np.array_equal(split.first, reps) and np.array_equal(split.classes, np.searchsorted(reps, first))
                assert split.counts.tolist() == np.bincount(first)[reps].tolist()
                dists = np.sort(np.linalg.norm(p[reps][i] - p[reps][j], axis=1))
                split, starts = value_classes(dists, CUBE_GAP_TOL), distance_value_starts(dists, CUBE_GAP_TOL)
                assert np.array_equal(split.first, starts)
                assert np.array_equal(split.classes, np.searchsorted(starts, np.arange(28), side="right") - 1)
                assert split.counts.tolist() == np.diff(np.append(starts, 28)).tolist()


@pytest.mark.parametrize("basis", ["product", "bell"])
def test_sign_census_matches_per_state_patterns(basis):
    # the single-GBV matcher state by state: SICs 1-8 in class 1, 9-16 in
    # class 2, and h1 by row, (h2, h3) by column of the label grid
    g = gbv(physical_state(enumerate_orbit().projectors, basis))
    rows = []
    for k in range(256):
        p = match_sign_pattern(Gbv(g.r[k], g.s[k], g.C[k]), basis)
        label, state = divmod(k, 16)
        h = astuple(sign_functions(p))
        assert p.class_id == (1 if label < 8 else 2) and h == (ROW_H1[label // 4], *COL_H23[label % 4])
        rows.append([label + 1, state, *p.signs, *h])
    assert sign_census(g, basis) == (256, True, True, True, rows)


def test_cube_census_matches_per_sic_censuses():
    g = gbv(enumerate_orbit().projectors)
    per_sic = [[reduced_state_census_per_sic(sic_states(n), q) for q in (0, 1)] for n in range(1, 17)]
    multiplicity = all(len(points) == 8 and set(counts) == {2} for sic in per_sic for points, counts, _, _ in sic)
    cubes = [second[2] for _, second in per_sic]
    edge_dev = max(abs(second[3] - 2 / math.sqrt(5)) for _, second in per_sic[:8])
    assert cube_census(g) == (multiplicity, sum(cubes[:8]), sum(cubes[8:]), edge_dev)
    assert cube_census(g)[:3] == (True, 8, 0)
