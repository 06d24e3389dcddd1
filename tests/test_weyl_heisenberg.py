import math
import warnings

import numpy as np
import pytest

import sic4.weyl_heisenberg as wh
from sic4.weyl_heisenberg import (
    CONSTANTS,
    displacement,
    displacement_table,
    fiducial_ket_d4,
    generate_sic,
    is_fiducial,
    omega,
    shift_clock_products,
    symplectic_form,
    tau,
    verify_sic,
    weyl_commutation_check,
)

from oracles import displacement_table_by_matrix_power


def test_generators_d4():
    x = displacement(1, 0, 4)
    z = displacement(0, 1, 4)
    assert np.allclose(x, np.roll(np.eye(4), 1, axis=0))
    assert np.allclose(z, np.diag([1, 1j, -1, -1j]))
    assert np.allclose(z @ x, omega(4) * (x @ z))


def test_tau_and_phase_convention():
    assert abs(tau(4) + np.exp(1j * np.pi / 4)) < 1e-15
    x = displacement(1, 0, 4)
    z = displacement(0, 1, 4)
    for p1 in range(4):
        for p2 in range(4):
            want = tau(4) ** (p1 * p2) * np.linalg.matrix_power(x, p1) @ np.linalg.matrix_power(z, p2)
            assert np.allclose(displacement(p1, p2, 4), want)


def test_displacement_index_period_2d():
    # shifting one index by d costs (-1)^(other index); the period is 2d
    d = 4
    for p1, p2 in ((1, 0), (0, 1), (3, 2), (1, 1)):
        base = displacement(p1, p2, d)
        assert np.allclose(displacement(p1 + d, p2, d), (-1) ** p2 * base)
        assert np.allclose(displacement(p1, p2 + d, d), (-1) ** p1 * base)
        assert np.allclose(displacement(p1 + 2 * d, p2, d), base)
        assert np.allclose(displacement(p1, p2 + 2 * d, d), base)


def test_weyl_law():
    # D_p D_q = omega^{<p,q>} D_q D_p with the symplectic form p2 q1 - p1 q2
    for d in (2, 3, 4, 5):
        assert weyl_commutation_check(d)
    d = 4
    for p in ((1, 2), (3, 1)):
        for q in ((2, 3), (1, 1)):
            lhs = displacement(*p, d) @ displacement(*q, d)
            rhs = omega(d) ** symplectic_form(p, q) * displacement(*q, d) @ displacement(*p, d)
            assert np.allclose(lhs, rhs)


def test_displacement_composition_unreduced():
    # D_p D_q = tau^{<p,q>} D_{p+q} holds with the raw integer sum index
    d = 4
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = tuple(rng.integers(0, 2 * d, size=2))
        q = tuple(rng.integers(0, 2 * d, size=2))
        lhs = displacement(int(p[0]), int(p[1]), d) @ displacement(int(q[0]), int(q[1]), d)
        rhs = tau(d) ** symplectic_form(p, q) * displacement(int(p[0] + q[0]), int(p[1] + q[1]), d)
        assert np.allclose(lhs, rhs)


def test_constants():
    g = CONSTANTS.G
    assert abs(g - (math.sqrt(5) - 1) / 2) < 1e-15
    assert abs(g * g + g - 1) < 1e-15
    assert abs(CONSTANTS.B - 5**-0.5) < 1e-15
    assert abs(CONSTANTS.A(+1) - math.sqrt(1 + math.sqrt(g)) / math.sqrt(5)) < 1e-15
    assert abs(CONSTANTS.A(-1) - math.sqrt(1 - math.sqrt(g)) / math.sqrt(5)) < 1e-15
    assert abs(CONSTANTS.Gpm(+1) - math.sqrt(1 + g) / math.sqrt(5)) < 1e-15
    assert abs(CONSTANTS.Gpm(-1) - math.sqrt(1 - g) / math.sqrt(5)) < 1e-15


def test_fiducial_ket_entries():
    g = CONSTANTS.G
    e = np.exp(1j * np.pi / 4)
    v = fiducial_ket_d4()
    norm = 2 * math.sqrt(3 + g)
    assert np.allclose(v * norm, [1 + e.conjugate(), e + 1j * g**-1.5, 1 - e.conjugate(), e - 1j * g**-1.5])
    assert abs(np.vdot(v, v) - 1) < 1e-12


def test_fiducial_condition():
    v = fiducial_ket_d4()
    assert is_fiducial(v)
    dev = max(
        abs(abs(np.vdot(v, displacement(p1, p2, 4) @ v)) - 5**-0.5)
        for p1 in range(4)
        for p2 in range(4)
        if (p1, p2) != (0, 0)
    )
    assert dev <= 1e-9


def test_is_fiducial_rejects_basis_state():
    assert not is_fiducial(np.array([1, 0, 0, 0], dtype=complex))


def test_generate_and_verify_sic():
    sic = generate_sic(fiducial_ket_d4(), label="sic-1")
    assert len(sic) == 16
    rep = verify_sic(sic.states, 4)
    assert rep.is_sic
    assert rep.max_fidelity_deviation <= 1e-9
    assert rep.completeness_deviation <= 1e-9
    # state ordering is lexicographic in the displacement index
    v = fiducial_ket_d4()
    w = displacement(1, 2, 4) @ v
    assert np.allclose(sic.states[6], np.outer(w, w.conj()))


def test_generate_sic_rejects_non_fiducial():
    with pytest.raises(ValueError):
        generate_sic(np.array([1, 0, 0, 0], dtype=complex))


def test_displacement_table_consistent():
    tbl = displacement_table(4)
    assert tbl.shape == (4, 4, 4, 4)
    for p1 in range(4):
        for p2 in range(4):
            assert np.allclose(tbl[p1, p2], displacement(p1, p2, 4))


def _verify_sic_by_loop(states, d):
    """The per-state and per-pair loop that verify_sic replaced, as
    (fidelity, state, completeness) deviations."""
    sdev = 0.0
    for rho in states:
        sdev = max(sdev, np.max(np.abs(rho - rho.conj().T)))
        sdev = max(sdev, abs(np.trace(rho) - 1.0))
        sdev = max(sdev, np.max(np.abs(rho @ rho - rho)))
    fdev = 0.0
    for j in range(d * d):
        for k in range(j + 1, d * d):
            fdev = max(fdev, abs(np.trace(states[j] @ states[k]).real - 1.0 / (d + 1)))
    cdev = float(np.max(np.abs(states.sum(axis=0) - d * np.eye(d))))
    return fdev, sdev, cdev


def test_verify_sic_matches_loop():
    from oracles import sic_states

    cases = [sic_states(n) for n in range(1, 17)]
    # one state rotated slightly: not a SIC
    h = np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex)
    u = np.cos(1e-4) * np.eye(4) + 1j * np.sin(1e-4) * h / np.linalg.norm(h, 2)
    bad = sic_states(1).copy()
    bad[5] = u @ bad[5] @ u.conj().T
    cases.append(bad)
    for states in cases:
        rep = verify_sic(states, 4)
        fdev, sdev, cdev = _verify_sic_by_loop(states, 4)
        assert abs(rep.max_fidelity_deviation - fdev) <= 1e-14
        assert abs(rep.max_state_deviation - sdev) <= 1e-14
        assert abs(rep.completeness_deviation - cdev) <= 1e-14
        assert rep.is_sic == (max(fdev, sdev, cdev) <= 1e-9)
    assert not verify_sic(bad, 4).is_sic


def _weyl_check_by_loop(d, tol=1e-9):
    """The per-pair loop that the batched weyl_commutation_check replaced."""
    for p1, p2, q1, q2 in np.ndindex(d, d, d, d):
        lhs = wh.displacement(p1, p2, d) @ wh.displacement(q1, q2, d)
        ph = wh.tau(d) ** (symplectic_form((p1, p2), (q1, q2)) % (2 * d))
        if np.max(np.abs(lhs - ph * wh.displacement(p1 + q1, p2 + q2, d))) > tol:
            return False
    return True


def _is_fiducial_by_loop(v, d, tol=1e-9):
    """The per-displacement loop that the einsum in is_fiducial replaced."""
    tbl = displacement_table(d)
    for p1, p2 in np.ndindex(d, d):
        if (p1, p2) != (0, 0) and abs(abs(np.vdot(v, tbl[p1, p2] @ v)) ** 2 - 1 / (d + 1)) > tol:
            return False
    return True


def _unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_batched_weyl_and_fiducial_checks_match_loops(d):
    assert weyl_commutation_check(d) == _weyl_check_by_loop(d) is True
    rng = np.random.default_rng(d)
    kets = [_unit(rng.normal(size=d) + 1j * rng.normal(size=d)), _unit(np.eye(d)[0] + 0j)]
    fiducial = {3: _unit(np.array([0, 1, -1]) + 0j), 4: fiducial_ket_d4()}.get(d)
    if fiducial is not None:
        kets += [fiducial, _unit(fiducial + 1e-3 * np.arange(d))]
    verdicts = [is_fiducial(v, d) for v in kets]
    assert verdicts == [_is_fiducial_by_loop(v, d) for v in kets]
    assert verdicts == [False, False] + [True, False] * (fiducial is not None)


def test_batched_weyl_check_rejects_a_wrong_phase(monkeypatch):
    # tau^2 != omega breaks the law; both forms must say so
    monkeypatch.setattr(wh, "tau", lambda d: -np.exp(1j * np.pi / d + 0.1j))
    displacement_table.cache_clear()
    try:
        for d in (3, 4):
            assert weyl_commutation_check(d) == _weyl_check_by_loop(d) is False
    finally:
        monkeypatch.undo()
        displacement_table.cache_clear()
    assert weyl_commutation_check(4)


def test_shift_clock_products_match_matrix_power():
    # the matrix_power form is the reference, bit for bit: successive
    # products take the same m^3 = (m m) m; signed zeros included
    rng = np.random.default_rng(41)
    for shape in ((4, 4), (1, 4, 4), (32, 4, 4)):
        x, z = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
        x[..., 0, 1] = -0.0
        powers = [np.stack([np.linalg.matrix_power(m, k) for k in range(4)], axis=-3) for m in (x, z)]
        old = (powers[0][..., :, None, :, :] @ powers[1][..., None, :, :, :]).reshape(shape[:-2] + (16, 4, 4))
        assert shift_clock_products(x, z).tobytes() == old.tobytes()


def test_displacement_table_matches_per_pair_matrix_powers():
    # equal value for value where the powers are the same products (d <= 4;
    # signed zeros aside); matrix_power squares its way to higher powers
    for d in range(2, 9):
        table, want = displacement_table(d), displacement_table_by_matrix_power(d)
        assert table.shape == (d, d, d, d) and not table.flags.writeable
        if d <= 4:
            assert np.array_equal(table, want)
        else:
            assert np.max(np.abs(table - want)) <= 1e-15


def test_displacement_takes_index_arrays():
    # a (2, N) array of unreduced indices, negative and past 2d among them,
    # gives the N operators of the per-pair calls
    rng = np.random.default_rng(24)
    for d in (2, 3, 4, 5):
        p = rng.integers(-3 * d, 3 * d, size=(2, 40))
        p[:, :4] = [[-1, 2 * d, -2 * d - 1, 3 * d + 2], [2 * d + 1, -d, 5 * d, -1]]
        stack = displacement(*p, d)
        assert stack.shape == (40, d, d)
        assert np.array_equal(stack, np.stack([displacement(int(a), int(b), d) for a, b in p.T]))
        assert np.array_equal(displacement(*p.reshape(2, 5, 8), d), stack.reshape(5, 8, d, d))


def test_unreduced_indices_give_exactly_plus_or_minus_the_table():
    # the sign of an index shift is the integer (-1)^(d+1) or 1, never a
    # complex power of tau, so D_(5,1) is exactly -D_(1,1) in d = 4
    assert np.array_equal(displacement(5, 1, 4), -displacement_table(4)[1, 1])
    for d in range(2, 7):
        p = np.indices((4 * d, 4 * d)).reshape(2, -1) - 2 * d  # every index in [-2d, 2d)
        r = p % d
        shift = (p[0] * p[1] - r[0] * r[1]) % (2 * d)
        sign = np.where(shift == d, (-1) ** (d + 1), 1)
        assert np.array_equal(displacement(*p, d), sign[:, None, None] * displacement_table(d)[r[0], r[1]])
        assert set(shift.tolist()) <= {0, d}


def test_a_dimension_below_two_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (0, 1):
            for p in ((1, 0), (np.arange(3), np.arange(3))):
                with pytest.raises(ValueError, match="at least 2"):
                    displacement(*p, d)
            with pytest.raises(ValueError, match="at least 2"):
                displacement_table(d)
