"""Acceptance gate: one test per headline claim, one printed line each.

Each test certifies one structural claim end to end at its pinned
tolerance.  Run with ``pytest -v tests/test_acceptance.py`` to get the
per-criterion pass/fail listing.
"""

import math

import numpy as np

from oracles import (
    LABEL_GRID,
    avg_reduced_purity,
    compose,
    concurrence_census,
    coset as pair_coset,
    displacement_coset,
    elements_proj_equal,
    match_sign_pattern,
    partial_transpose_simplex_check,
    sic_states,
    sign_functions,
    symplectic_group_matrices,
    violating_patterns,
)
from sic4.clifford import (
    SymplecticPair,
    conjugation_action,
    enumerate_projective_clifford,
    semidirect_product,
    to_operator,
)
from sic4.numerics import proj_equal, projective_set_equal, rank1_kets as state_ket
from sic4.orbits import (
    FIDUCIAL_STABILIZER,
    STABILIZER_CYCLE,
    STABILIZER_MATRIX,
    STABILIZER_ORBIT_SETS,
    enumerate_orbit,
    stability_group,
    stabilizer_orbits_within_sic,
    triple_family,
    triple_phase,
    triple_trace_census,
    verify_symmetry_group_in_clifford,
)
from sic4.reconstruction import reconstruct_hw, signature_values
from sic4.regrouping import (
    dprime_elements,
    equivalence_unitary,
    exhaustive_regroup_scan,
    hw_conjugate_subgroup_census,
    sic_family,
    X_PRIME_PAIR,
    Z_PRIME_PAIR,
)
from sic4.two_qubit import (
    concurrence,
    gbv,
    physical_state,
)
from sic4.weyl_heisenberg import (
    CONSTANTS,
    displacement,
    fiducial_ket_d4,
    verify_sic,
    weyl_commutation_check,
)

G = CONSTANTS.G


def _report(n, ok, text):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", n, text))
    assert ok, text


def _displacement_stack():
    return np.stack([displacement(p1, p2, 4) for p1 in range(4) for p2 in range(4)])


def test_criterion_01_fiducial_condition():
    v = fiducial_ket_d4()
    dev = max(
        abs(abs(np.vdot(v, displacement(p1, p2, 4) @ v)) - 5**-0.5)
        for p1 in range(4)
        for p2 in range(4)
        if (p1, p2) != (0, 0)
    )
    _report(1, dev <= 1e-9, "fiducial overlap |<v|D_p v>| = 5^{-1/2}, dev %.2e" % dev)


def test_criterion_02_orbit_cardinalities():
    orbit = enumerate_orbit()
    flat = orbit.projectors.reshape(256, 16)
    gram = np.abs(flat.conj() @ flat.T)
    np.fill_diagonal(gram, 0)
    distinct = bool(np.max(gram) < 1 - 1e-6)
    sics = sum(verify_sic(sic_states(n), 4).is_sic for n in range(1, 17))
    unitary = len(enumerate_projective_clifford(4, extended=False))
    extended = len(enumerate_projective_clifford(4, extended=True))
    ok = distinct and sics == 16 and unitary == 768 and extended == 1536
    _report(
        2,
        ok,
        "256 distinct fiducials, %d SICs, group orders %d/%d" % (sics, unitary, extended),
    )


def test_criterion_03_stabilizer():
    orbit = enumerate_orbit()
    stab = stability_group(orbit.projectors[0])
    unitary = sum(not e.op.antiunitary for e in stab)
    gen = to_operator(FIDUCIAL_STABILIZER)
    gen_ok = gen.antiunitary and proj_equal(gen.matrix, STABILIZER_MATRIX)
    p = STABILIZER_CYCLE[0]
    cyc = [p]
    for _ in range(5):
        _, p = conjugation_action(FIDUCIAL_STABILIZER, p)
        cyc.append(p)
    _, closing = conjugation_action(FIDUCIAL_STABILIZER, p)
    cycle_ok = tuple(cyc) == STABILIZER_CYCLE and closing == STABILIZER_CYCLE[0]
    ok = len(stab) == 6 and unitary == 3 and gen_ok and cycle_ok
    _report(3, ok, "stabilizer order 6/3, generator matrix and index cycle reproduced")


def test_criterion_04_stabilizer_orbit_sets():
    orbs = {frozenset(o) for o in stabilizer_orbits_within_sic()}
    ok = orbs == set(STABILIZER_ORBIT_SETS)
    _report(4, ok, "the five 3-state index sets match verbatim")


def test_criterion_05_triple_trace_census():
    census = triple_trace_census(1, gap=1e-6)
    centers = [c for c, _ in census]
    reals = sum(abs(c.imag) < 1e-9 for c in centers)
    pairs = sum(
        1
        for c in centers
        if c.imag > 1e-9 and any(abs(c.conjugate() - d) < 1e-9 for d in centers)
    )
    same = True
    ref = np.array(centers)
    for label in range(2, 17):
        cen = triple_trace_census(label, gap=1e-6)
        if [n for _, n in cen] != [n for _, n in census]:
            same = False
            break
        if np.max(np.abs(np.array([c for c, _ in cen]) - ref)) > 1e-9:
            same = False
            break
    ok = len(census) == 17 and reals == 1 and pairs == 8 and same
    _report(5, ok, "17 clusters, 8 conjugate pairs + 1 real, identical for all 16 SICs")


def test_criterion_06_symmetry_group():
    rep = verify_symmetry_group_in_clifford()
    from sic4.orbits import label_permutation_group

    perms = label_permutation_group(extended=False)
    ident = tuple(range(16))

    def porder(p):
        o, acc = 1, p
        while acc != ident:
            acc = tuple(p[acc[i]] for i in range(16))
            o += 1
        return o

    hist = {}
    for p in perms:
        hist[porder(p)] = hist.get(porder(p), 0) + 1
    ok = (
        rep.extended_order == 96
        and rep.unitary_order == 48
        and hist == {1: 1, 2: 7, 3: 8, 4: 24, 6: 8}
        and rep.hw_is_unique_order16
    )
    _report(6, ok, "symmetry group 96/48, order census 1+7+8+24+8, unique order-16 subgroup")


def test_criterion_07_eigen_signature():
    v = fiducial_ket_d4()
    rho = np.outer(v, v.conj())
    z = displacement(0, 1, 4)
    m = sum(
        np.linalg.matrix_power(z, j) @ rho @ np.linalg.matrix_power(z, j).conj().T
        for j in range(4)
    )
    w = np.linalg.eigvalsh(m)
    dev = float(np.max(np.abs(w - np.array(sorted(signature_values())))))
    total = float(sum(signature_values()))
    ok = dev <= 1e-10 and abs(total - 4.0) <= 1e-12
    _report(7, ok, "closed-form eigenvalues (dev %.2e), sum %.12f" % (dev, total))


def test_criterion_08_reconstruction():
    orbit = enumerate_orbit()
    disp = _displacement_stack()
    dp = dprime_elements()
    orig = 0
    for n in range(1, 17):
        rec = reconstruct_hw(sic_states(n))
        orig += projective_set_equal(rec.elements, disp)
    members, _ = sic_family()
    regr = 0
    for s in orbit.projectors[members[16:]]:
        rec = reconstruct_hw(s)
        regr += projective_set_equal(rec.elements, dp)
    ok = orig == 16 and regr == 16
    _report(8, ok, "recovered group: %d/16 originals, %d/16 regrouped" % (orig, regr))


def test_criterion_09_regrouping():
    sics = sic_family()[0][16:]
    row_total = exhaustive_regroup_scan(full_scan=False)
    full_total = exhaustive_regroup_scan(full_scan=True)
    ok = len(sics) == 16 and row_total == 32 and full_total == 32
    _report(9, ok, "16 additional SICs; row scan %d, full scan %d" % (row_total, full_total))


def test_criterion_10_equivalence():
    u = equivalence_unitary()
    unit = np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    disp = _displacement_stack()
    conj_ok = projective_set_equal(
        np.einsum("ab,kbc,dc->kad", u, disp, u.conj()), dprime_elements()
    )
    orbit = enumerate_orbit()
    rho = orbit.projectors[0]
    fix = np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-9

    from oracles import canonical_key

    sics = orbit.projectors[sic_family()[0][16:]]
    keys = {frozenset(canonical_key(s) for s in sic) for sic in sics}
    mapped = sum(
        frozenset(
            canonical_key(m)
            for m in np.einsum("ab,kbc,dc->kad", u, sic_states(n), u.conj())
        )
        in keys
        for n in range(1, 17)
    )
    ok = unit and conj_ok and fix and mapped == 16
    _report(10, ok, "equivalence unitary: conjugates the group, fixes the fiducial, maps the family")


def test_criterion_11_subgroup_census():
    total, normal, _, normal_sets = hw_conjugate_subgroup_census()
    ident = SymplecticPair((1, 0, 0, 1), (0, 0), 4)
    dbar = frozenset(displacement_coset(p1, p2) for p1 in range(4) for p2 in range(4))
    xs, zs = [ident], [ident]
    for _ in range(3):
        xs.append(semidirect_product(xs[-1], X_PRIME_PAIR))
        zs.append(semidirect_product(zs[-1], Z_PRIME_PAIR))
    dbar_prime = frozenset(pair_coset(semidirect_product(x, z)) for x in xs for z in zs)
    ok = total == 32 and normal == 2 and set(normal_sets) == {dbar, dbar_prime}
    _report(11, ok, "32 displacement-type subgroups, the 2 normal ones identified")


ROW_H1 = (-1, 1, 1, -1)
COL_H23 = ((1, -1), (1, 1), (-1, 1), (-1, -1))


def _basis_survey(basis):
    matched = 0
    split_ok = True
    table_ok = True
    for r, row in enumerate(LABEL_GRID):
        for c, label in enumerate(row):
            hs = set()
            for rho in sic_states(label):
                p = match_sign_pattern(gbv(physical_state(rho, basis)), basis)
                if p is None:
                    continue
                matched += 1
                if p.class_id != (1 if label <= 8 else 2):
                    split_ok = False
                h = sign_functions(p)
                hs.add((h.h1, h.h2, h.h3))
            if hs != {(ROW_H1[r],) + COL_H23[c]}:
                table_ok = False
    return matched, split_ok, table_ok


def test_criterion_12_two_qubit_product_basis():
    matched, split_ok, table_ok = _basis_survey("product")
    c_flat = math.sqrt(2 / 5)
    c_hi = math.sqrt((2 + 2 * math.sqrt(G)) / 5)
    c_lo = math.sqrt((2 - 2 * math.sqrt(G)) / 5)
    flat_ok = all(
        abs(concurrence(state_ket(rho)) - c_flat) <= 1e-9
        for n in range(1, 9)
        for rho in sic_states(n)
    )
    hist_ok = all(
        concurrence_census(sic_states(n), "product") == {round(c_hi, 9): 8, round(c_lo, 9): 8}
        for n in range(9, 17)
    )
    purity_ok = all(
        abs(avg_reduced_purity(sic_states(n), "product") - 0.8) <= 1e-9 for n in range(1, 17)
    )
    ok = matched == 256 and split_ok and table_ok and flat_ok and hist_ok and purity_ok
    _report(12, ok, "product basis: 256 pattern matches, sign table, concurrences, purity 0.8")


def test_criterion_13_two_qubit_bell_basis():
    matched, split_ok, table_ok = _basis_survey("bell")
    c_flat = math.sqrt(2 / 5)
    c_hi = math.sqrt((2 + 2 * math.sqrt(G)) / 5)
    c_lo = math.sqrt((2 - 2 * math.sqrt(G)) / 5)
    swap_ok = all(
        concurrence_census(sic_states(n), "bell") == {round(c_hi, 9): 8, round(c_lo, 9): 8}
        for n in range(1, 9)
    ) and all(
        set(concurrence_census(sic_states(n), "bell")) == {round(c_flat, 9)}
        for n in range(9, 17)
    )
    ok = matched == 256 and split_ok and table_ok and swap_ok
    _report(13, ok, "Bell basis: 256 pattern matches, concurrence roles swapped, sign table unchanged")


def test_criterion_14_partial_transpose_simplex():
    orbit = enumerate_orbit()
    vps = violating_patterns()
    certified = sum(partial_transpose_simplex_check(p, orbit) for p in vps)
    ok = len(vps) == 128 and certified == 128
    _report(14, ok, "all %d constraint-violating patterns certified as fiducial partial transposes" % certified)


def test_criterion_15_triple_family():
    fid_dev, phase_dev, monotone = 0.0, 0.0, True
    for d in (3, 4, 5):
        grid = np.linspace(-math.pi, math.pi, 100, endpoint=False)
        phis = []
        for theta in grid:
            kets = triple_family(float(theta), d)
            for i in range(3):
                for j in range(i + 1, 3):
                    fid_dev = max(
                        fid_dev, abs(abs(np.vdot(kets[i], kets[j])) ** 2 - 1 / (d + 1))
                    )
            t = (
                np.vdot(kets[0], kets[1])
                * np.vdot(kets[1], kets[2])
                * np.vdot(kets[2], kets[0])
            )
            ph = triple_phase(float(theta), d)
            phase_dev = max(phase_dev, abs(float(np.angle(t)) - ph))
            phis.append(ph)
        monotone = monotone and bool(np.all(np.diff(phis) > 0))
    ok = fid_dev <= 1e-10 and phase_dev <= 1e-10 and monotone
    _report(
        15,
        ok,
        "triple family d=3,4,5: fidelity dev %.2e, phase dev %.2e, monotone" % (fid_dev, phase_dev),
    )


def test_criterion_16_property_suite():
    orbit = enumerate_orbit()
    norm_ok = all(abs(gbv(rho).norm_sq() - 3.0) <= 1e-9 for rho in sic_states(1))
    weyl_ok = weyl_commutation_check(4)

    rng = np.random.default_rng(2024)
    mats = symplectic_group_matrices(8, 1) + symplectic_group_matrices(8, 7)
    hom_ok = True
    for _ in range(1000):
        fa = mats[rng.integers(len(mats))]
        fb = mats[rng.integers(len(mats))]
        a = SymplecticPair(tuple(int(x) for x in fa), tuple(int(x) for x in rng.integers(0, 4, 2)), 4)
        b = SymplecticPair(tuple(int(x) for x in fb), tuple(int(x) for x in rng.integers(0, 4, 2)), 4)
        if not elements_proj_equal(
            to_operator(semidirect_product(a, b)), compose(to_operator(a), to_operator(b))
        ):
            hom_ok = False
            break

    stab = stability_group(orbit.projectors[0])
    count_ok = 256 * len(stab) == 1536
    ok = norm_ok and weyl_ok and hom_ok and count_ok
    _report(16, ok, "GBV norm, Weyl law, 1000-pair homomorphism, orbit-stabilizer product")
