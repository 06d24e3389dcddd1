"""Verification front end.

Each subcommand replays one slice of the construction and emits a report:
a list of claims with expected and observed values, a pass flag per claim,
and the run configuration.  Exit status 0 means every claim passed, 1 means
at least one failed, 2 means the invocation itself was invalid.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
import time

import numpy as np

from .numerics import DEFAULT_TOL

_SUBCOMMANDS = ("orbit", "symmetry", "triples", "reconstruct", "regroup", "twoqubit", "all")


def _coerce(x):
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (list, tuple)):
        return [_coerce(v) for v in x]
    return x


class Claims:
    def __init__(self, tol: float):
        self.tol = tol
        self.rows: list = []

    def add(self, claim_id: str, anchor: str, expected, observed, tol: float | None = None):
        expected = _coerce(expected)
        observed = _coerce(observed)
        if isinstance(expected, float) or isinstance(observed, float):
            t = self.tol if tol is None else tol
            ok = abs(float(expected) - float(observed)) <= t
        else:
            ok = expected == observed
        self.rows.append(
            {
                "claim_id": claim_id,
                "anchor": anchor,
                "expected": expected,
                "observed": observed,
                "pass": bool(ok),
            }
        )
        return ok


def _pair_json(pair) -> dict:
    a, b, c, e = pair.F
    return {
        "F": [[a, b], [c, e]],
        "chi": list(pair.chi),
        "antiunitary": bool(pair.antiunitary),
    }


# --- subcommand runners ----------------------------------------------------


def run_orbit(cfg, claims: Claims):
    from .clifford import enumerate_projective_clifford, to_operator
    from .numerics import proj_equal
    from .orbits import (
        FIDUCIAL_STABILIZER,
        STABILIZER_CYCLE,
        STABILIZER_MATRIX,
        STABILIZER_ORBIT_SETS,
        enumerate_orbit,
        stability_group,
        stabilizer_orbits_within_sic,
    )
    from .clifford import conjugation_action
    from .weyl_heisenberg import displacement, fiducial_ket_d4, verify_sic

    psi = fiducial_ket_d4()
    dev = max(
        abs(abs(psi.conj() @ displacement(p1, p2, 4) @ psi) - 5**-0.5)
        for p1 in range(4)
        for p2 in range(4)
        if (p1, p2) != (0, 0)
    )
    claims.add(
        "orbit.fiducial_overlap_dev",
        "equiangularity of the fiducial under all nonzero displacements",
        0.0,
        dev,
    )

    orbit = enumerate_orbit()
    flat = orbit.projectors.reshape(256, 16)
    gram = np.abs(flat.conj() @ flat.T)
    distinct = int(np.max(gram - np.diag(np.diag(gram))) < 1.0 - 1e-6)
    claims.add(
        "orbit.distinct_fiducials",
        "projectively distinct states on the orbit",
        256,
        256 if distinct else -1,
    )
    sic_ok = sum(
        verify_sic(orbit.sic(n).states, 4, cfg.tol).is_sic for n in range(1, 17)
    )
    claims.add("orbit.sic_count", "certified SIC-POVMs on the orbit", 16, sic_ok)
    claims.add(
        "orbit.unitary_group_order",
        "projective Clifford group order",
        768,
        len(enumerate_projective_clifford(4, extended=False)),
    )
    claims.add(
        "orbit.extended_group_order",
        "projective extended Clifford group order",
        1536,
        len(enumerate_projective_clifford(4, extended=True)),
    )

    stab = stability_group(orbit.projectors[0], cfg.tol)
    claims.add("orbit.stabilizer_order_extended", "stability group of the fiducial", 6, len(stab))
    claims.add(
        "orbit.stabilizer_order_unitary",
        "unitary part of the stability group",
        3,
        sum(not e.op.antiunitary for e in stab),
    )
    gen = to_operator(FIDUCIAL_STABILIZER)
    claims.add(
        "orbit.stabilizer_generator_matches",
        "stabilizer generator equals its written-out matrix",
        True,
        bool(gen.antiunitary and proj_equal(gen.matrix, STABILIZER_MATRIX)),
    )
    p = STABILIZER_CYCLE[0]
    cyc = [p]
    for _ in range(5):
        _, p = conjugation_action(FIDUCIAL_STABILIZER, p)
        cyc.append(p)
    _, closing = conjugation_action(FIDUCIAL_STABILIZER, p)
    claims.add(
        "orbit.stabilizer_cycle",
        "index cycle of conjugation by the stabilizer generator",
        [list(q) for q in STABILIZER_CYCLE],
        [list(q) for q in cyc] if closing == STABILIZER_CYCLE[0] else [],
    )
    orbs = {frozenset(o) for o in stabilizer_orbits_within_sic()}
    claims.add(
        "orbit.stabilizer_orbit_partition",
        "five 3-state orbits of the stabilizer square",
        True,
        orbs == set(STABILIZER_ORBIT_SETS),
    )
    claims.add(
        "orbit.orbit_stabilizer_product",
        "orbit size times stabilizer order",
        1536,
        256 * len(stab),
    )
    payload = {
        "stabilizer_generator": _pair_json(FIDUCIAL_STABILIZER),
        "orbit_partition": [sorted(map(list, s)) for s in STABILIZER_ORBIT_SETS],
    }
    return payload


def run_symmetry(cfg, claims: Claims):
    from .orbits import (
        label_permutation_group,
        permutation_order,
        verify_symmetry_group_in_clifford,
    )

    rep = verify_symmetry_group_in_clifford(cfg.tol)
    claims.add("symmetry.extended_order", "extended symmetry group of one SIC", 96, rep.extended_order)
    claims.add("symmetry.unitary_order", "unitary symmetry group of one SIC", 48, rep.unitary_order)
    claims.add(
        "symmetry.hw_unique_order16",
        "displacement group is the unique order-16 subgroup",
        True,
        rep.hw_is_unique_order16,
    )
    claims.add(
        "symmetry.rigid_permutations",
        "state permutations preserving all triple traces",
        3,
        rep.rigid_permutation_count,
    )

    perms = sorted(label_permutation_group(extended=False))
    claims.add("symmetry.label_perm_count", "distinct label permutations, unitary", 48, len(perms))
    hist: dict = {}
    for p in perms:
        order = permutation_order(p)
        hist[order] = hist.get(order, 0) + 1
    claims.add(
        "symmetry.order_census",
        "element orders in the quotient symmetry group",
        {1: 1, 2: 7, 3: 8, 4: 24, 6: 8},
        hist,
    )

    rows = [set(range(4 * r, 4 * r + 4)) for r in range(4)]

    def row_action(p):
        act = []
        for r in range(4):
            img = {p[i] for i in rows[r]}
            act.append(next((k for k in range(4) if rows[k] == img), -1))
        return tuple(act)

    actions = {row_action(p) for p in perms}
    claims.add(
        "symmetry.row_partition_preserved",
        "label rows map onto label rows",
        True,
        all(-1 not in a for a in actions),
    )
    claims.add("symmetry.row_image_order", "induced group on the four rows", 4, len(actions))
    row_preserving = [p for p in perms if row_action(p) == (0, 1, 2, 3)]
    claims.add(
        "symmetry.row_preserving_order",
        "subgroup acting trivially on rows",
        12,
        len(row_preserving),
    )

    def column_actions(p):
        return {tuple(p[4 * r + c] - 4 * row_action(p)[r] for c in range(4)) for r in range(4)}

    same_cols = all(len(column_actions(p)) == 1 for p in row_preserving)
    col_perms = {next(iter(column_actions(p))) for p in row_preserving}
    even = all(_parity(q) == 0 for q in col_perms)
    claims.add(
        "symmetry.row_preserving_column_action",
        "row-preserving elements permute columns evenly, same way in every row",
        True,
        bool(same_cols and even and len(col_perms) == 12),
    )

    ext = sorted(label_permutation_group(extended=True))
    claims.add("symmetry.label_perm_count_extended", "distinct label permutations, extended", 96, len(ext))
    ext_actions = {row_action(p) for p in ext}
    claims.add(
        "symmetry.row_image_order_extended",
        "induced row group under the extended Clifford action",
        8,
        len(ext_actions),
    )
    payload = {"label_permutations": [[x + 1 for x in p] for p in perms]}
    return payload


def _parity(perm) -> int:
    seen, parity = set(), 0
    for i in range(len(perm)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


# multiplicities of the 17 trace clusters, sorted by (re, im) of the center
_CENSUS_MULTIPLICITIES = (144, 144, 288, 288, 288, 288, 96, 96, 288, 288, 144, 144, 96, 96, 288, 288, 96)


def run_triples(cfg, claims: Claims):
    from .orbits import triple_family, triple_phase, triple_trace_census

    ref = triple_trace_census(1)
    claims.add("triples.cluster_count", "distinct triple-trace values in one SIC", 17, len(ref))
    claims.add(
        "triples.multiplicities",
        "cluster sizes over the 3360 ordered triples",
        list(_CENSUS_MULTIPLICITIES),
        [n for _, n in ref],
    )
    reals = [c for c, _ in ref if abs(c.imag) < 1e-9]
    claims.add("triples.real_clusters", "real triple-trace values", 1, len(reals))
    centers = [c for c, _ in ref]
    paired = sum(
        1
        for c in centers
        if c.imag > 1e-9 and any(abs(c.conjugate() - d) < 1e-9 for d in centers)
    )
    claims.add("triples.conjugate_pairs", "complex values come in conjugate pairs", 8, paired)
    claims.add(
        "triples.modulus_dev",
        "all triple traces share the modulus 5^{-3/2}",
        0.0,
        max(abs(abs(c) - 5**-1.5) for c in centers),
    )
    invariant = True
    refarr = np.array(centers)
    for lab in range(2, 17):
        cen = triple_trace_census(lab)
        if [n for _, n in cen] != [n for _, n in ref]:
            invariant = False
            break
        if np.max(np.abs(np.array([c for c, _ in cen]) - refarr)) > 1e-9:
            invariant = False
            break
    claims.add(
        "triples.cross_sic_invariant",
        "identical census for all 16 SICs",
        True,
        invariant,
    )

    fid_dev, phase_dev, monotone = 0.0, 0.0, True
    for d in (3, 4, 5):
        thetas = np.linspace(-math.pi, math.pi, 100, endpoint=False)
        phis = []
        for th in thetas:
            kets = triple_family(float(th), d)
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
            ph = triple_phase(float(th), d)
            phase_dev = max(phase_dev, abs(float(np.angle(t)) - ph))
            phis.append(ph)
        monotone = monotone and bool(np.all(np.diff(phis) > 0))
    claims.add(
        "triples.family_fidelity_dev",
        "three-state family keeps pairwise fidelity 1/(d+1), d = 3, 4, 5",
        0.0,
        fid_dev,
        tol=1e-10,
    )
    claims.add(
        "triples.family_phase_dev",
        "triple-trace phase matches its closed form",
        0.0,
        phase_dev,
        tol=1e-10,
    )
    claims.add("triples.family_phase_monotone", "phase strictly increasing on the grid", True, monotone)
    payload = {
        "census": [[float(c.real), float(c.imag), int(n)] for c, n in ref],
    }
    return payload


def run_reconstruct(cfg, claims: Claims):
    from .orbits import enumerate_orbit
    from .reconstruction import (
        quad_signature_scan,
        reconstruct_hw,
        signature_values,
        uniqueness_check,
    )
    from .regrouping import dprime_elements, regrouped_family
    from .numerics import matrix_to_json, projective_set_equal
    from .weyl_heisenberg import displacement, displacement_table

    orbit = enumerate_orbit()
    rho = orbit.projectors[0]
    z = displacement(0, 1, 4)
    m = sum(
        np.linalg.matrix_power(z, j) @ rho @ np.linalg.matrix_power(z, j).conj().T
        for j in range(4)
    )
    w = np.linalg.eigvalsh(m)
    closed = sorted(signature_values())
    claims.add(
        "reconstruct.signature_closed_form_dev",
        "eigenvalues of the clock-orbit sum match their closed forms",
        0.0,
        float(np.max(np.abs(w - np.array(closed)))),
        tol=1e-10,
    )
    claims.add(
        "reconstruct.signature_sum",
        "the four signature values sum to the dimension",
        4.0,
        float(sum(signature_values())),
        tol=1e-10,
    )

    _, matching = quad_signature_scan(orbit.sic(1))
    claims.add(
        "reconstruct.reference_quads",
        "4-subsets of one SIC realizing the signature",
        24,
        len(matching),
    )

    disp = displacement_table(4).reshape(16, 4, 4)
    from .reconstruction import _phase_operator

    in_group = 0
    for quad in matching:
        zq = _phase_operator(orbit.sic(1).states[list(quad)].sum(axis=0))
        scores = np.abs(np.einsum("ij,kij->k", zq.conj(), disp))
        if np.max(scores) >= 4 - 1e-7:
            in_group += 1
    claims.add(
        "reconstruct.quad_operators_in_group",
        "every qualifying 4-subset induces a displacement element",
        24,
        in_group,
    )

    sics, _ = regrouped_family(orbit)
    dp = dprime_elements()
    orig, regr = [], []
    for n in range(1, 17):
        rec = reconstruct_hw(orbit.sic(n), cfg.tol)
        orig.append((projective_set_equal(rec.elements, disp), rec))
    for s in sics:
        rec = reconstruct_hw(s, cfg.tol)
        regr.append((projective_set_equal(rec.elements, dp), rec))
    claims.add(
        "reconstruct.original_family",
        "reconstruction returns the displacement group on SICs 1-16",
        16,
        sum(ok for ok, _ in orig),
    )
    claims.add(
        "reconstruct.regrouped_family",
        "reconstruction returns the conjugate group on SICs 17-32",
        16,
        sum(ok for ok, _ in regr),
    )

    uniq = [uniqueness_check(s) for s in [orbit.sic(n) for n in range(1, 17)] + sics]
    claims.add(
        "reconstruct.uniqueness",
        "each of the 32 SICs is covariant under exactly one order-16 group",
        32,
        sum(uniq),
    )
    payload = {
        "generators_sic_1": {
            "z": matrix_to_json(orig[0][1].z_gen),
            "x": matrix_to_json(orig[0][1].x_gen),
        },
        "generators_sic_17": {
            "z": matrix_to_json(regr[0][1].z_gen),
            "x": matrix_to_json(regr[0][1].x_gen),
        },
    }
    return payload


class _InputError(Exception):
    """A --input file that cannot be read as 16 states of dimension 4."""


def _read_input_states(path: str) -> np.ndarray:
    """The (16, 4, 4) states of a --input file; _InputError, with a one-line
    reason, when the file is missing, not JSON or not of that form."""
    from .numerics import matrix_from_json

    try:
        with open(path) as fh:
            states = np.stack([matrix_from_json(m) for m in json.load(fh)["states"]])
    except OSError as exc:
        raise _InputError(exc.strerror or str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise _InputError("not a SIC file (%s: %s)" % (type(exc).__name__, exc)) from None
    if states.shape != (16, 4, 4):
        raise _InputError("expected 16 states of dimension 4, got shape %s" % (states.shape,))
    return states


def run_reconstruct_input(cfg, claims: Claims):
    """Reconstruction on a user-supplied SIC (JSON file of 16 states)."""
    from .numerics import matrix_to_json, projective_set_equal
    from .reconstruction import reconstruct_hw
    from .regrouping import dprime_elements
    from .weyl_heisenberg import SicPovm, displacement_table, verify_sic

    states = _read_input_states(cfg.input_path)
    rep = verify_sic(states, 4, cfg.tol)
    claims.add("reconstruct.input_is_sic", "input passes the SIC certificate", True, rep.is_sic)
    if not rep.is_sic:
        return {}
    rec = reconstruct_hw(SicPovm(4, states, label="input"), cfg.tol)
    if projective_set_equal(rec.elements, displacement_table(4).reshape(16, 4, 4)):
        verdict = "displacement"
    elif projective_set_equal(rec.elements, dprime_elements()):
        verdict = "conjugate-displacement"
    else:
        verdict = "other"
    claims.add(
        "reconstruct.input_group",
        "reconstructed covariance group identified",
        verdict,
        verdict,
    )
    return {
        "generators": {"z": matrix_to_json(rec.z_gen), "x": matrix_to_json(rec.x_gen)},
        "elements": [matrix_to_json(m) for m in rec.elements],
        "group": verdict,
    }


def run_regroup(cfg, claims: Claims):
    from .clifford import to_operator
    from .numerics import commutator_phase, matrix_to_json, proj_equal, projective_set_equal
    from .orbits import MATCH_TOL, element_arrays, enumerate_orbit, state_action
    from .regrouping import (
        EQUIVALENCE_MATRIX,
        X_PRIME_MATRIX,
        X_PRIME_PAIR,
        Z_PRIME_MATRIX,
        Z_PRIME_PAIR,
        displacement_coset,
        dprime_elements,
        equivalence_unitary,
        exhaustive_regroup_scan,
        fidelity_adjacency,
        generated_cosets,
        hw_conjugate_subgroup_census,
        regrouped_family,
    )
    from .weyl_heisenberg import displacement_table

    orbit = enumerate_orbit()
    sics, matching = regrouped_family(orbit, cfg.tol)
    claims.add("regroup.additional_sics", "new SICs from block matching", 16, len(sics))

    n_row = exhaustive_regroup_scan(orbit, full_scan=False, tol=cfg.tol)
    claims.add("regroup.row_scan_total", "SICs found by the per-row clique scan", 32, n_row)
    if cfg.full_scan:
        n_full = exhaustive_regroup_scan(orbit, full_scan=True, tol=cfg.tol)
        claims.add("regroup.full_scan_total", "SICs found scanning all 256 states", 32, n_full)

    cover = np.zeros(256, dtype=int)
    for lab in range(1, 17):
        cover[(lab - 1) * 16 : lab * 16] += 1
    for m in matching:
        for block in m:
            cover[list(block.members)] += 1
    claims.add(
        "regroup.double_cover",
        "every state belongs to exactly two of the 32 SICs",
        True,
        bool(np.all(cover == 2)),
    )
    degrees = set(fidelity_adjacency(orbit, range(256), cfg.tol).sum(axis=1).tolist())
    claims.add(
        "regroup.fidelity_graph_regular",
        "fidelity-1/5 graph is regular across the orbit",
        True,
        len(degrees) == 1,
    )

    xp, zp = X_PRIME_MATRIX, Z_PRIME_MATRIX
    pairs = ((X_PRIME_PAIR, xp), (Z_PRIME_PAIR, zp))
    gen_ok = all(proj_equal(to_operator(pair).matrix, lit) for pair, lit in pairs)
    claims.add(
        "regroup.generators_match_parametrization",
        "written-out generators equal their symplectic parametrization",
        True,
        gen_ok,
    )
    comm = commutator_phase(zp, xp)
    claims.add(
        "regroup.commutation_projective",
        "clock and shift commute up to a fourth root of unity",
        True,
        bool(min(abs(comm - 1j), abs(comm + 1j)) <= 1e-9),
    )

    gens = np.stack([xp, zp])
    cov = all(
        np.all(state_action(gens, [False, False], s.states, s.states)[1] >= 1 - 1e-9)
        for s in sics
    )
    claims.add(
        "regroup.covariance",
        "all 16 new SICs are covariant under the conjugate group",
        True,
        cov,
    )

    u = equivalence_unitary()
    disp = displacement_table(4).reshape(16, 4, 4)
    dp = dprime_elements()
    img = np.einsum("ab,kbc,dc->kad", u, disp, u.conj())
    claims.add(
        "regroup.equivalence_conjugates_group",
        "the equivalence unitary maps the displacement group onto its conjugate",
        True,
        projective_set_equal(img, dp),
    )

    # an original SIC is carried onto a new one when the images of all its
    # states are states of that one new SIC
    new_states = np.concatenate([s.states for s in sics])
    index, ov = state_action(u[None], [False], orbit.projectors, new_states)
    image_sic = (index // 16).reshape(16, 16)
    matched = (ov >= 1.0 - MATCH_TOL).reshape(16, 16)
    mapped = int(np.sum(np.all(matched & (image_sic == image_sic[:, :1]), axis=1)))
    claims.add(
        "regroup.equivalence_maps_family",
        "the equivalence unitary carries the original family onto the new one",
        16,
        mapped,
    )

    _, mats, _ = element_arrays(extended=False)
    u2_in = bool(np.max(np.abs(np.einsum("ij,kij->k", (u @ u).conj(), mats))) >= 4 - 1e-7)
    u_in = bool(np.max(np.abs(np.einsum("ij,kij->k", u.conj(), mats))) >= 4 - 1e-7)
    rng = np.random.default_rng(20)
    normalizes = all(
        np.max(np.abs(np.einsum("ij,kij->k", (u @ mats[i] @ u.conj().T).conj(), mats)))
        >= 4 - 1e-7
        for i in rng.integers(0, len(mats), 60)
    )
    claims.add(
        "regroup.clifford_index_two",
        "the equivalence unitary extends the Clifford group by exactly one step",
        True,
        bool(u2_in and not u_in and normalizes),
    )

    total, normal, _, normal_sets = hw_conjugate_subgroup_census()
    claims.add("regroup.census_total", "displacement-type subgroups of the Clifford group", 32, total)
    claims.add("regroup.census_normal", "normal displacement-type subgroups", 2, normal)
    dbar = frozenset(displacement_coset(p1, p2) for p1 in range(4) for p2 in range(4))
    dbar_prime = generated_cosets(X_PRIME_PAIR, Z_PRIME_PAIR)
    claims.add(
        "regroup.census_normal_identified",
        "the two normal subgroups are the original and conjugate displacement groups",
        True,
        set(normal_sets) == {dbar, dbar_prime},
    )

    payload = {
        "regrouped_sics": [
            {"label": s.label, "states": [matrix_to_json(st) for st in s.states]}
            for s in sics
        ],
        "matching": [
            [{"sic_label": b.sic_label, "members": list(b.members)} for b in m]
            for m in matching
        ],
        "generators": {
            "x": dict(_pair_json(X_PRIME_PAIR), matrix=matrix_to_json(X_PRIME_MATRIX)),
            "z": dict(_pair_json(Z_PRIME_PAIR), matrix=matrix_to_json(Z_PRIME_MATRIX)),
        },
        "equivalence_unitary": matrix_to_json(EQUIVALENCE_MATRIX),
        "census": {"total": total, "normal": normal},
    }
    return payload


def run_twoqubit(cfg, claims: Claims, basis: str):
    from .orbits import LABEL_GRID, enumerate_orbit
    from .regrouping import regrouped_family
    from .two_qubit import (
        concurrence,
        concurrence_census,
        avg_reduced_purity,
        gbv,
        match_sign_pattern,
        operator_schmidt_rank,
        partial_transpose_simplex_checks,
        physical_state,
        reduced_state_census,
        sign_functions,
        state_ket,
        violating_patterns,
    )
    from .weyl_heisenberg import CONSTANTS, displacement

    orbit = enumerate_orbit()
    pre = basis

    norm_dev = 0.0
    matched = 0
    split_ok = True
    constant_ok = True
    table4: dict = {}
    pattern_rows = []
    for lab in range(1, 17):
        sic = orbit.sic(lab)
        hs = set()
        for k, rho in enumerate(sic.states):
            g = gbv(physical_state(rho, basis))
            norm_dev = max(norm_dev, abs(g.norm_sq() - 3.0))
            p = match_sign_pattern(g, basis)
            if p is None:
                continue
            matched += 1
            if (lab <= 8) != (p.class_id == 1):
                split_ok = False
            h = sign_functions(p)
            hs.add((h.h1, h.h2, h.h3))
            pattern_rows.append((lab, k) + p.signs + (h.h1, h.h2, h.h3))
        if len(hs) != 1:
            constant_ok = False
        else:
            table4[lab] = hs.pop()
    claims.add(
        f"twoqubit.{pre}_gbv_norm_dev",
        "pure-state Bloch norm over all 256 fiducials",
        0.0,
        norm_dev,
    )
    claims.add(
        f"twoqubit.{pre}_pattern_matches",
        "fiducials matching the sign-pattern tables",
        256,
        matched,
    )
    claims.add(
        f"twoqubit.{pre}_class_split",
        "SICs 1-8 carry class-1 patterns, SICs 9-16 class-2",
        True,
        split_ok,
    )
    claims.add(
        f"twoqubit.{pre}_sign_constancy",
        "sign functions constant within each SIC",
        True,
        constant_ok,
    )
    col_hh = [(1, -1), (1, 1), (-1, 1), (-1, -1)]
    row_h1 = [-1, 1, 1, -1]
    sign_tbl = all(
        table4.get(lab) == (row_h1[r], col_hh[c][0], col_hh[c][1])
        for r, row in enumerate(LABEL_GRID)
        for c, lab in enumerate(row)
    )
    claims.add(
        f"twoqubit.{pre}_sign_table",
        "sign functions constant along rows and columns of the label grid",
        True,
        sign_tbl,
    )

    g_const = CONSTANTS.G
    c_flat = math.sqrt(2 / 5)
    c_hi = math.sqrt((2 + 2 * math.sqrt(g_const)) / 5)
    c_lo = math.sqrt((2 - 2 * math.sqrt(g_const)) / 5)
    flat_class = range(1, 9) if basis == "product" else range(9, 17)
    split_class = range(9, 17) if basis == "product" else range(1, 9)
    flat_dev, flat_count = 0.0, 0
    for lab in flat_class:
        for rho in orbit.sic(lab).states:
            c = concurrence(state_ket(physical_state(rho, basis)))
            flat_dev = max(flat_dev, abs(c - c_flat))
            flat_count += 1
    claims.add(
        f"twoqubit.{pre}_equal_concurrence_count",
        "states in the equal-concurrence class",
        128,
        flat_count if flat_dev <= 1e-9 else 0,
    )
    split_hist_ok = True
    for lab in split_class:
        hist = concurrence_census(orbit.sic(lab), basis)
        want = {round(c_hi, 9): 8, round(c_lo, 9): 8}
        if hist != want:
            split_hist_ok = False
    claims.add(
        f"twoqubit.{pre}_split_concurrence",
        "other-class SICs split 8 + 8 between the two concurrence values",
        True,
        split_hist_ok,
    )

    sics, _ = regrouped_family(orbit, cfg.tol)
    purity_dev = 0.0
    for lab in range(1, 17):
        purity_dev = max(purity_dev, abs(avg_reduced_purity(orbit.sic(lab), basis) - 0.8))
    for s in sics:
        purity_dev = max(purity_dev, abs(avg_reduced_purity(s, basis) - 0.8))
    claims.add(
        f"twoqubit.{pre}_avg_purity_dev",
        "average reduced purity of every SIC, original and regrouped",
        0.0,
        purity_dev,
    )

    if basis == "product":
        mult_ok, cube1, cube2 = True, 0, 0
        edge_dev = 0.0
        for lab in range(1, 17):
            for qubit in (0, 1):
                rep = reduced_state_census(orbit.sic(lab), qubit, basis)
                if len(rep.bloch_points) != 8 or set(rep.multiplicities) != {2}:
                    mult_ok = False
                if qubit == 1 and rep.is_cube:
                    if lab <= 8:
                        cube1 += 1
                        edge_dev = max(edge_dev, abs(rep.edge_length - 2 / math.sqrt(5)))
                    else:
                        cube2 += 1
        claims.add(
            "twoqubit.product_reduced_multiplicity",
            "eight reduced states per qubit, each shared by two fiducials",
            True,
            mult_ok,
        )
        claims.add(
            "twoqubit.product_cube_class1",
            "second-qubit Bloch points of class-1 SICs form a cube",
            8,
            cube1,
        )
        claims.add(
            "twoqubit.product_cube_class2",
            "class-2 SICs do not produce the cube",
            0,
            cube2,
        )
        claims.add(
            "twoqubit.product_cube_edge_dev",
            "cube edge length 2/sqrt(5)",
            0.0,
            edge_dev,
        )
        vps = violating_patterns()
        certified = int(np.sum(partial_transpose_simplex_checks(vps, orbit, cfg.tol)))
        claims.add(
            "twoqubit.product_simplex_patterns",
            "excluded sign assignments encode partial transposes of fiducials",
            128,
            certified,
        )

    claims.add(
        f"twoqubit.{pre}_shift_nonlocal",
        "the shift generator is not a product of single-qubit unitaries",
        2,
        operator_schmidt_rank(displacement(1, 0, 4)),
    )
    payload = {
        "basis": basis,
        "sign_patterns": pattern_rows,
        "concurrence": {
            str(lab): {str(k): v for k, v in concurrence_census(orbit.sic(lab), basis).items()}
            for lab in range(1, 17)
        },
    }
    return payload


# --- report rendering ------------------------------------------------------


def _render_text(report) -> str:
    lines = [
        "subcommand: %s" % report["subcommand"],
        "config: %s" % json.dumps(report["config"]),
        "",
    ]
    for c in report["claims"]:
        mark = "PASS" if c["pass"] else "FAIL"
        lines.append(
            "[%s] %-45s expected=%s observed=%s"
            % (mark, c["claim_id"], json.dumps(c["expected"]), json.dumps(c["observed"]))
        )
    lines.append("")
    lines.append(
        "%d/%d claims passed in %d ms"
        % (report["passed"], report["passed"] + report["failed"], report["runtime_ms"])
    )
    return "\n".join(lines)


def _render_tsv(report) -> str:
    lines = ["claim_id\tanchor\texpected\tobserved\tpass"]
    for c in report["claims"]:
        lines.append(
            "%s\t%s\t%s\t%s\t%s"
            % (
                c["claim_id"],
                c["anchor"],
                json.dumps(c["expected"]),
                json.dumps(c["observed"]),
                str(c["pass"]).lower(),
            )
        )
    payload = report.get("payload") or {}
    if "sign_patterns" in payload:
        lines.append("")
        lines.append("sic\tstate\ta\tb\talpha1\talpha2\talpha3\tbeta1\tbeta2\tbeta3\th1\th2\th3")
        for row in payload["sign_patterns"]:
            lines.append("\t".join(str(x) for x in row))
    if "label_permutations" in payload:
        lines.append("")
        lines.append("\t".join("sic%d" % n for n in range(1, 17)))
        for p in payload["label_permutations"]:
            lines.append("\t".join(str(x) for x in p))
    return "\n".join(lines)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite positive float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError("expected a finite positive number, got %r" % text)
    return tol


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sic4",
        description="certify the structure of the dimension-4 covariant SIC-POVM family",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
        p.add_argument("--out", type=str, default=None)
        if name == "twoqubit":
            p.add_argument("--basis", choices=("product", "bell"), default="product")
        if name in ("regroup", "all"):
            p.add_argument("--full-scan", action="store_true", dest="full_scan")
        if name == "reconstruct":
            p.add_argument("--input", type=str, default=None, dest="input_path")
    return parser


class RunConfig:
    def __init__(self, args):
        self.tol = args.tol
        self.format = args.format
        self.out = args.out
        self.basis = getattr(args, "basis", None)
        self.full_scan = getattr(args, "full_scan", False)
        self.input_path = getattr(args, "input_path", None)

    def echo(self) -> dict:
        """The settings of this run; ``basis`` only where it was chosen."""
        echo = {
            "tol": self.tol,
            "format": self.format,
            "basis": self.basis,
            "full_scan": self.full_scan,
        }
        return {k: v for k, v in echo.items() if v is not None}


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    cfg = RunConfig(args)
    claims = Claims(cfg.tol)
    t0 = time.monotonic()
    payload: dict = {}
    name = args.subcommand
    if name == "orbit":
        payload = run_orbit(cfg, claims)
    elif name == "symmetry":
        payload = run_symmetry(cfg, claims)
    elif name == "triples":
        payload = run_triples(cfg, claims)
    elif name == "reconstruct" and cfg.input_path:
        try:
            payload = run_reconstruct_input(cfg, claims)
        except _InputError as exc:
            print("sic4: error: --input %s: %s" % (cfg.input_path, exc), file=sys.stderr)
            return 2
    elif name == "reconstruct":
        payload = run_reconstruct(cfg, claims)
    elif name == "regroup":
        payload = run_regroup(cfg, claims)
    elif name == "twoqubit":
        payload = run_twoqubit(cfg, claims, cfg.basis)
    elif name == "all":
        for section, run in (
            ("orbit", run_orbit),
            ("symmetry", run_symmetry),
            ("triples", run_triples),
            ("reconstruct", run_reconstruct),
            ("regroup", run_regroup),
            ("twoqubit_product", functools.partial(run_twoqubit, basis="product")),
            ("twoqubit_bell", functools.partial(run_twoqubit, basis="bell")),
        ):
            try:
                run(cfg, claims)
            except Exception as exc:  # one failing section must not abort the others
                logging.getLogger(__name__).exception("section %s raised", section)
                error = "%s: %s" % (type(exc).__name__, exc)
                claims.add(section + ".error", "the section runs to completion", None, error)
        payload = {}

    passed = sum(c["pass"] for c in claims.rows)
    report = {
        "subcommand": name,
        "config": cfg.echo(),
        "claims": claims.rows,
        "passed": passed,
        "failed": len(claims.rows) - passed,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }
    if cfg.format == "json":
        report["payload"] = payload
        text = json.dumps(report, indent=2)
    elif cfg.format == "tsv":
        report["payload"] = payload
        text = _render_tsv(report)
    else:
        text = _render_text(report)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
        print("report written to %s (%d/%d passed)" % (cfg.out, passed, len(claims.rows)))
    else:
        print(text)
    return 0 if passed == len(claims.rows) else 1


if __name__ == "__main__":
    sys.exit(main())
