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
import math
import sys
import time

import numpy as np

from .numerics import DEFAULT_TOL

_SUBCOMMANDS = ("orbit", "symmetry", "triples", "reconstruct", "regroup", "twoqubit", "all")


def _coerce(x):
    if isinstance(x, np.generic):  # a numpy scalar as the Python one
        return x.item()
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
            ok = observed is not None and abs(float(expected) - float(observed)) <= t  # None: not observed
        else:
            ok = expected == observed
        row = {"claim_id": claim_id, "anchor": anchor, "expected": expected, "observed": observed}
        row["pass"] = bool(ok)
        self.rows.append(row)
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
        conjugation_cycle,
        enumerate_orbit,
        orbit_certificate,
        projectively_distinct,
        stability_group,
        stabilizer_orbits_within_sic,
    )
    from .weyl_heisenberg import fiducial_ket_d4, fiducial_overlaps

    claims.add(
        "orbit.fiducial_overlap_dev",
        "equiangularity of the fiducial under all nonzero displacements",
        0.0,
        np.max(np.abs(fiducial_overlaps(fiducial_ket_d4()) - 5**-0.5)),
    )

    orbit = enumerate_orbit()
    claims.add(
        "orbit.distinct_fiducials",
        "projectively distinct states on the orbit",
        256,
        256 if projectively_distinct(orbit.projectors) else -1,
    )
    sic_ok = int(orbit_certificate(cfg.tol).is_sic.sum())
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

    stab = stability_group(orbit.projectors[0])
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
    claims.add(
        "orbit.stabilizer_cycle",
        "index cycle of conjugation by the stabilizer generator",
        [list(q) for q in STABILIZER_CYCLE],
        [list(q) for q in conjugation_cycle(FIDUCIAL_STABILIZER, STABILIZER_CYCLE[0])],
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
    return {
        "stabilizer_generator": _pair_json(FIDUCIAL_STABILIZER),
        "orbit_partition": [sorted(map(list, s)) for s in STABILIZER_ORBIT_SETS],
    }


def _row_actions(perms: np.ndarray) -> tuple:
    """How label permutations act on the rows of the label grid, labels
    0-based with row r holding 4r..4r+3: the (P, 4) image row of each row,
    -1 where a row is not sent onto one row, and the (P, 4, 4) grid of
    images."""
    grid = perms.reshape(-1, 4, 4)
    rows = grid // 4
    return np.where(np.all(rows == rows[:, :, :1], axis=2), rows[:, :, 0], -1), grid


def run_symmetry(cfg, claims: Claims):
    from .orbits import (
        first_distinct_rows,
        label_permutation_group,
        permutation_orders,
        permutation_parities,
        verify_symmetry_group_in_clifford,
    )

    rep = verify_symmetry_group_in_clifford()
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

    perms = np.array(label_permutation_group(extended=False))
    claims.add("symmetry.label_perm_count", "distinct label permutations, unitary", 48, len(perms))
    orders, counts = np.unique(permutation_orders(perms), return_counts=True)
    claims.add(
        "symmetry.order_census",
        "element orders in the quotient symmetry group",
        {1: 1, 2: 7, 3: 8, 4: 24, 6: 8},
        dict(zip(orders.tolist(), counts.tolist())),
    )

    actions, grid = _row_actions(perms)
    claims.add(
        "symmetry.row_partition_preserved",
        "label rows map onto label rows",
        True,
        bool(np.all(actions >= 0)),
    )
    row_images = len(first_distinct_rows(actions))
    claims.add("symmetry.row_image_order", "induced group on the four rows", 4, row_images)
    row_preserving = np.all(actions == np.arange(4), axis=1)
    claims.add(
        "symmetry.row_preserving_order",
        "subgroup acting trivially on rows",
        12,
        int(row_preserving.sum()),
    )
    cols = grid[row_preserving] % 4  # the column permutation in each row
    same_cols = np.all(cols == cols[:, :1], axis=(1, 2))
    even = permutation_parities(cols[:, 0]) == 0
    claims.add(
        "symmetry.row_preserving_column_action",
        "row-preserving elements permute columns evenly, same way in every row",
        True,
        bool(np.all(same_cols & even) and len(first_distinct_rows(cols[:, 0])) == 12),
    )

    ext = np.array(label_permutation_group(extended=True))
    claims.add("symmetry.label_perm_count_extended", "distinct label permutations, extended", 96, len(ext))
    claims.add(
        "symmetry.row_image_order_extended",
        "induced row group under the extended Clifford action",
        8,
        len(first_distinct_rows(_row_actions(ext)[0])),
    )
    return {"label_permutations": (perms + 1).tolist()}


# multiplicities of the 17 trace clusters, sorted by (re, im) of the center
_CENSUS_MULTIPLICITIES = (144, 144, 288, 288, 288, 288, 96, 96, 288, 288, 144, 144, 96, 96, 288, 288, 96)


def run_triples(cfg, claims: Claims):
    from .numerics import value_classes
    from .orbits import TRIPLE_CENSUS_GAP, triple_family, triple_phase, triple_trace_census

    # the claims reading SIC 1's census observe None when it cannot split
    ref, n, counts, real, pairs, modulus_dev = [], None, None, None, None, None
    try:
        ref = triple_trace_census(1)
        centers, counts, n = np.array([c for c, _ in ref]), [m for _, m in ref], len(ref)
        modulus_dev = np.max(np.abs(np.abs(centers) - 5**-1.5))
        # the centers lead their conjugates, so they are classes 0..n-1: a real
        # center's conjugate falls into its own class, a paired one's into its partner's
        conj = value_classes(np.concatenate([centers, centers.conj()]), TRIPLE_CENSUS_GAP).classes[n:]
        real = int(np.sum(conj == np.arange(n)))
        pairs = int(np.sum((np.arange(n) < conj) & (conj < n)))
    except ValueError:
        pass
    # every SIC's counts are SIC 1's and its k-th center lies within tol of SIC 1's
    try:
        same = bool(ref) and all(
            [m for _, m in cen] == counts and np.max(np.abs([c for c, _ in cen] - centers)) <= cfg.tol
            for cen in map(triple_trace_census, range(2, 17))
        )
    except ValueError:  # a SIC whose traces split into no classes has no census like SIC 1's
        same = False
    claims.add("triples.cluster_count", "distinct triple-trace values in one SIC", 17, n)
    multiplicities = list(_CENSUS_MULTIPLICITIES)
    claims.add("triples.multiplicities", "cluster sizes over the 3360 ordered triples", multiplicities, counts)
    claims.add("triples.real_clusters", "real triple-trace values", 1, real)
    claims.add("triples.conjugate_pairs", "complex values come in conjugate pairs", 8, pairs)
    claims.add("triples.modulus_dev", "all triple traces share the modulus 5^{-3/2}", 0.0, modulus_dev)
    claims.add("triples.cross_sic_invariant", "identical census for all 16 SICs", True, same)

    fid_dev, phase_dev, monotone = 0.0, 0.0, True
    thetas = np.linspace(-math.pi, math.pi, 100, endpoint=False)
    for d in (3, 4, 5):
        f1, f2, f3 = triple_family(thetas, d)
        o12, o23, o31 = (np.sum(a.conj() * b, axis=1) for a, b in ((f1, f2), (f2, f3), (f3, f1)))
        fid_dev = max(fid_dev, np.max(np.abs(np.abs([o12, o23, o31]) ** 2 - 1 / (d + 1))))
        phase = triple_phase(thetas, d)
        phase_dev = max(phase_dev, np.max(np.abs(np.angle(o12 * o23 * o31) - phase)))
        monotone = monotone and bool(np.all(np.diff(phase) > 0))
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
    return {
        "census": [[float(c.real), float(c.imag), int(n)] for c, n in ref],
    }


def run_reconstruct(cfg, claims: Claims):
    from .orbits import enumerate_orbit
    from .reconstruction import (
        phase_operator,
        reconstruct_hw,
        reference_quads,
        reference_signature,
        signature_values,
        signatures,
        uniqueness_check,
    )
    from .regrouping import covariance_group, sic_family
    from .numerics import match_projective, matrix_to_json
    from .weyl_heisenberg import displacement_table

    orbit = enumerate_orbit()
    sic1 = orbit.projectors[:16]
    # states 0-3 of SIC 1 are Z^j rho Z^-j, so they sum to the clock orbit of rho
    w = signatures(sic1, np.arange(4)[None])[0]
    claims.add(
        "reconstruct.signature_closed_form_dev",
        "eigenvalues of the clock-orbit sum match their closed forms",
        0.0,
        float(np.max(np.abs(w - np.array(reference_signature())))),
        tol=1e-10,
    )
    claims.add(
        "reconstruct.signature_sum",
        "the four signature values sum to the dimension",
        4.0,
        float(sum(signature_values())),
        tol=1e-10,
    )

    matching = reference_quads(sic1)
    claims.add(
        "reconstruct.reference_quads",
        "4-subsets of one SIC realizing the signature",
        24,
        len(matching),
    )

    disp = displacement_table(4).reshape(16, 4, 4)
    ops = phase_operator(sic1[matching].sum(axis=1))
    claims.add(
        "reconstruct.quad_operators_in_group",
        "every qualifying 4-subset induces a displacement element",
        24,
        int(np.sum(match_projective(ops, disp) >= 0)),
    )

    # an uncertified row counts as neither group, and reconstruct_hw reads certified rows only
    members, report = sic_family(cfg.tol)
    certified = report.is_sic
    group = np.full(32, -1)  # 0 the displacement group, 1 its conjugate
    if certified.any():
        rec = reconstruct_hw(orbit.projectors[members[certified]])
        group[certified] = covariance_group(rec.elements)
    claims.add(
        "reconstruct.original_family",
        "reconstruction returns the displacement group on SICs 1-16",
        16,
        int(np.count_nonzero(group[:16] == 0)),
    )
    claims.add(
        "reconstruct.regrouped_family",
        "reconstruction returns the conjugate group on SICs 17-32",
        16,
        int(np.count_nonzero(group[16:] == 1)),
    )

    claims.add(
        "reconstruct.uniqueness",
        "each of the 32 SICs is covariant under exactly one order-16 group",
        32,
        int(np.count_nonzero(uniqueness_check(members) & certified)),
    )
    k = np.cumsum(certified) - 1  # the row of rec of each certified SIC; an uncertified one has no generators
    return {
        "generators_sic_%d" % (n + 1): {"z": matrix_to_json(rec.z_gen[k[n]]), "x": matrix_to_json(rec.x_gen[k[n]])}
        if certified[n] else None for n in (0, 16)
    }


class _InputError(Exception):
    """A --input file that cannot be read as 16 states of dimension 4."""


def _read_input_states(path: str) -> np.ndarray:
    """The (16, 4, 4) states of a --input file; _InputError, with a one-line
    reason, when the file is missing, not JSON or not of that form."""
    from .numerics import matrix_from_json

    try:
        with open(path) as fh:
            states = matrix_from_json(json.load(fh)["states"])
    except OSError as exc:
        raise _InputError(exc.strerror or str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise _InputError("not a SIC file (%s: %s)" % (type(exc).__name__, exc)) from None
    if states.shape != (16, 4, 4):
        raise _InputError("expected 16 states of dimension 4, got shape %s" % (states.shape,))
    return states


def run_reconstruct_input(cfg, claims: Claims):
    """Reconstruction on a user-supplied SIC (JSON file of 16 states)."""
    from .numerics import matrix_to_json
    from .reconstruction import reconstruct_hw
    from .regrouping import covariance_group
    from .weyl_heisenberg import verify_sic

    states = _read_input_states(cfg.input_path)
    dev = verify_sic(states, 4, cfg.tol)
    rec = reconstruct_hw(states) if dev.is_sic else None
    claims.add("reconstruct.input_is_sic", "input passes the SIC certificate", True, dev.is_sic)
    if rec is None:  # which SIC condition failed, and by how much; null beyond the float range
        deviations = (dev.max_fidelity_deviation, dev.max_state_deviation, dev.completeness_deviation)
        deviations = [x if math.isfinite(x) else None for x in deviations]
        return {"sic_deviations": dict(zip(("fidelity", "state", "completeness"), deviations)), "tol": cfg.tol}
    verdict = ("displacement", "conjugate-displacement", "other")[covariance_group(rec.elements)]
    claims.add(
        "reconstruct.input_group",
        "reconstructed covariance group identified",
        verdict,
        verdict,
    )
    return {
        "generators": {"z": matrix_to_json(rec.z_gen), "x": matrix_to_json(rec.x_gen)},
        "elements": matrix_to_json(rec.elements),
        "group": verdict,
    }


def run_regroup(cfg, claims: Claims):
    from .clifford import coset, enumerate_projective_clifford, to_operator
    from .numerics import COMMUTATOR_TOL, commutator_phase, match_projective, matrix_to_json
    from .orbits import enumerate_orbit, state_permutations
    from .regrouping import (
        CLIFFORD_GENERATORS,
        EQUIVALENCE_MATRIX,
        X_PRIME_MATRIX,
        X_PRIME_PAIR,
        Z_PRIME_MATRIX,
        Z_PRIME_PAIR,
        covariance_group,
        displacement_coset,
        dprime_covariant,
        dprime_literals_match,
        dprime_pairs,
        equivalence_unitary,
        exhaustive_regroup_scan,
        fidelity_adjacency,
        hw_conjugate_subgroup_census,
        sic_family,
    )
    from .weyl_heisenberg import displacement_table

    orbit = enumerate_orbit()
    members, report = sic_family(cfg.tol)
    indices, certified = members[16:], report.is_sic  # SICs 17-32; a claim reading a row needs it certified
    claims.add("regroup.additional_sics", "new SICs from block matching", 16, int(np.count_nonzero(certified[16:])))

    n_row = exhaustive_regroup_scan(full_scan=False, tol=cfg.tol)
    claims.add("regroup.row_scan_total", "SICs found by the per-row clique scan", 32, n_row)
    if cfg.full_scan:
        n_full = exhaustive_regroup_scan(full_scan=True, tol=cfg.tol)
        claims.add("regroup.full_scan_total", "SICs found scanning all 256 states", 32, n_full)

    cover = np.bincount(members[certified].ravel(), minlength=256)
    claims.add(
        "regroup.double_cover",
        "every state belongs to exactly two of the 32 SICs",
        True,
        bool(np.all(cover == 2)),
    )
    degrees = set(fidelity_adjacency(orbit, range(256)).sum(axis=1).tolist())
    claims.add(
        "regroup.fidelity_graph_regular",
        "fidelity-1/5 graph is regular across the orbit",
        True,
        len(degrees) == 1,
    )

    claims.add(
        "regroup.generators_match_parametrization",
        "written-out generators equal their symplectic parametrization",
        True,
        dprime_literals_match(),
    )
    comm = commutator_phase(Z_PRIME_MATRIX, X_PRIME_MATRIX)
    claims.add(
        "regroup.commutation_projective",
        "clock and shift commute up to a fourth root of unity",
        True,
        bool(min(abs(comm - 1j), abs(comm + 1j)) <= COMMUTATOR_TOL),
    )

    claims.add(
        "regroup.covariance",
        "all 16 new SICs are covariant under the conjugate group",
        True,
        bool(np.all(dprime_covariant(indices) & certified[16:])),
    )

    try:
        u = equivalence_unitary()
    except AssertionError:  # a matrix that is not unitary or moves the fiducial fails the claims that read it
        u = np.zeros((4, 4), dtype=complex)
    disp = displacement_table(4).reshape(16, 4, 4)
    claims.add(
        "regroup.equivalence_conjugates_group",
        "the equivalence unitary maps the displacement group onto its conjugate",
        True,
        covariance_group(u @ disp @ u.conj().T) == 1,
    )

    # a certified original SIC is carried onto a certified new one when the
    # images of all its states are states of that one new SIC; u fixes the
    # fiducial and normalizes the Clifford group, so it permutes the orbit,
    # and a u that does not carries no SIC
    new_sic = np.full(256, -1)
    new_sic[indices] = np.where(certified[16:], np.arange(16), -1)[:, None]
    try:
        image_sic = new_sic[state_permutations(u[None], orbit.projectors)[0]].reshape(16, 16)
        carried = np.all(image_sic == image_sic[:, :1], axis=1) & (image_sic[:, 0] >= 0) & certified[:16]
        mapped = int(np.count_nonzero(carried))
    except ValueError:
        mapped = 0
    claims.add(
        "regroup.equivalence_maps_family",
        "the equivalence unitary carries the original family onto the new one",
        16,
        mapped,
    )

    # u normalizes the Clifford group when it conjugates each generator into it
    mats = enumerate_projective_clifford(4, extended=False).mats
    clifford_gens = np.stack([to_operator(g).matrix for g in CLIFFORD_GENERATORS])
    normalizes = np.all(match_projective(u @ clifford_gens @ u.conj().T, mats) >= 0)
    claims.add(
        "regroup.clifford_index_two",
        "the equivalence unitary extends the Clifford group by exactly one step",
        True,
        bool(match_projective(u @ u, mats) >= 0 and match_projective(u, mats) < 0 and normalizes),
    )

    total, normal, _, normal_sets = hw_conjugate_subgroup_census()
    claims.add("regroup.census_total", "displacement-type subgroups of the Clifford group", 32, total)
    claims.add("regroup.census_normal", "normal displacement-type subgroups", 2, normal)
    dbar = frozenset(displacement_coset(p1, p2) for p1 in range(4) for p2 in range(4))
    dbar_prime = frozenset(map(coset, dprime_pairs()))
    claims.add(
        "regroup.census_normal_identified",
        "the two normal subgroups are the original and conjugate displacement groups",
        True,
        set(normal_sets) == {dbar, dbar_prime},
    )

    return {
        "regrouped_sics": [
            {"label": "sic-%d" % label, "states": matrix_to_json(orbit.projectors[row])}
            for label, row in enumerate(indices, start=17)
        ],
        "matching": [
            [{"sic_label": members[0] // 16 + 1, "members": members} for members in m]
            for m in indices.reshape(16, 4, 4).tolist()
        ],
        "generators": {
            "x": dict(_pair_json(X_PRIME_PAIR), matrix=matrix_to_json(X_PRIME_MATRIX)),
            "z": dict(_pair_json(Z_PRIME_PAIR), matrix=matrix_to_json(Z_PRIME_MATRIX)),
        },
        "equivalence_unitary": matrix_to_json(EQUIVALENCE_MATRIX),
        "census": {"total": total, "normal": normal},
    }


def run_twoqubit(cfg, claims: Claims, basis: str):
    from .numerics import rank1_kets, value_classes
    from .orbits import LABEL_GRID, enumerate_orbit
    from .regrouping import sic_family
    from .two_qubit import (
        CONCURRENCE_GAP,
        concurrence,
        detect_cube,
        gbv,
        match_sign_patterns,
        operator_schmidt_rank,
        partial_transpose_simplex_checks,
        physical_state,
        reduced_purity,
        reduced_state_census,
        sign_pattern_table,
        violating_signs,
    )
    from .weyl_heisenberg import CONSTANTS, displacement

    orbit = enumerate_orbit()
    pre = basis
    states = physical_state(orbit.projectors, basis)  # SIC by SIC, 16 states each

    g = gbv(states)
    claims.add(
        f"twoqubit.{pre}_gbv_norm_dev",
        "pure-state Bloch norm over all 256 fiducials",
        0.0,
        np.max(np.abs(g.norm_sq() - 3.0)),
    )
    row = match_sign_patterns(g, basis).reshape(16, 16)
    matched = row >= 0
    # per state: class id, the eight signs, h1, h2, h3 (meaningless where unmatched)
    columns = sign_pattern_table(basis)[1][row]
    claims.add(
        f"twoqubit.{pre}_pattern_matches",
        "fiducials matching the sign-pattern tables",
        256,
        int(matched.sum()),
    )
    first_eight = np.arange(1, 17)[:, None] <= 8
    claims.add(
        f"twoqubit.{pre}_class_split",
        "SICs 1-8 carry class-1 patterns, SICs 9-16 class-2",
        True,
        bool(np.all(~matched | (first_eight == (columns[..., 0] == 1)))),
    )
    h = columns[..., 9:]
    h_sic = h[np.arange(16), matched.argmax(axis=1)]  # at each SIC's first matched state
    constant = matched.any(axis=1) & np.all(~matched[..., None] | (h == h_sic[:, None]), axis=(1, 2))
    claims.add(
        f"twoqubit.{pre}_sign_constancy",
        "sign functions constant within each SIC",
        True,
        bool(constant.all()),
    )
    # h1 by row of the label grid, (h2, h3) by column
    h_grid = np.empty((16, 3), dtype=int)
    h_grid[np.array(LABEL_GRID) - 1] = np.dstack(
        np.broadcast_arrays([[-1], [1], [1], [-1]], [[1, 1, -1, -1]], [[-1, 1, 1, -1]])
    )
    claims.add(
        f"twoqubit.{pre}_sign_table",
        "sign functions constant along rows and columns of the label grid",
        True,
        bool(constant.all() and np.array_equal(h_sic, h_grid)),
    )

    root = math.sqrt(CONSTANTS.G)
    flat_class = slice(0, 8) if basis == "product" else slice(8, 16)  # SICs 1-8 or 9-16
    split_class = slice(8, 16) if basis == "product" else slice(0, 8)
    # the closed forms sqrt(2/5) and sqrt((2 +- 2 sqrt G)/5) lead the 256
    # concurrences, so classes 0, 1 and 2 are theirs
    forms = [math.sqrt(2 / 5), math.sqrt((2 + 2 * root) / 5), math.sqrt((2 - 2 * root) / 5)]
    # the claims reading the concurrence classes observe None when they cannot split
    equal = split = concurrences = None
    try:
        conc = value_classes(np.concatenate([forms, concurrence(rank1_kets(states))]), CONCURRENCE_GAP)
        ids = conc.classes[3:].reshape(16, 16)
        census = np.count_nonzero(ids[:, :, None] == np.arange(len(conc.counts)), axis=1)  # (SIC, class) counts
        equal = int(np.count_nonzero(ids[flat_class] == 0))
        split = bool(np.all(census[split_class, 1:3] == 8))
        # each SIC's classes in order of first appearance, keyed by their centers to 9 decimals
        concurrences = {
            str(n): {str(float("%.9f" % conc.centers[c])): int(census[n - 1, c]) for c in dict.fromkeys(sic)}
            for n, sic in enumerate(ids.tolist(), start=1)
        }
    except ValueError:
        pass
    claims.add(f"twoqubit.{pre}_equal_concurrence_count", "states in the equal-concurrence class", 128, equal)
    anchor = "other-class SICs split 8 + 8 between the two concurrence values"
    claims.add(f"twoqubit.{pre}_split_concurrence", anchor, True, split)

    members, report = sic_family(cfg.tol)
    purity = reduced_purity(orbit.projectors[members].reshape(512, 4, 4), basis).reshape(32, 16).mean(axis=1)
    claims.add(
        f"twoqubit.{pre}_avg_purity_dev",
        "average reduced purity of every SIC, original and regrouped",
        0.0,
        np.max(np.abs(purity - 0.8)) if report.is_sic.all() else None,  # None: a row is no certified SIC
    )

    if basis == "product":
        # None for a SIC whose reduced-state census cannot split; the claims reading it observe None
        sics = orbit.projectors.reshape(16, 16, 4, 4)
        reps = list(zip(*(reduced_state_census(sics, q, basis) for q in (0, 1))))
        cube, edge = zip(*(detect_cube(second.bloch_points) if second else (None, None) for _, second in reps))
        multiplicity = all(r and len(r.bloch_points) == 8 and set(r.multiplicities) == {2} for rs in reps for r in rs)
        cube_class1, cube_class2 = (None if None in c else sum(c) for c in (cube[:8], cube[8:]))
        edges = [abs(e - 2 / math.sqrt(5)) for e in edge[:8] if e is not None]
        edge_dev = None if None in cube[:8] else max(edges, default=0.0)
        anchor = "eight reduced states per qubit, each shared by two fiducials"
        claims.add("twoqubit.product_reduced_multiplicity", anchor, True, multiplicity)
        anchor = "second-qubit Bloch points of class-1 SICs form a cube"
        claims.add("twoqubit.product_cube_class1", anchor, 8, cube_class1)
        claims.add("twoqubit.product_cube_class2", "class-2 SICs do not produce the cube", 0, cube_class2)
        claims.add("twoqubit.product_cube_edge_dev", "cube edge length 2/sqrt(5)", 0.0, edge_dev)
        certified = int(np.sum(partial_transpose_simplex_checks(violating_signs(), orbit, cfg.tol)))
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
    lab, k = np.indices((16, 16))
    rows = np.column_stack([lab.ravel() + 1, k.ravel(), columns.reshape(256, 12)[:, 1:]])
    return {
        "basis": basis,
        "sign_patterns": rows[matched.ravel()].tolist(),
        "concurrence": concurrences,
    }


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
        fields = (c["claim_id"], c["anchor"], json.dumps(c["expected"]), json.dumps(c["observed"]))
        lines.append("\t".join(fields + (str(c["pass"]).lower(),)))
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


@functools.lru_cache(maxsize=1)
def _make_parser() -> argparse.ArgumentParser:
    """The sic4 parser, built on the first main() call and reused after it:
    parse_args leaves a parser unchanged."""
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
        p.set_defaults(basis=None, full_scan=False, input_path=None)  # each option below overrides its own
        if name == "twoqubit":
            p.add_argument("--basis", choices=("product", "bell"), default="product")
        if name in ("regroup", "all"):
            p.add_argument("--full-scan", action="store_true", dest="full_scan")
        if name == "reconstruct":
            p.add_argument("--input", type=str, default=None, dest="input_path")
    return parser


def main(argv=None) -> int:
    cfg = _make_parser().parse_args(argv)
    claims = Claims(cfg.tol)
    t0 = time.monotonic()
    name = cfg.subcommand
    # built per call, so a runner replaced on the module is the one that runs
    sections = {
        "orbit": run_orbit,
        "symmetry": run_symmetry,
        "triples": run_triples,
        "reconstruct": run_reconstruct,
        "regroup": run_regroup,
        "twoqubit_product": functools.partial(run_twoqubit, basis="product"),
        "twoqubit_bell": functools.partial(run_twoqubit, basis="bell"),
    }
    if cfg.input_path:  # only reconstruct takes --input
        sections["reconstruct"] = run_reconstruct_input
    if name != "all":
        key = "twoqubit_" + cfg.basis if name == "twoqubit" else name
        sections = {key: sections[key]}
    payload: dict = {}
    for section, run in sections.items():
        try:
            result = run(cfg, claims)
        except _InputError as exc:
            print("sic4: error: --input %s: %s" % (cfg.input_path, exc), file=sys.stderr)
            return 2
        except Exception as exc:  # a raising section becomes a FAIL row; the others still run
            import logging  # only a raising section needs it

            logging.getLogger(__name__).debug("section %s raised", section, exc_info=True)
            error = "%s: %s" % (type(exc).__name__, exc)
            claims.add(section + ".error", "the section runs to completion", None, error)
        else:
            if name != "all":
                payload = result

    passed = sum(c["pass"] for c in claims.rows)
    report = {
        "subcommand": name,
        # the settings of this run; basis only where it was chosen
        "config": {k: getattr(cfg, k) for k in ("tol", "format", "basis", "full_scan") if getattr(cfg, k) is not None},
        "claims": claims.rows,
        "passed": passed,
        "failed": len(claims.rows) - passed,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
    }
    if cfg.format == "json":
        report["payload"] = payload
        # no indent, so the C encoder runs; the report is a fresh tree, so
        # the encoder's cycle check would only cost time
        text = json.dumps(report, check_circular=False)
    elif cfg.format == "tsv":
        report["payload"] = payload
        text = _render_tsv(report)
    else:
        text = _render_text(report)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("sic4: error: --out %s: %s" % (cfg.out, exc.strerror or exc), file=sys.stderr)
            return 2
        print("report written to %s (%d/%d passed)" % (cfg.out, passed, len(claims.rows)))
    else:
        print(text)
    return 0 if passed == len(claims.rows) else 1


if __name__ == "__main__":
    sys.exit(main())
