"""Verification front end.

Each subcommand replays one slice of the construction and emits a report:
a list of claims with expected and observed values, a pass flag per claim,
and the run configuration.  Exit status 0 means every claim passed, 1 means
at least one failed, 2 means the invocation itself was invalid.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import re
import sys
import time
from types import SimpleNamespace

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
# each adds its claims and returns a function building its payload, which
# main calls only for a report that prints it


def run_orbit(cfg, claims: Claims):
    from .clifford import enumerate_projective_clifford, to_operator
    from .numerics import proj_equal, projectively_distinct
    from .orbits import (
        FIDUCIAL_STABILIZER,
        STABILIZER_CYCLE,
        STABILIZER_MATRIX,
        STABILIZER_ORBIT_SETS,
        conjugation_cycle,
        enumerate_orbit,
        orbit_certificate,
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
        int(np.count_nonzero(stab < 768)),  # the unitary rows come first
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
    return lambda: {
        "stabilizer_generator": _pair_json(FIDUCIAL_STABILIZER),
        "orbit_partition": [sorted(map(list, s)) for s in STABILIZER_ORBIT_SETS],
    }


def run_symmetry(cfg, claims: Claims):
    from .orbits import label_action, label_census, verify_symmetry_group_in_clifford

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

    perms, rows_kept, row_group = label_action(extended=False)
    orders, row_fixing, columns = label_census(perms)
    claims.add("symmetry.label_perm_count", "distinct label permutations, unitary", 48, len(perms))
    anchor = "element orders in the quotient symmetry group"
    claims.add("symmetry.order_census", anchor, {1: 1, 2: 7, 3: 8, 4: 24, 6: 8}, orders)
    claims.add("symmetry.row_partition_preserved", "label rows map onto label rows", True, rows_kept)
    claims.add("symmetry.row_image_order", "induced group on the four rows", 4, row_group)
    claims.add("symmetry.row_preserving_order", "subgroup acting trivially on rows", 12, row_fixing)
    anchor = "row-preserving elements permute columns evenly, same way in every row"
    claims.add("symmetry.row_preserving_column_action", anchor, True, columns)

    ext, _, ext_row_group = label_action(extended=True)
    claims.add("symmetry.label_perm_count_extended", "distinct label permutations, extended", 96, len(ext))
    anchor = "induced row group under the extended Clifford action"
    claims.add("symmetry.row_image_order_extended", anchor, 8, ext_row_group)
    return lambda: {"label_permutations": (perms + 1).tolist()}


# multiplicities of the 17 trace clusters, sorted by (re, im) of the center
_CENSUS_MULTIPLICITIES = (144, 144, 288, 288, 288, 288, 96, 96, 288, 288, 144, 144, 96, 96, 288, 288, 96)


def run_triples(cfg, claims: Claims):
    from .orbits import triple_census_report, triple_family_deviations

    # the claims reading SIC 1's census observe None when it cannot split
    census, counts, real, pairs, modulus_dev, same = triple_census_report(cfg.tol)
    claims.add("triples.cluster_count", "distinct triple-trace values in one SIC", 17, len(census) or None)
    anchor = "cluster sizes over the 3360 ordered triples"
    claims.add("triples.multiplicities", anchor, _CENSUS_MULTIPLICITIES, counts)
    claims.add("triples.real_clusters", "real triple-trace values", 1, real)
    claims.add("triples.conjugate_pairs", "complex values come in conjugate pairs", 8, pairs)
    claims.add("triples.modulus_dev", "all triple traces share the modulus 5^{-3/2}", 0.0, modulus_dev)
    claims.add("triples.cross_sic_invariant", "identical census for all 16 SICs", True, same)

    fid_dev, phase_dev, monotone = triple_family_deviations()
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
    return lambda: {
        "census": [[float(c.real), float(c.imag), int(n)] for c, n in census],
    }


def run_reconstruct(cfg, claims: Claims):
    from .orbits import enumerate_orbit
    from .reconstruction import phase_operator, reference_quads, reference_signature, signature_values, signatures
    from .numerics import match_projective, matrix_to_json
    from .regrouping import reconstruct_family
    from .weyl_heisenberg import displacement_table

    sic1 = enumerate_orbit().projectors[:16]
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

    # an uncertified row counts as neither group, uniquely covariant under none, and has no generators
    group, unique, generators = reconstruct_family(cfg.tol)
    anchor = "reconstruction returns the displacement group on SICs 1-16"
    claims.add("reconstruct.original_family", anchor, 16, group[:16].count(0))
    anchor = "reconstruction returns the conjugate group on SICs 17-32"
    claims.add("reconstruct.regrouped_family", anchor, 16, group[16:].count(1))
    anchor = "each of the 32 SICs is covariant under exactly one order-16 group"
    claims.add("reconstruct.uniqueness", anchor, 32, unique.count(True))
    pairs = {"generators_sic_%d" % (n + 1): generators[n] for n in (0, 16)}  # None: an uncertified SIC
    return lambda: {k: g and {"z": matrix_to_json(g[0]), "x": matrix_to_json(g[1])} for k, g in pairs.items()}


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
    # ValueError covers JSONDecodeError; RecursionError a file nested too deep to decode
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
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
    claims.add("reconstruct.input_is_sic", "input passes the SIC certificate", True, dev.is_sic)
    if not dev.is_sic:  # which SIC condition failed, and by how much; null beyond the float range
        deviations = (dev.max_fidelity_deviation, dev.max_state_deviation, dev.completeness_deviation)
        deviations = [x if math.isfinite(x) else None for x in deviations]
        return lambda: {"sic_deviations": dict(zip(("fidelity", "state", "completeness"), deviations)), "tol": cfg.tol}
    groups = ("displacement", "conjugate-displacement", "other")
    anchor = "reconstructed covariance group identified"
    try:
        rec = reconstruct_hw(states)
    except ValueError as exc:  # certified at --tol, yet no covariance group rebuilds from the states
        claims.add("reconstruct.input_group", anchor, groups, None)
        reason = "%s: %s" % (type(exc).__name__, exc)  # exc is unbound once the except clause ends
        return lambda: {"group": None, "reason": reason}
    verdict = groups[covariance_group(rec.elements)]
    claims.add("reconstruct.input_group", anchor, verdict, verdict)
    return lambda: {
        "generators": {"z": matrix_to_json(rec.z_gen), "x": matrix_to_json(rec.x_gen)},
        "elements": matrix_to_json(rec.elements),
        "group": verdict,
    }


def run_regroup(cfg, claims: Claims):
    from .numerics import matrix_to_json
    from .orbits import enumerate_orbit
    from .regrouping import (
        EQUIVALENCE_MATRIX,
        X_PRIME_MATRIX,
        X_PRIME_PAIR,
        Z_PRIME_MATRIX,
        Z_PRIME_PAIR,
        carried_sics,
        clifford_index_two,
        conjugates_onto_dprime,
        displacement_group_rows,
        double_cover,
        dprime_literals_match,
        dprime_permutes,
        equivalence_unitary,
        exhaustive_regroup_scan,
        fidelity_graph,
        hw_conjugate_subgroup_census,
        primitive_commutation,
        sic_family,
    )

    orbit = enumerate_orbit()
    members, report = sic_family(cfg.tol)
    indices, certified = members[16:], report.is_sic[16:]  # SICs 17-32; a claim reading a row needs it certified
    anchor = "new SICs as the orbits of the conjugate displacement group"
    claims.add("regroup.additional_sics", anchor, 16, int(np.count_nonzero(certified)))

    n_row = exhaustive_regroup_scan(full_scan=False, tol=cfg.tol)
    claims.add("regroup.row_scan_total", "SICs found by the per-row clique scan", 32, n_row)
    if cfg.full_scan:
        n_full = exhaustive_regroup_scan(full_scan=True, tol=cfg.tol)
        claims.add("regroup.full_scan_total", "SICs found scanning all 256 states", 32, n_full)

    anchor = "every state belongs to exactly two of the 32 SICs"
    claims.add("regroup.double_cover", anchor, True, double_cover(cfg.tol))
    degrees = set(fidelity_graph().sum(axis=1).tolist())
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
    commute = bool(primitive_commutation(Z_PRIME_MATRIX, X_PRIME_MATRIX))
    claims.add("regroup.commutation_projective", "clock and shift commute up to a fourth root of unity", True, commute)
    # the literal group permutes the float states of each new SIC, all certified
    covariant = bool(certified.all() and dprime_permutes(orbit.projectors[indices]).all())
    claims.add("regroup.covariance", "all 16 new SICs are covariant under the conjugate group", True, covariant)

    _, perm = equivalence_unitary()  # u's orbit permutation, read once, decides the three claims on u
    claims.add(
        "regroup.equivalence_conjugates_group",
        "the equivalence unitary maps the displacement group onto its conjugate",
        True,
        conjugates_onto_dprime(perm),
    )
    anchor = "the equivalence unitary carries the original family onto the new one"
    claims.add("regroup.equivalence_maps_family", anchor, 16, carried_sics(perm, cfg.tol))
    anchor = "the equivalence unitary extends the Clifford group by exactly one step"
    claims.add("regroup.clifford_index_two", anchor, True, clifford_index_two(perm))

    total, normal, normal_rows = hw_conjugate_subgroup_census()
    claims.add("regroup.census_total", "displacement-type subgroups of the Clifford group", 32, total)
    claims.add("regroup.census_normal", "normal displacement-type subgroups", 2, normal)
    claims.add(
        "regroup.census_normal_identified",
        "the two normal subgroups are the original and conjugate displacement groups",
        True,
        set(map(tuple, normal_rows.tolist())) == set(map(tuple, displacement_group_rows().tolist())),
    )

    return lambda: {
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
    from .orbits import enumerate_orbit
    from .regrouping import sic_family
    from .two_qubit import (
        concurrence_classes,
        cube_census,
        gbv,
        operator_schmidt_rank,
        partial_transpose_simplex_checks,
        physical_state,
        purity_dev,
        sign_census,
        violating_signs,
    )
    from .weyl_heisenberg import displacement

    orbit = enumerate_orbit()
    pre = basis
    states = physical_state(orbit.projectors, basis)  # SIC by SIC, 16 states each
    g = gbv(states)  # the basis's one Pauli expansion; every Bloch vector below is read off it
    claims.add(
        f"twoqubit.{pre}_gbv_norm_dev",
        "pure-state Bloch norm over all 256 fiducials",
        0.0,
        np.max(np.abs(g.norm_sq() - 3.0)),
    )
    matches, class_split, constant, table, sign_rows = sign_census(g, basis)
    claims.add(f"twoqubit.{pre}_pattern_matches", "fiducials matching the sign-pattern tables", 256, matches)
    anchor = "SICs 1-8 carry class-1 patterns, SICs 9-16 class-2"
    claims.add(f"twoqubit.{pre}_class_split", anchor, True, class_split)
    claims.add(f"twoqubit.{pre}_sign_constancy", "sign functions constant within each SIC", True, constant)
    anchor = "sign functions constant along rows and columns of the label grid"
    claims.add(f"twoqubit.{pre}_sign_table", anchor, True, table)

    equal, split, concurrences = concurrence_classes(states, basis)  # None when they cannot split
    claims.add(f"twoqubit.{pre}_equal_concurrence_count", "states in the equal-concurrence class", 128, equal)
    anchor = "other-class SICs split 8 + 8 between the two concurrence values"
    claims.add(f"twoqubit.{pre}_split_concurrence", anchor, True, split)

    members, report = sic_family(cfg.tol)
    claims.add(
        f"twoqubit.{pre}_avg_purity_dev",
        "average reduced purity of every SIC, original and regrouped",
        0.0,
        purity_dev(g.s, members) if report.is_sic.all() else None,  # None: a row is no certified SIC
    )

    if basis == "product":
        # None for a half holding a SIC whose reduced-state census cannot split
        multiplicity, cube_class1, cube_class2, edge_dev = cube_census(g)
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
    return lambda: {"basis": basis, "sign_patterns": sign_rows, "concurrence": concurrences}


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
    slowest = max(report["timings_ms"].items(), key=lambda item: item[1])
    total = (report["passed"], report["passed"] + report["failed"], report["runtime_ms"])
    lines.append("%d/%d claims passed in %d ms; slowest section %s, %.1f ms" % (total + slowest))
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
    """The value of --tol: a finite positive float, else ValueError."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("expected a finite positive number, got %r" % text)
    return tol


# each parser's options: option -> (dest, reading of its value: a function,
# the tuple of choices, or None for a flag); dest None prints the usage
_TOP = {"-h": (None, None), "--help": (None, None)}
_COMMON = {**_TOP, "--tol": ("tol", _tolerance), "--format": ("format", ("json", "tsv", "text")), "--out": ("out", str)}
_OPTIONS = {name: dict(_COMMON) for name in _SUBCOMMANDS}
_OPTIONS["twoqubit"]["--basis"] = ("basis", ("product", "bell"))
_OPTIONS["regroup"]["--full-scan"] = _OPTIONS["all"]["--full-scan"] = ("full_scan", None)
_OPTIONS["reconstruct"]["--input"] = ("input_path", str)


def _fail(prog: str, message: str):
    print("usage: %s [-h] ...\n%s: error: %s" % (prog, prog, message), file=sys.stderr)
    raise SystemExit(2)


def _kind(arg: str, options: dict, prog: str):
    """How an argument before any -- reads: None for a value, else (option,
    the value it carries or None), option None when it names none.  A long
    option may be cut to a unique prefix and carry its value after =; -h,
    the one short option, carries the letters after it."""
    if not arg.startswith("-") or arg == "-":
        return None
    head, eq, tail = arg.partition("=")
    if head in options:
        return head, tail if eq else None
    if arg[1] == "-":
        found = [(option, tail if eq else None) for option in options if option.startswith(head)]
    else:
        found = [(arg[:2], arg[2:])] if arg[:2] in options else []
    if len(found) > 1:
        _fail(prog, "ambiguous option: %s could match %s" % (arg, ", ".join(o for o, _ in found)))
    if found:
        return found[0]
    # an argument with a space, or one that reads as a negative number, is a value
    return None if " " in arg or re.match(r"^-\d+$|^-\d*\.\d+$", arg) else (None, None)


def _take(args: list, options: dict, prog: str, cfg) -> tuple:
    """Read the options of args into cfg, in order: (the arguments that are
    neither an option nor an option's value, the index where reading
    stopped).  sic4's own options stop at the first value, the subcommand."""
    cut = args.index("--") if "--" in args else len(args)
    kinds = [_kind(arg, options, prog) for arg in args[:cut]] + ["--"] + [None] * (len(args) - cut - 1)
    extras, i = [], 0
    while i < len(args):
        kind, i = kinds[i], i + 1
        if not isinstance(kind, tuple) and options is _TOP:
            return extras, i - 1
        if not isinstance(kind, tuple) or kind[0] is None:
            extras.append(args[i - 1])
            continue
        option, value = kind
        dest, read = options[option]
        if read is None:  # the help or a flag: no value, though -h may repeat, as in -hh
            if value is not None and (option != "-h" or not value or value.strip("h")):
                _fail(prog, "argument %s: ignored explicit argument %r" % (option, value))
            if dest is None:
                shown = ["[%s%s]" % (o, " VALUE" * bool(r)) for o, (d, r) in options.items() if d]
                print(" ".join(["usage:", prog, "[-h]"] + (shown or ["{%s} ..." % ",".join(_SUBCOMMANDS)])))
                raise SystemExit(0)
            setattr(cfg, dest, True)
            continue
        if value is None:  # the next argument, which must be a value
            if kinds[i] is not None:
                _fail(prog, "argument %s: expected one argument" % option)
            value, i = args[i], i + 1
        if isinstance(read, tuple) and value not in read:
            _fail(prog, "argument %s: invalid choice: %r (choose from %s)" % (option, value, ", ".join(read)))
        try:
            setattr(cfg, dest, value if isinstance(read, tuple) else read(value))
        except ValueError as exc:
            _fail(prog, "argument %s: %s" % (option, exc))
    return extras, len(args)


def _parse_args(argv) -> SimpleNamespace:
    """The run configuration of argv.  Options follow their subcommand in
    any order, a repeated one keeps its last value, and a long option may
    be cut to a unique prefix or written --option=value.  An invalid argv
    exits 2 after a usage line on stderr; -h or --help exits 0 after the
    usage on stdout."""
    args = list(argv)
    cfg = SimpleNamespace(
        subcommand=None, tol=DEFAULT_TOL, format="text", out=None, basis=None, full_scan=False, input_path=None
    )
    extras, at = _take(args, _TOP, "sic4", cfg)
    if at == len(args) or args[at] not in _OPTIONS:  # also a -- before the subcommand
        _fail("sic4", "expected a subcommand, one of %s" % ", ".join(_SUBCOMMANDS))
    cfg.subcommand = name = args[at]
    cfg.basis = "product" if name == "twoqubit" else None
    extras += _take(args[at + 1 :], _OPTIONS[name], "sic4 " + name, cfg)[0]
    if extras:
        _fail("sic4", "unrecognized arguments: %s" % " ".join(extras))
    return cfg


def main(argv=None) -> int:
    if argv is None:  # run as the command, so the process ends after this run: no collection pays off
        gc.disable()
    cfg = _parse_args(sys.argv[1:] if argv is None else argv)
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
    payload, timings = {}, {}  # timings: the milliseconds of each section that ran
    for section, run in sections.items():
        start = time.monotonic()
        try:
            build = run(cfg, claims)
            if name != "all" and cfg.format != "text":  # only a json or tsv report of one section prints it
                payload = build()
        except _InputError as exc:
            print("sic4: error: --input %s: %s" % (cfg.input_path, exc), file=sys.stderr)
            return 2
        except Exception as exc:  # a raising section becomes a FAIL row; the others still run
            import logging  # only a raising section needs it

            logging.getLogger(__name__).debug("section %s raised", section, exc_info=True)
            error = "%s: %s" % (type(exc).__name__, exc)
            claims.add(section + ".error", "the section runs to completion", None, error)
        timings[section] = round((time.monotonic() - start) * 1000, 3)

    passed = sum(c["pass"] for c in claims.rows)
    report = {
        "subcommand": name,
        # the settings of this run; basis only where it was chosen
        "config": {k: getattr(cfg, k) for k in ("tol", "format", "basis", "full_scan") if getattr(cfg, k) is not None},
        "claims": claims.rows,
        "passed": passed,
        "failed": len(claims.rows) - passed,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
        "timings_ms": timings,
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
        text = "report written to %s (%d/%d passed)" % (cfg.out, passed, len(claims.rows))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader went away: send stdout to devnull, so that the flush at
        # interpreter exit cannot raise again, and end as Python's documented
        # idiom does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if argv is None:
        # let the collection of interpreter shutdown skip the heap that
        # numpy's and sic4's imports built
        gc.freeze()
    return 0 if passed == len(claims.rows) else 1


if __name__ == "__main__":
    sys.exit(main())
