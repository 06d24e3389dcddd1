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
import os
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


def run_symmetry(cfg, claims: Claims):
    from .orbits import label_action, verify_symmetry_group_in_clifford

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

    perms, orders, rows_kept, row_group, row_fixing, columns = label_action(extended=False)
    claims.add("symmetry.label_perm_count", "distinct label permutations, unitary", 48, len(perms))
    anchor = "element orders in the quotient symmetry group"
    claims.add("symmetry.order_census", anchor, {1: 1, 2: 7, 3: 8, 4: 24, 6: 8}, orders)
    claims.add("symmetry.row_partition_preserved", "label rows map onto label rows", True, rows_kept)
    claims.add("symmetry.row_image_order", "induced group on the four rows", 4, row_group)
    claims.add("symmetry.row_preserving_order", "subgroup acting trivially on rows", 12, row_fixing)
    anchor = "row-preserving elements permute columns evenly, same way in every row"
    claims.add("symmetry.row_preserving_column_action", anchor, True, columns)

    ext, _, _, ext_row_group, _, _ = label_action(extended=True)
    claims.add("symmetry.label_perm_count_extended", "distinct label permutations, extended", 96, len(ext))
    anchor = "induced row group under the extended Clifford action"
    claims.add("symmetry.row_image_order_extended", anchor, 8, ext_row_group)
    return {"label_permutations": (perms + 1).tolist()}


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
    return {
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
    return {k: None if g is None else {"z": matrix_to_json(g[0]), "x": matrix_to_json(g[1])} for k, g in pairs.items()}


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
    from .clifford import coset
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
        covariance_group,
        displacement_coset,
        double_cover,
        dprime_literals_match,
        dprime_pairs,
        dprime_permutes,
        equivalence_unitary,
        exhaustive_regroup_scan,
        fidelity_graph,
        hw_conjugate_subgroup_census,
        primitive_commutation,
        sic_family,
    )
    from .weyl_heisenberg import displacement_table

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
    anchor = "the equivalence unitary carries the original family onto the new one"
    claims.add("regroup.equivalence_maps_family", anchor, 16, carried_sics(u, cfg.tol))
    anchor = "the equivalence unitary extends the Clifford group by exactly one step"
    claims.add("regroup.clifford_index_two", anchor, True, clifford_index_two(u))

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
    return {"basis": basis, "sign_patterns": sign_rows, "concurrence": concurrences}


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
        text = "report written to %s (%d/%d passed)" % (cfg.out, passed, len(claims.rows))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader went away: send stdout to devnull, so that the flush at
        # interpreter exit cannot raise again, and end as Python's documented
        # idiom does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if passed == len(claims.rows) else 1


if __name__ == "__main__":
    sys.exit(main())
