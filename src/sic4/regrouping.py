"""Reassembling the 256 fiducials into additional SIC-POVMs.

Conjugation by the abelian group {I, X^2, Z^2, X^2 Z^2} splits every SIC
of the family into four 4-state blocks.  Matching blocks across the four
SICs of one row of the label grid at cross-fidelity 1/5 yields 16 new
SICs, and a clique scan over the fidelity graph certifies that no other
regrouping exists.  The new family is covariant under a conjugate copy
of the displacement group, sitting inside the same Clifford group.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .clifford import (
    SymplecticPair,
    _coset_names,
    coset,
    enumerate_projective_clifford,
    to_operator,
)
from .numerics import COMMUTATOR_TOL, DEFAULT_TOL, commutator_phase, is_unitary, proj_equal, projective_set_equal
from .orbits import LABEL_GRID, FiducialOrbit, element_product, enumerate_orbit, fiducial_projector
from .orbits import first_distinct_rows, normal_subgroups, orbit_action, orbit_certificate
from .weyl_heisenberg import SicReport, displacement_table, shift_clock_products, verify_sic

# two orbit states are fidelity-1/5 neighbours when |tr(a b) - 1/5| is at
# most FIDELITY_TOL; every such pair is within 6.7e-16 of 1/5 and the
# nearest other fidelity, 0.20457, is 4.57e-3 away
FIDELITY_TOL = 1e-9

# translations implementing conjugation by I, X^2, Z^2, X^2 Z^2
_H_SHIFTS = ((0, 0), (2, 0), (0, 2), (2, 2))

# _BLOCKS[n - 1, b] holds the sorted orbit indices of block b of SIC n: the
# states (p1, p2) + _H_SHIFTS for p1, p2 in {0, 1}, where state (n, p) has
# orbit index 16 (n - 1) + 4 p1 + p2 (no shifted index passes 3)
_BLOCKS = np.sort(
    16 * np.arange(16)[:, None, None]
    + np.array([0, 1, 4, 5])[:, None]
    + np.array([4 * a + b for a, b in _H_SHIFTS]),
    axis=-1,
)


def regrouped_family(orbit: FiducialOrbit | None = None) -> np.ndarray:
    """The 16 regrouped SICs 17..32 of an orbit (the enumerated one by
    default) as a read-only int (16, 4, 4) array: matching[i, j] holds the
    sorted orbit indices of the block that SIC 17 + i takes from the j-th
    SIC of its grid row, so matching.reshape(16, 16) lists its states.
    Each block of a row's first SIC has exactly one block in each other SIC
    of the row at uniform cross-fidelity 1/5; anything else fails fast."""
    if orbit is None:
        orbit = enumerate_orbit()
    matching = []
    for row in LABEL_GRID:
        blocks = _BLOCKS[np.subtract(row, 1)]
        adj = fidelity_adjacency(orbit, blocks.ravel()).reshape(4, 4, 4, 4, 4, 4)
        # partners[s, j, b]: every state of block b of SIC row[j + 1] is a
        # fidelity-1/5 neighbour of every state of seed block s
        partners = adj[0, :, :, 1:].all(axis=(1, 4))
        counts = partners.sum(axis=2)
        bad = np.argwhere(counts != 1)
        if len(bad):
            s, j = bad[0]
            raise ValueError(
                "block %r has %d fidelity-1/5 partners in SIC %d, expected 1"
                % (tuple(blocks[0, s].tolist()), counts[s, j], row[j + 1])
            )
        choice = np.concatenate([np.arange(4)[:, None], partners.argmax(axis=2)], axis=1)
        matching.append(blocks[np.arange(4), choice])
    matching = np.concatenate(matching)
    matching.flags.writeable = False
    return matching


@lru_cache(maxsize=None)
def sic_family(tol: float = DEFAULT_TOL) -> tuple:
    """(members, report) of the 32 SICs of the enumerated orbit.  members is
    a read-only int (32, 16) array of sorted orbit indices, row n - 1 the
    states of SIC n: np.arange(256).reshape(16, 16), then
    regrouped_family().reshape(16, 16).  report, with read-only (32,)
    fields, joins orbit_certificate(tol) to one stacked verify_sic of the
    regrouped rows at tol; ValueError when a regrouped row fails it."""
    orbit = enumerate_orbit()
    regrouped = regrouped_family(orbit).reshape(16, 16)
    orbit_half = orbit_certificate(tol)
    regrouped_half = verify_sic(orbit.projectors[regrouped], 4, tol)
    if not regrouped_half.is_sic.all():
        raise ValueError("assembled 16-state set fails the SIC certificate")
    members = np.concatenate([np.arange(256).reshape(16, 16), regrouped])
    report = SicReport(*map(np.concatenate, zip(vars(orbit_half).values(), vars(regrouped_half).values())))
    for a in (members, *vars(report).values()):
        a.flags.writeable = False
    return members, report


def fidelity_adjacency(orbit: FiducialOrbit, vertices) -> np.ndarray:
    """Boolean adjacency of the fidelity-1/5 graph on the given states,
    decided on the upper triangle of the overlap matrix and mirrored."""
    flat = orbit.projectors[list(vertices)].reshape(len(vertices), 16)
    fid = np.real(flat.conj() @ flat.T)
    upper = np.triu(np.abs(fid - 0.2) <= FIDELITY_TOL, 1)
    return upper | upper.T


def _bits(mask: int):  # indices of the set bits, lowest first
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cliques(adj: np.ndarray, k: int) -> list:
    """The maximal cliques of at least k vertices, as index lists: Bron-Kerbosch
    with pivoting (Bron & Kerbosch 1973) on int-bitmask neighbour sets.  The
    pivot maximizes |P & N(u)|; a branch with |R| + |P| < k is cut, as none of
    its cliques can reach k vertices."""
    rows = np.packbits(adj, axis=1, bitorder="little")
    nbr = [int.from_bytes(row.tobytes(), "little") for row in rows]
    found = []

    def expand(r, p, x):
        if len(r) + p.bit_count() < k:
            return
        if not p | x:
            found.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: (p & nbr[u]).bit_count())
        for v in _bits(p & ~nbr[pivot]):
            expand(r + [v], p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand([], (1 << len(adj)) - 1, 0)
    return found


def exhaustive_regroup_scan(full_scan: bool = False, tol: float = DEFAULT_TOL) -> int:
    """Count the 16-state SICs in the enumerated orbit's fidelity-1/5 graph.

    Default mode scans each row's 64 states separately (regrouping cannot
    mix rows); full_scan runs the clique search over all 256 vertices.
    Every size-16 clique found must certify at tol: a row of sic_family by
    its certificate, any other clique by its own verify_sic.
    """
    orbit = enumerate_orbit()
    members, report = sic_family(tol)
    certified = dict(zip(map(tuple, members.tolist()), report.is_sic.tolist()))
    if full_scan:
        vertex_sets = [np.arange(256)]
    else:
        vertex_sets = [_BLOCKS[np.subtract(row, 1)].ravel() for row in LABEL_GRID]
    found = set()
    for vertices in vertex_sets:
        for clique in _cliques(fidelity_adjacency(orbit, vertices), 16):
            if len(clique) > 16:
                raise AssertionError("clique larger than a SIC cannot exist")
            key = tuple(np.sort(vertices[clique]).tolist())
            if key in found:
                continue
            if key not in certified:
                certified[key] = verify_sic(orbit.projectors[list(key)], 4, tol).is_sic
            if not certified[key]:
                raise AssertionError("16-clique fails the SIC certificate")
            found.add(key)
    return len(found)


X_PRIME_PAIR = SymplecticPair(F=(3, 0, 2, 3), chi=(0, 1), d=4)
Z_PRIME_PAIR = SymplecticPair(F=(3, 2, 0, 3), chi=(3, 0), d=4)

X_PRIME_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0]], dtype=complex
)
Z_PRIME_MATRIX = 0.5 * np.array(
    [
        [0, 1 + 1j, 0, -1 + 1j],
        [1 + 1j, 0, -1 + 1j, 0],
        [0, -1 + 1j, 0, 1 + 1j],
        [-1 + 1j, 0, 1 + 1j, 0],
    ],
    dtype=complex,
)

EQUIVALENCE_MATRIX = 0.5 * np.array(
    [
        [-1j, -1, -1j, -1],
        [1, -1j, -1, 1j],
        [-1j, 1, -1j, 1],
        [1, 1j, -1, -1j],
    ],
    dtype=complex,
)


@lru_cache(maxsize=1)
def dprime_literals_match() -> bool:
    """Whether the literal D' generators equal their symplectic-pair
    parametrization projectively; decided once per process."""
    pairs = ((X_PRIME_PAIR, X_PRIME_MATRIX), (Z_PRIME_PAIR, Z_PRIME_MATRIX))
    return all(proj_equal(to_operator(pair).matrix, literal) for pair, literal in pairs)


def dprime_generators() -> tuple:
    """Shift/clock generators of the regrouped family's covariance group.

    Returned as fresh copies of the literal matrices, which are checked
    projectively against their symplectic-pair parametrization on the
    first call.
    """
    if not dprime_literals_match():
        raise AssertionError("parametrized operator disagrees with its literal matrix")
    return X_PRIME_MATRIX.copy(), Z_PRIME_MATRIX.copy()


@lru_cache(maxsize=1)
def dprime_elements() -> np.ndarray:
    """The 16 projective elements of the conjugate displacement group, read-only."""
    elements = shift_clock_products(*dprime_generators())
    elements.flags.writeable = False
    return elements


def covariance_group(elements):
    """Which order-16 group a (16, 4, 4) stack of unitaries is, as a set up
    to phases: 0 for the displacement group, 1 for its conjugate D', -1 for
    neither; for an (S, 16, 4, 4) stack, the (S,) array of them.  D' is
    tried only on the sets that are not the displacement group."""
    stack = np.asarray(elements).reshape(-1, 16, 4, 4)
    group = np.where(projective_set_equal(stack, displacement_table(4).reshape(16, 4, 4)), 0, -1)
    other = group < 0
    if other.any():
        group[other] = np.where(projective_set_equal(stack[other], dprime_elements()), 1, -1)
    return group if np.ndim(elements) == 4 else int(group[0])


def equivalence_unitary() -> np.ndarray:
    """The unitary conjugating the displacement group onto its regrouped
    copy while fixing the fiducial projector."""
    u = EQUIVALENCE_MATRIX
    if not is_unitary(u, 1e-12):
        raise AssertionError("equivalence matrix is not unitary")
    rho = fiducial_projector()
    if not proj_equal(u @ rho @ u.conj().T, rho):
        raise AssertionError("equivalence matrix moves the fiducial state")
    return u.copy()


# ---------------------------------------------------------------------------
# census of displacement-type subgroups inside the projective Clifford group
#
# elements are kernel cosets, named by clifford.coset and indexed as in
# the unitary enumerate_projective_clifford(4).

# generators of the unitary projective Clifford group: two symplectic
# elements and the displacements D_(1,0), D_(0,1); their products reach all
# 768 cosets, so a subgroup or a unitary normalizing these normalizes it all
CLIFFORD_GENERATORS = tuple(
    SymplecticPair(f, chi, 4)
    for f, chi in (
        ((1, 1, 0, 1), (0, 0)),
        ((0, 7, 1, 0), (0, 0)),
        ((1, 0, 0, 1), (1, 0)),
        ((1, 0, 0, 1), (0, 1)),
    )
)


@lru_cache(maxsize=1)
def _quotient() -> tuple:
    """(coset names, name -> index) of the 768 unitary cosets."""
    names = _coset_names(4)
    return names, {name: i for i, name in enumerate(names)}


def _span(x, z, identity: int) -> np.ndarray:
    """Indices of x^a z^b, 0 <= a, b < 4, as a (P, 16) array for P pairs."""

    def powers(g):
        square = element_product(g, g)
        return np.stack([np.full_like(g, identity), g, square, element_product(square, g)], 1)

    x, z = np.atleast_1d(x), np.atleast_1d(z)
    return element_product(powers(x)[:, :, None], powers(z)[:, None, :]).reshape(len(x), 16)


def generated_cosets(x: SymplecticPair, z: SymplecticPair) -> frozenset:
    """Coset names of x^a z^b, 0 <= a, b < 4: the group <x, z> when x and
    z commute projectively and have order 4."""
    names, index = _quotient()
    span = _span(index[coset(x)], index[coset(z)], index[displacement_coset(0, 0)])
    return frozenset(names[k] for k in span[0])


def dprime_covariant(indices) -> np.ndarray:
    """Whether X' and Z' permute each of an (S, M) stack of sets of orbit
    states, given by their sorted orbit indices: the (S,) verdicts that
    the sorted images of a set's indices under both are those indices."""
    _, index = _quotient()
    gens = [index[coset(X_PRIME_PAIR)], index[coset(Z_PRIME_PAIR)]]
    return np.all(np.sort(orbit_action()[gens][:, indices], axis=-1) == indices, axis=(0, 2))


def hw_conjugate_subgroup_census() -> tuple:
    """The order-16 subgroups of the projective Clifford group unitarily
    equivalent to the displacement group, as four values: their number,
    the number of them that are normal, the list of all of them and the
    list of the normal ones, each subgroup a frozenset of coset names.

    Candidates are generated pairs of commuting order-4 cosets spanning 16
    elements; equivalence additionally requires the operator commutator of
    the generators to be a primitive fourth root of unity, which pins the
    commutation structure down to that of the displacement pair.
    """
    names, index = _quotient()
    mats = enumerate_projective_clifford(4, extended=False).mats
    identity = index[displacement_coset(0, 0)]
    unitary = np.arange(len(names))
    square = element_product(unitary, unitary)
    # order-4 elements, in coset-name order so the census lists are stable
    quartic = np.flatnonzero((square != identity) & (square[square] == identity))
    quartic = np.array(sorted(quartic, key=names.__getitem__))
    sub = element_product(quartic[:, None], quartic)
    x, z = (quartic[k] for k in np.nonzero(np.triu(sub == sub.T, 1)))
    spans = np.sort(_span(x, z, identity), axis=1)
    full = np.flatnonzero(np.all(np.diff(spans, axis=1) != 0, axis=1))
    first = full[first_distinct_rows(spans[full])]  # one pair per distinct 16-element span
    c = commutator_phase(mats[x[first]], mats[z[first]])
    pairing = np.minimum(np.abs(c - 1j), np.abs(c + 1j)) <= COMMUTATOR_TOL  # primitive pairing
    hw_type = spans[first[pairing]]
    normal = hw_type[normal_subgroups(hw_type, [index[coset(g)] for g in CLIFFORD_GENERATORS])]

    def named(s):
        return frozenset(names[k] for k in s.tolist())

    return len(hw_type), len(normal), [named(s) for s in hw_type], [named(s) for s in normal]


def displacement_coset(p1: int, p2: int):
    """Coset name of the displacement with index (p1, p2)."""
    return coset(SymplecticPair((1, 0, 0, 1), (p1, p2), 4))
