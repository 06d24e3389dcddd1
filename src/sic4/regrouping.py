"""Reassembling the 256 fiducials into additional SIC-POVMs.

The orbits of the 256 states under a conjugate copy D' of the
displacement group, which sits inside the same Clifford group, are 16
new SICs.  They are read exactly off the integer orbit action: each takes
four states from each SIC of one row of the label grid, at cross-fidelity
1/5.  A clique scan over the fidelity graph checks that these, with the
16 orbit SICs, are the only 16-state SICs of the orbit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .clifford import SymplecticPair, _coset_keys, _pair_key, enumerate_projective_clifford
from .clifford import semidirect_product, to_operator
from .numerics import COMMUTATOR_TOL, DEFAULT_TOL, commutator_phase, is_unitary, match_projective, proj_equal
from .numerics import cached_table, projective_set_equal, rank1_kets, squared_norms
from .orbits import FiducialOrbit, _element_of, element_product, enumerate_orbit, fiducial_projector
from .orbits import first_distinct_rows, ket_permutations, normal_subgroups, orbit_action, orbit_certificate
from .orbits import pair_action, state_permutations
from .weyl_heisenberg import SicReport, displacement_table, shift_clock_products, verify_sic

# two orbit states are fidelity-1/5 neighbours when |tr(a b) - 1/5| is at
# most FIDELITY_TOL; every such pair is within 6.7e-16 of 1/5 and the
# nearest other fidelity, 0.20457, is 4.57e-3 away
FIDELITY_TOL = 1e-9


def dprime_pairs() -> list:
    """The pairs of the 16 elements X'^a Z'^b, 0 <= a, b < 4, of the
    conjugate displacement group D', in (a, b) order, composed with
    semidirect_product."""
    one = SymplecticPair((1, 0, 0, 1), (0, 0), 4)
    x, z = (list(itertools.accumulate([g] * 3, semidirect_product, initial=one)) for g in (X_PRIME_PAIR, Z_PRIME_PAIR))
    return [semidirect_product(a, b) for a in x for b in z]


def regrouped_family() -> np.ndarray:
    """The 16 regrouped SICs 17..32 as a read-only int (16, 4, 4) array: the
    distinct D'-orbits of the orbit states, each sorted, in ascending order,
    read exactly off pair_action.  matching[i, j] holds the sorted orbit
    indices of the four states that SIC 17 + i takes from the j-th SIC of
    its label-grid row, so matching.reshape(16, 16) lists its states."""
    f, chi = zip(*((p.F, p.chi) for p in dprime_pairs()))
    orbits = np.sort(pair_action(f, chi).T, axis=1)  # (256, 16): the D'-orbit of each state
    matching = orbits[first_distinct_rows(orbits)].astype(int).reshape(16, 4, 4)
    matching.flags.writeable = False
    return matching


@cached_table
def sic_family(tol: float = DEFAULT_TOL) -> tuple:
    """(members, report) of the 32 SICs of the enumerated orbit.  members is
    a read-only int (32, 16) array of sorted orbit indices, row n - 1 the
    states of SIC n: np.arange(256).reshape(16, 16), then
    regrouped_family().reshape(16, 16).  report, with read-only (32,)
    fields, joins orbit_certificate(tol) to one stacked verify_sic of the
    regrouped rows at tol; a row that fails it reads False in
    report.is_sic, and the claims that read that row fail."""
    orbit = enumerate_orbit()
    regrouped = regrouped_family().reshape(16, 16)
    orbit_half = orbit_certificate(tol)
    regrouped_half = verify_sic(orbit.projectors[regrouped], 4, tol)
    members = np.concatenate([np.arange(256).reshape(16, 16), regrouped])
    return members, SicReport(*map(np.concatenate, zip(vars(orbit_half).values(), vars(regrouped_half).values())))


def fidelity_adjacency(orbit: FiducialOrbit, vertices) -> np.ndarray:
    """Boolean adjacency of the fidelity-1/5 graph on the given states,
    decided on the upper triangle of the overlap matrix and mirrored."""
    flat = orbit.projectors[list(vertices)].reshape(len(vertices), 16)
    fid = np.real(flat.conj() @ flat.T)
    upper = np.triu(np.abs(fid - 0.2) <= FIDELITY_TOL, 1)
    return upper | upper.T


@cached_table
def fidelity_graph() -> np.ndarray:
    """fidelity_adjacency of all 256 orbit states, built once and read-only,
    for the full clique scan and the regularity claim."""
    return fidelity_adjacency(enumerate_orbit(), range(256))


def _cliques(adj: np.ndarray, k: int) -> list:
    """The maximal cliques of at least k vertices, as ascending index lists.
    All partial cliques grow at once, level by level, each by a common
    neighbour above its last vertex, so a clique is built once, from its
    ascending prefixes; neighbour sets are rows of uint64 bitset words.  A
    clique is maximal when its vertices have no common neighbour left; a
    partial clique is cut when its size plus its candidates falls short of
    k, as none of its cliques can reach k vertices."""
    n = len(adj)
    pad = ((0, 0), (0, -n % 64))

    def words(mask):  # each row of a boolean (n, n) mask as uint64 words, vertex v at bit v
        return np.packbits(np.pad(mask, pad), axis=1, bitorder="little").view("<u8")

    nbr, above = words(adj), words(np.arange(n) > np.arange(n)[:, None])
    clique, common, found = np.arange(n)[:, None], nbr, []
    while len(clique):
        if clique.shape[1] >= k:
            found += clique[~common.any(axis=1)].tolist()
        cand = common & above[clique[:, -1]]
        grow = clique.shape[1] + np.bitwise_count(cand).sum(axis=1) >= k
        row, v = np.nonzero(np.unpackbits(cand[grow].view(np.uint8), axis=1, count=n, bitorder="little"))
        clique, common = np.column_stack([clique[grow][row], v]), common[grow][row] & nbr[v]
    return found


def exhaustive_regroup_scan(full_scan: bool = False, tol: float = DEFAULT_TOL) -> int:
    """Check sic_family against the enumerated orbit's fidelity-1/5 graph:
    the number of maximal cliques of 16 or more states found, when they are
    exactly the rows of sic_family that certify at tol, else -1.

    Default mode drops the edges between label-grid rows of 64 states
    (regrouping cannot mix rows), so that each row's 64 x 64 block of
    fidelity_graph() is scanned apart, all four in one search; full_scan
    keeps every edge of the 256 vertices.
    """
    members, report = sic_family(tol)
    row = np.arange(256) // 64
    found = set(map(tuple, _cliques(fidelity_graph() & (full_scan or row[:, None] == row), 16)))
    return len(found) if found == set(map(tuple, members[report.is_sic].tolist())) else -1


def double_cover(tol: float = DEFAULT_TOL) -> bool:
    """Whether the rows of sic_family that certify at tol hold every orbit
    state exactly twice."""
    members, report = sic_family(tol)
    return bool(np.all(np.bincount(members[report.is_sic].ravel(), minlength=256) == 2))


def reconstruct_family(tol: float = DEFAULT_TOL) -> tuple:
    """The covariance groups of the 32 SICs of sic_family(tol), from one
    stacked reconstruct_hw call on the rows that certify at tol: three
    lists over the rows, covariance_group of each recovered group (0 the
    displacement group, 1 its conjugate D', -1 neither), the verdicts of
    one uniqueness_check call, and the (z, x) generators.  An uncertified
    row reads -1, False and None."""
    from .reconstruction import reconstruct_hw, uniqueness_check  # only the reconstructing sections load it

    members, report = sic_family(tol)
    certified = report.is_sic
    group, generators = np.full(32, -1), [None] * 32
    if certified.any():
        rec = reconstruct_hw(enumerate_orbit().projectors[members[certified]])
        group[certified] = covariance_group(rec.elements)
        for n, z, x in zip(np.flatnonzero(certified).tolist(), rec.z_gen, rec.x_gen):
            generators[n] = (z, x)
    return group.tolist(), (uniqueness_check(members) & certified).tolist(), generators


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


def dprime_literals_match() -> bool:
    """Whether the literal D' generators equal their symplectic-pair
    parametrization projectively."""
    pairs = ((X_PRIME_PAIR, X_PRIME_MATRIX), (Z_PRIME_PAIR, Z_PRIME_MATRIX))
    return all(proj_equal(to_operator(pair).matrix, literal) for pair, literal in pairs)


@cached_table
def _covariance_references() -> tuple:
    """The displacement group and D' as one read-only (2, 16, 4, 4) stack,
    with their (2, 16) squared_norms; D' is the products of the literal
    generators X_PRIME_MATRIX and Z_PRIME_MATRIX, which
    dprime_literals_match checks against their parametrization."""
    groups = np.stack([displacement_table(4).reshape(16, 4, 4), shift_clock_products(X_PRIME_MATRIX, Z_PRIME_MATRIX)])
    return groups, squared_norms(groups)


def dprime_elements() -> np.ndarray:
    """The 16 projective elements of the conjugate displacement group, read-only."""
    return _covariance_references()[0][1]


def covariance_group(elements):
    """Which order-16 group a (16, 4, 4) stack of unitaries is, as a set up
    to phases: 0 for the displacement group, 1 for its conjugate D', -1 for
    neither; for an (S, 16, 4, 4) stack, the (S,) array of them.  D' is
    tried only on the sets that are not the displacement group."""
    stack, (groups, norms) = np.asarray(elements).reshape(-1, 16, 4, 4), _covariance_references()
    group = np.where(projective_set_equal(stack, groups[0], norms[0]), 0, -1)
    other = group < 0
    if other.any():
        group[other] = np.where(projective_set_equal(stack[other], groups[1], norms[1]), 1, -1)
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


def carried_sics(u, tol: float = DEFAULT_TOL) -> int:
    """How many of the orbit SICs 1-16 the unitary u carries onto the
    regrouped SICs 17-32: a SIC is carried when the images of all its
    states, matched by state_permutations, are the states of one regrouped
    SIC and both rows certify at tol.  0 when u does not permute the orbit,
    as a u that fixes the fiducial and normalizes the Clifford group does."""
    members, report = sic_family(tol)
    certified = report.is_sic
    new_sic = np.full(256, -1)
    new_sic[members[16:]] = np.where(certified[16:], np.arange(16), -1)[:, None]
    try:
        image_sic = new_sic[state_permutations(u[None], enumerate_orbit().projectors)[0]].reshape(16, 16)
    except ValueError:
        return 0
    carried = np.all(image_sic == image_sic[:, :1], axis=1) & (image_sic[:, 0] >= 0) & certified[:16]
    return int(np.count_nonzero(carried))


def clifford_index_two(u) -> bool:
    """Whether the unitary u extends the unitary Clifford group by exactly
    one step: u lies outside it, u^2 inside, and u normalizes it,
    conjugating each of CLIFFORD_GENERATORS into it."""
    mats = enumerate_projective_clifford(4, extended=False).mats
    generators = np.stack([to_operator(g).matrix for g in CLIFFORD_GENERATORS])
    normalizes = np.all(match_projective(u @ generators @ u.conj().T, mats) >= 0)
    return bool(match_projective(u @ u, mats) >= 0 and match_projective(u, mats) < 0 and normalizes)


# ---------------------------------------------------------------------------
# census of displacement-type subgroups inside the projective Clifford group
#
# elements are kernel cosets, named by clifford.coset_names and indexed as in
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


def _span(x, z, identity: int) -> np.ndarray:
    """Indices of x^a z^b, 0 <= a, b < 4, as a (P, 16) array for P pairs."""

    def powers(g):
        square = element_product(g, g)
        return np.stack([np.full_like(g, identity), g, square, element_product(square, g)], 1)

    x, z = np.atleast_1d(x), np.atleast_1d(z)
    return element_product(powers(x)[:, :, None], powers(z)[:, None, :]).reshape(len(x), 16)


def dprime_permutes(states) -> np.ndarray:
    """Whether conjugation by the 16 matrices of dprime_elements() permutes
    each of an (S, M, 4, 4) stack of rank-1 state lists: the (S,) verdicts
    of one ket_permutations call per list, on the kets that one rank1_kets
    call reads off the float states."""
    try:
        kets = rank1_kets(states)
    except ValueError:  # a state that is not rank-1: each list apart, so only the lists holding it fail
        kets = None
    verdicts = np.ones(len(states), dtype=bool)
    for k, listed in enumerate(states):
        try:
            ket_permutations(dprime_elements(), rank1_kets(listed) if kets is None else kets[k])
        except ValueError:
            verdicts[k] = False
    return verdicts


def hw_conjugate_subgroup_census() -> tuple:
    """The order-16 subgroups of the projective Clifford group unitarily
    equivalent to the displacement group, as four values: their number,
    the number of them that are normal, the list of all of them and the
    list of the normal ones, each subgroup a frozenset of coset names.

    Candidates are generated pairs of commuting order-4 cosets spanning 16
    elements; equivalence additionally requires the operator commutator of
    the generators to be a primitive fourth root of unity, which pins the
    commutation structure down to that of the displacement pair.  Each
    unitary row of enumerate_projective_clifford(4) is its coset's least
    pair, in ascending order, so rows run in coset-name order and a row's
    (F, chi) is its coset's name.
    """
    group = enumerate_projective_clifford(4, extended=False)
    identity = _element_of()[1]  # the row fixing orbit states 0 and 1
    square = element_product(np.arange(len(group)), np.arange(len(group)))
    quartic = np.flatnonzero((square != identity) & (square[square] == identity))  # the order-4 rows
    # (x^+-1, z^+-1) span one subgroup at commutator +-i: span x < x^-1 = x^3 and z < z^-1 only
    quartic = quartic[quartic < element_product(square[quartic], quartic)]
    # x and z commute when x z and z x move states 0 and 1 alike; they span
    # 16 elements when x^2 != z^2, as <x> and <z> then meet in 1 alone
    act, pairs = orbit_action()[quartic], square[quartic] != square[quartic, None]
    for state in (0, 1):
        image = act[:, act[:, state]]  # [i, j]: where q_i q_j sends the state
        pairs &= image == image.T
    x, z = (quartic[k] for k in np.nonzero(np.triu(pairs, 1)))
    spans = np.sort(_span(x, z, identity), axis=1)
    first = first_distinct_rows(spans)  # one pair per distinct span
    hw_type = spans[first[primitive_commutation(group.mats[x[first]], group.mats[z[first]])]]
    gens = np.array([g.F + g.chi for g in CLIFFORD_GENERATORS]).T  # their rows: a row's own key is its coset's
    by = np.searchsorted(_pair_key(group.f.T, group.chi.T, 4), _coset_keys(gens[:4], gens[4:], 4))
    normal = hw_type[normal_subgroups(hw_type, by)]

    def named(s):
        return frozenset(zip(map(tuple, group.f[s].tolist()), map(tuple, group.chi[s].tolist())))

    return len(hw_type), len(normal), [named(s) for s in hw_type], [named(s) for s in normal]


def primitive_commutation(a, b) -> np.ndarray:
    """Whether the commutator phase of a and b, or of each pair of two
    stacks, is a primitive fourth root of unity, +-i, within
    COMMUTATOR_TOL: the commutation of a displacement-type generator pair."""
    c = commutator_phase(a, b)
    return np.minimum(np.abs(c - 1j), np.abs(c + 1j)) <= COMMUTATOR_TOL
