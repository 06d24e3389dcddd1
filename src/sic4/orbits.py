"""The extended-Clifford orbit of the dimension-4 fiducial.

The orbit consists of 256 projectors splitting into 16 SIC-POVMs.  Each SIC
carries the label n of a symplectic unitary V_n = (F_n, 0) applied to the
reference fiducial, and within a SIC states are indexed by the displacement
applied after V_n, so the global index of a state is

    (label - 1) * 16 + 4 * p1 + p2.

The label grid arranges labels 1..16 row-major in a 4 x 4 square; rows and
columns of that square organize the symmetry-group action and the
regrouping construction.
"""

from __future__ import annotations

import itertools

import numpy as np

from .clifford import (
    SymplecticPair,
    _compose,
    _operators,
    _pair_key,
    conjugation_action,
    enumerate_projective_clifford,
    kernel_pairs,
    semidirect_product,
    to_operator,
)
from .numerics import DEFAULT_TOL, MATCH_TOL, _FrozenRecord, _Record, cached_table, is_unitary, match_projective
from .numerics import rank1_kets
from .weyl_heisenberg import SicReport, displacement_table, fiducial_ket_d4, verify_sic

# symplectic sources of the 16 SIC labels, det = +1 mod 8
SIC_LABELING = tuple(
    SymplecticPair(f, (0, 0), 4)
    for f in [
        (1, 0, 0, 1),
        (0, 3, 5, 7),
        (2, 1, 1, 1),
        (6, 7, 3, 5),
        (0, 3, 5, 5),
        (0, 1, 7, 1),
        (6, 7, 7, 7),
        (3, 1, 1, 6),
        (3, 1, 2, 1),
        (6, 7, 1, 4),
        (0, 3, 5, 6),
        (0, 1, 7, 0),
        (6, 7, 5, 6),
        (3, 1, 0, 3),
        (0, 1, 7, 2),
        (0, 3, 5, 0),
    ]
)

# antiunitary generator of the fiducial's stability group
FIDUCIAL_STABILIZER = SymplecticPair((-1, 1, -1, 2), (2, 0), 4)

# its unitary factor (conjugation follows it), written out entrywise
_E = np.exp(0.25j * np.pi)  # note exp(-3i pi/4) = -exp(i pi/4)
STABILIZER_MATRIX = 0.5 * np.array(
    [
        [1, _E, -1, _E],
        [1j, -_E, 1j, _E],
        [1, -_E, -1, -_E],
        [1j, _E, 1j, -_E],
    ],
    dtype=complex,
)

# conjugation by the stabilizer cycles the displacement indices
STABILIZER_CYCLE = ((0, 1), (1, 2), (1, 3), (2, 1), (3, 0), (1, 1))

# orbits of the 15 non-fiducial states under the stabilizer's square
STABILIZER_ORBIT_SETS = (
    frozenset({(1, 0), (0, 3), (3, 1)}),
    frozenset({(3, 3), (3, 2), (2, 3)}),
    frozenset({(0, 1), (1, 3), (3, 0)}),
    frozenset({(1, 2), (2, 1), (1, 1)}),
    frozenset({(2, 0), (0, 2), (2, 2)}),
)


def fiducial_projector() -> np.ndarray:
    v = fiducial_ket_d4()
    return np.outer(v, v.conj())


class FiducialOrbit(_FrozenRecord):
    """All 256 orbit projectors with their SIC labels and displacement indices."""

    projectors: np.ndarray  # (256, 4, 4)

    def find(self, rho) -> int:
        """Global index of the orbit projector equal to rho, or -1."""
        return match_projective(rho, self.projectors)


@cached_table
def enumerate_orbit() -> FiducialOrbit:
    """Build the 256-projector orbit, one SIC per label.

    State (n, p) is D_p V_n rho_f V_n^dag D_p^dag, the 16 V_n built in one
    stacked pass and checked unitary.
    """
    mats, _ = _operators(np.array([pair.F for pair in SIC_LABELING]).T, np.zeros((2, 16), dtype=int), 4)
    if not is_unitary(mats, 1e-8):
        raise ValueError("SIC label operators V_n are not unitary within tol")
    fids = mats @ fiducial_projector() @ mats.conj().swapaxes(-1, -2)
    disp = displacement_table(4).reshape(16, 4, 4)
    return FiducialOrbit((disp @ fids[:, None] @ disp.conj().swapaxes(-1, -2)).reshape(256, 4, 4))


@cached_table
def orbit_certificate(tol: float = DEFAULT_TOL) -> SicReport:
    """verify_sic at tol of the 16 orbit SICs, the rows of
    np.arange(256).reshape(16, 16), in one pass; read-only (16,) fields."""
    return verify_sic(enumerate_orbit().projectors.reshape(16, 16, 4, 4), 4, tol)


def stability_group(rho) -> list:
    """Extended-Clifford elements fixing an orbit projector, as a list of
    CliffordElements.

    The input must be one of the 256 orbit projectors.
    """
    k = enumerate_orbit().find(rho)
    if k < 0:
        raise ValueError("projector is not on the fiducial orbit")
    group = enumerate_projective_clifford(4, extended=True)
    return [group[i] for i in np.flatnonzero(orbit_action()[:, k] == k)]


@cached_table
def _state_of_pair() -> np.ndarray:
    """The orbit state each pair sends the fiducial to, read-only int16 by
    _pair_key, else -1.  State (n, p) is rho_f under g = (F_n, p), named by
    the pairs g s k for the stabilizer's six powers s and the eight kernel
    pairs k, all set in one broadcast pass."""
    d, db = 4, 8
    fn, p = np.array([pair.F for pair in SIC_LABELING]).T, np.indices((d, d)).reshape(2, d * d)
    state = np.full(db**4 * d * d, -1, dtype=np.int16)
    powers = list(itertools.accumulate([FIDUCIAL_STABILIZER] * 6, semidirect_product))
    s, k = (np.array([x.F + x.chi for x in pairs]).T for pairs in (powers, kernel_pairs(d)))  # (6, pairs)
    sk = _compose(s[:4, :, None], s[4:, :, None], k[:4, None], k[4:, None], db, d)  # the (6, 8) pairs s k
    names = _compose(fn[:, :, None, None, None], p[:, None, :, None, None], *sk, db, d)  # (16, 16, 6, 8)
    state[_pair_key(*names, d)] = np.arange(256).reshape(16, 16, 1, 1)
    if np.count_nonzero(state >= 0) != 256 * 6 * 8:
        raise AssertionError("stabilizer cosets of two orbit states overlap")
    return state


def pair_action(f, chi) -> np.ndarray:
    """The int16 (N, 256) orbit indices of the images of the orbit states
    under N pairs (F, chi), the rows of (N, 4) f and (N, 2) chi, exactly.
    As (F, chi) (1, p) = (1, F p) (F, chi), h sends state (n, p) to
    (m, q + F_h p mod 4) for (m, q) the state of h (F_n, 0): one lookup per
    pair and label, one affine step on 8-bit codes.  ValueError for a pair
    that maps the orbit off itself."""
    d, db = 4, 8
    fn, p = np.array([pair.F for pair in SIC_LABELING]).T, np.indices((d, d)).reshape(2, d * d)
    f, chi = np.asarray(f).T[:, :, None], np.asarray(chi).T[:, :, None]
    image = _state_of_pair()[_pair_key(*_compose(f, chi, fn[:, None, :], (0, 0), db, d), d)]  # (N, 16)
    if image.min() < 0:
        raise ValueError("an element maps the orbit off itself")
    fp = _compose(f, (0, 0), (1, 0, 0, 1), p[:, None, :], db, d)[1]
    fp = (fp[0] * d + fp[1]).astype(np.uint8)  # code of F_h p, (N, 16)
    chisum = ((p[0][:, None] + p[0]) % d * d + (p[1][:, None] + p[1]) % d).astype(np.uint8)
    q = image % 16
    return ((image - q)[:, :, None] + chisum.ravel()[q[:, :, None] * 16 + fp[:, None, :]]).reshape(len(image), 256)


@cached_table
def orbit_action() -> np.ndarray:
    """pair_action of the rows of enumerate_projective_clifford(4,
    extended=True), cached: entry [h, k] of the read-only int16 (1536, 256)
    table is the orbit index of the image of state k under row h.  Row
    16 c + 4 chi1 + chi2 is (1, chi) (F_c, 0): pair_action of the 96 rows
    of symplectic classes, then one gather through D_chi's row."""
    group = enumerate_projective_clifford(4, extended=True)
    classes = pair_action(group.f[::16], group.chi[::16])
    shifts = pair_action(np.tile((1, 0, 0, 1), (16, 1)), group.chi[:16])  # [chi, k]: D_chi moves state k
    return shifts.ravel()[classes[:, None] + 256 * np.arange(16, dtype=np.int16)[:, None]].reshape(-1, 256)


@cached_table
def _element_of() -> np.ndarray:
    """The row of enumerate_projective_clifford(4, extended=True) sending
    orbit state 0 to a and state 1 to b, at code 256 a + b: a read-only
    int16 array of 65,536 entries, -1 where no row does.  AssertionError
    when two rows send both states alike."""
    act = orbit_action().view(np.uint16)
    element = np.full(1 << 16, -1, dtype=np.int16)
    element[act[:, 0] << 8 | act[:, 1]] = np.arange(len(act))
    if np.count_nonzero(element >= 0) != len(act):
        raise AssertionError("orbit states 0 and 1 do not tell the elements apart")
    return element


def element_product(i, j) -> np.ndarray:
    """Row index of element i times element j (i after j), elementwise over
    broadcast index arrays into enumerate_projective_clifford(4,
    extended=True).  The group acts faithfully on the orbit, so the product
    is the row sending states 0 and 1 where i after j sends them; a product
    that names no element raises ValueError."""
    act = orbit_action().view(np.uint16)
    k = _element_of()[act[i, act[j, 0]] << 8 | act[i, act[j, 1]]]
    if np.any(k < 0):
        raise ValueError("a product names no enumerated Clifford element")
    return k


def sylow_two_subgroup(elements) -> tuple:
    """The elements of 2-power order of each row of an (S, P) array of
    unitary element rows into enumerate_projective_clifford(4,
    extended=True), and whether they number 16 and close under
    element_product: the (S,) verdicts and the (S, P) mask of those
    elements.  In a group of order 48 an order is a power of 2 exactly
    when it divides 16, so g is one when g^16, four squarings, is the
    identity."""
    elements = np.asarray(elements)
    identity = _element_of()[1]  # the row sending state 0 to 0 and 1 to 1
    power = elements
    for _ in range(4):
        power = element_product(power, power)
    two = power == identity
    sixteen = np.count_nonzero(two, axis=1) == 16
    sub = elements[two & sixteen[:, None]].reshape(-1, 16)
    rows = np.arange(len(sub))[:, None]
    member = np.zeros((len(sub), len(orbit_action())), dtype=bool)
    member[rows, sub] = True
    verdict = np.zeros(len(elements), dtype=bool)
    verdict[sixteen] = np.all(member[rows[:, :, None], element_product(sub[:, :, None], sub[:, None, :])], axis=(1, 2))
    return verdict, two


def normal_subgroups(subgroups, by) -> np.ndarray:
    """Which rows of a (K, n) array of subgroups, each n distinct element
    rows into enumerate_projective_clifford(4, extended=True), are
    normalized by every element row of ``by``: the (K,) verdicts that
    g s = s g for each g, the two cosets compared as sorted element_product
    rows, so no inverse is needed."""
    subgroups, by = np.asarray(subgroups), np.asarray(by)[:, None, None]
    left = np.sort(element_product(by, subgroups), axis=-1)
    return np.all(left == np.sort(element_product(subgroups, by), axis=-1), axis=(0, 2))


def conjugation_cycle(pair: SymplecticPair, p, u=None) -> list:
    """The displacement indices p, q, ... visited by repeated conjugation
    by pair, up to the return to p; the operator u of pair is built once
    unless given, and the conjugation law is checked at every step."""
    u = to_operator(pair) if u is None else u
    cycle = [tuple(p)]
    while True:
        _, q = conjugation_action(pair, cycle[-1], u=u)
        if q == cycle[0]:
            return cycle
        cycle.append(q)


def stabilizer_orbits_within_sic() -> list:
    """Orbits of the 15 non-fiducial SIC-1 states under the unitary
    stabilizer element (the square of the antiunitary generator)."""
    sq = semidirect_product(FIDUCIAL_STABILIZER, FIDUCIAL_STABILIZER)
    u = to_operator(sq)
    seen = {(0, 0)}
    orbits = []
    for p in np.ndindex(4, 4):
        if p not in seen:
            orbits.append(conjugation_cycle(sq, p, u))
            seen.update(orbits[-1])
    return orbits


def _distinct_triples(states):
    """tr(r_a r_b r_c) for the ordered triples of distinct rank-1 states
    (for an (S, n, d, d) stack, of each list), in lexicographic (a, b, c)
    order, and the (n, n, n) mask selecting them: G[a, b] G[b, c] G[c, a]."""
    kets = rank1_kets(states)
    n = kets.shape[-2]
    gram = (kets.conj() @ np.swapaxes(kets, -1, -2)).reshape(kets.shape[:-2] + (n * n,))  # flat rows, for take
    a, b, c = np.indices((n,) * 3)
    mask = (a != b) & (b != c) & (a != c)
    vals = gram.take(n * a[mask] + b[mask], axis=-1)
    vals *= gram.take(n * b[mask] + c[mask], axis=-1)
    vals *= gram.take(n * c[mask] + a[mask], axis=-1)
    return vals, mask


# a SIC's triple traces split on the orbits (_triple_orbits) when 2 spread
# <= TRIPLE_CENSUS_GAP < separation, as in numerics.value_classes; in each
# SIC an orbit spreads over 5.4e-16 and two orbits lie 8.5e-3 apart
TRIPLE_CENSUS_GAP = 1e-6


def _triple_orbits() -> tuple:
    """The orbits of the ordered triples of distinct SIC 1 states, in
    _distinct_triples' order and numbered by least code 256 a + 16 b + c,
    under the cyclic shift and SIC 1's extended symmetries, generated by
    FIDUCIAL_STABILIZER and the displacements X and Z (exact pair_action
    rows): g sends (a, b, c) to (g a, g b, g c), or to (g c, g b, g a) when
    antiunitary, as it then conjugates the trace.  Also the orbit of each
    orbit's reversed triples, whose traces are the conjugates."""
    gens = (FIDUCIAL_STABILIZER, SymplecticPair((1, 0, 0, 1), (1, 0), 4), SymplecticPair((1, 0, 0, 1), (0, 1), 4))
    image = pair_action([g.F for g in gens], [g.chi for g in gens])[:, :16]
    a, b, c = np.indices((16, 16, 16)).reshape(3, -1)
    moves = [256 * b + 16 * c + a]  # the cyclic shift
    for g, x in zip(image, gens):
        ga, gb, gc = (g[c], g[b], g[a]) if x.antiunitary else (g[a], g[b], g[c])
        moves.append(256 * ga + 16 * gb + gc)
    least, last = np.arange(4096), None  # each code's least code on its orbit, at the fixed point
    while not np.array_equal(least, last):
        last = least
        for move in moves:
            least = np.minimum(least, least[move])
    keys, ids = np.unique(least[(a != b) & (b != c) & (a != c)], return_inverse=True)
    return ids, np.searchsorted(keys, least[keys % 16 * 256 + keys // 16 % 16 * 16 + keys // 256])


@cached_table
def _triple_censuses(gap: float) -> tuple:
    """The triple census of all 16 SICs at gap on SIC 1's orbits, SIC n's
    states lined up with SIC 1's by the exact label map of V_n: the (16, K)
    orbit means, each summed in value order; the (K,) orbit sizes; the
    (16, 16, 16) orbit of each triple of distinct SIC 1 states, -1
    elsewhere; each orbit's conjugate orbit; and whether each row splits,
    2 spread <= gap < separation.  Orbits are in census order, set on SIC
    1 by (Re c_k + Re c_conj(k)) / 2, equal for a conjugate pair, then Im."""
    ids, conj = _triple_orbits()
    image = pair_action([pair.F for pair in SIC_LABELING], np.zeros((16, 2), dtype=int))[:, :16]
    vals, mask = _distinct_triples(enumerate_orbit().projectors[image])  # (16, 3360), row 0 is SIC 1
    k, counts = len(conj), np.bincount(ids)
    key = (ids + k * np.arange(16)[:, None]).ravel()  # one bincount sums every row's orbits
    centers = (np.bincount(key, vals.real.ravel()) + 1j * np.bincount(key, vals.imag.ravel())).reshape(16, k) / counts
    spread = np.abs(vals - centers[:, ids]).max(axis=1)
    apart = np.abs(centers[:, :, None] - centers[:, None, :]) + np.diag(np.full(k, np.inf))
    split = (2 * spread <= gap) & (gap < apart.min(axis=(1, 2)))
    order = np.lexsort((centers[0].imag, (centers[0].real + centers[0, conj].real) / 2))
    rank = np.argsort(order)
    census = np.full(mask.shape, -1)
    census[mask] = rank[ids]
    return centers[:, order], counts[order], census, rank[conj[order]], split


def triple_trace_census(label: int = 1, gap: float = TRIPLE_CENSUS_GAP) -> list:
    """The values of tr(r1 r2 r3) over ordered triples of distinct states
    of one SIC, as (value, multiplicity) pairs in census order; ValueError
    when that SIC's traces do not split on the orbits at gap."""
    centers, counts, _, _, split = _triple_censuses(gap)
    if not (1 <= label <= 16 and split[label - 1]):
        raise ValueError("SIC %r has no triple census split on its orbits at gap %.3g" % (label, gap))
    return list(zip(centers[label - 1].tolist(), counts.tolist()))


def triple_census_report(tol: float = DEFAULT_TOL) -> tuple:
    """SIC 1's triple-trace census and its facts at TRIPLE_CENSUS_GAP, as
    six values: triple_trace_census(1); its multiplicities; the number of
    real values, orbits holding their own reversed triples; the number of
    conjugate pairs, two orbits holding each other's reversed triples; the
    largest ||value| - 5^(-3/2)|; and whether SICs 2-16 split and their
    k-th centers lie within tol of SIC 1's.  A census that cannot split
    reads [] and leaves the facts that read it None, and the cross-SIC
    verdict False."""
    try:
        census = triple_trace_census(1)
    except ValueError:
        return [], None, None, None, None, False
    centers, counts, _, conj, split = _triple_censuses(TRIPLE_CENSUS_GAP)
    orbit = np.arange(len(conj))
    modulus_dev = np.max(np.abs(np.abs(centers[0]) - 5**-1.5))
    same = bool(split.all() and np.max(np.abs(centers - centers[0])) <= tol)
    return census, counts.tolist(), int(np.sum(conj == orbit)), int(np.sum(orbit < conj)), modulus_dev, same


def triple_family_deviations() -> tuple:
    """The three-state family of triple_family on 100 angles in [-pi, pi),
    over d = 3, 4, 5: the largest deviation of a pairwise fidelity from
    1/(d+1), the largest deviation of the triple-product phase from
    triple_phase, and whether that phase increases strictly along the grid."""
    fid_dev, phase_dev, monotone = 0.0, 0.0, True
    thetas = np.linspace(-np.pi, np.pi, 100, endpoint=False)
    for d in (3, 4, 5):
        f1, f2, f3 = triple_family(thetas, d)
        o12, o23, o31 = (np.sum(a.conj() * b, axis=1) for a, b in ((f1, f2), (f2, f3), (f3, f1)))
        fid_dev = max(fid_dev, np.max(np.abs(np.abs([o12, o23, o31]) ** 2 - 1 / (d + 1))))
        phase = triple_phase(thetas, d)
        phase_dev = max(phase_dev, np.max(np.abs(np.angle(o12 * o23 * o31) - phase)))
        monotone = monotone and bool(np.all(np.diff(phase) > 0))
    return fid_dev, phase_dev, monotone


def permutation_orders(perms) -> np.ndarray:
    """Orders of a (P, n) stack of permutations given as rows of images."""
    perms = np.asarray(perms)
    orders = np.zeros(len(perms), dtype=int)
    acc, k = perms, 1
    while not orders.all():
        orders[(orders == 0) & np.all(acc == np.arange(perms.shape[1]), axis=1)] = k
        acc = np.take_along_axis(perms, acc, axis=1)  # p after acc
        k += 1
    return orders


def first_distinct_rows(a) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of a
    2-d integer array; each row is compared as one opaque byte string."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]
    return np.sort(np.unique(keys, return_index=True)[1])


def permutation_parities(perms) -> np.ndarray:
    """Parities, 0 even and 1 odd, of a (P, n) stack of permutations: their
    inversion counts mod 2."""
    perms = np.asarray(perms)
    return np.count_nonzero(np.triu(perms[:, :, None] > perms[:, None, :]), axis=(1, 2)) % 2


class SymmetryReport(_Record):
    extended_order: int
    unitary_order: int
    hw_is_unique_order16: bool
    rigid_permutation_count: int | None  # None when SIC 1's triple census cannot split


def state_permutations(mats, states) -> np.ndarray:
    """How each of N unitaries permutes a list of M rank-1 states by
    conjugation, as an (N, M) index array; for an (N, M, d, d) stack, how
    each permutes its own list.  ValueError when one does not permute its
    states.  The kets are read off the states once, for ket_permutations."""
    return ket_permutations(mats, rank1_kets(states))


def ket_permutations(mats, kets) -> np.ndarray:
    """state_permutations of the states k k^dag of an (M, d) list of kets,
    or of an (N, M, d) stack: one product takes every overlap
    <k_j| U |k_i>, and state i goes to the j of largest modulus, which
    must reach 1 - MATCH_TOL: the overlap kernel's cut, read on kets."""
    z = kets.conj() @ np.asarray(mats, dtype=complex) @ np.swapaxes(kets, -1, -2)  # [n, j, i]
    ov = np.square(z.real)
    ov += np.square(z.imag)
    index = ov.argmax(axis=-2)
    hit = np.sort(index, axis=-1) == np.arange(index.shape[-1])  # every state is an image
    if ov.max(axis=-2).min() < 1.0 - MATCH_TOL or not hit.all():
        raise ValueError("conjugation does not permute the state set")
    return index


def sic_symmetries(indices, *, extended: bool) -> np.ndarray:
    """The enumerated (extended) Clifford elements that permute each of an
    (S, M) stack of sets of orbit states, given by their orbit indices, in
    one pass: a (k, 2) array of (set, element) pairs, sets ascending and
    each set's elements ascending, elements indexing
    enumerate_projective_clifford(4, extended=extended).  An element is
    kept when orbit_action sends every state of the set into it; only the
    elements sending the set's first state into it are tried on the
    others."""
    stack = np.asarray(indices)
    rows = np.arange(len(stack))
    member = np.zeros((len(stack), 256), dtype=bool)
    member[rows[:, None], stack] = True
    n = len(enumerate_projective_clifford(4, extended=extended))
    action = orbit_action()[:n]
    row, element = np.nonzero(member[rows[:, None], action[:, stack[:, 0]].T])
    keep = np.all(member[row[:, None], action[element[:, None], stack[row]]], axis=1)
    return np.column_stack([row[keep], element[keep]])


def rigid_permutations(limit: int = 10):
    """Permutations of SIC 1's states fixing the fiducial and preserving all
    triple traces, the first ``limit`` in lexicographic order.

    Used to certify that nothing beyond the unitary stabilizer survives the
    full set of triple invariants.  All partial assignments of states 0..k
    are extended at once, level by level; one survives when every triple
    (k, y, z) of distinct y, z < k keeps its census orbit, which covers the
    triples' cyclic shifts, as the shift is one of the orbits' symmetries.
    ValueError when SIC 1's triple traces do not split on their orbits.
    """
    _, _, ids, _, split = _triple_censuses(TRIPLE_CENSUS_GAP)
    if not split[0]:
        raise ValueError("the triple traces of SIC 1 do not split on their orbits")
    n = len(ids)
    partial = np.zeros((1, 1), dtype=np.intp)  # the fiducial stays fixed
    for k in range(1, n):
        rows, cands = np.nonzero(np.all(partial[:, :, None] != np.arange(n), axis=1))  # each row's free states
        partial = np.column_stack([partial[rows], cands])
        y, z = np.nonzero(~np.eye(k, dtype=bool))
        partial = partial[np.all(ids[partial[:, k:], partial[:, y], partial[:, z]] == ids[k, y, z], axis=1)]
    return [tuple(p) for p in partial[:limit].tolist()]


def verify_symmetry_group_in_clifford() -> SymmetryReport:
    """Certify the symmetry-group structure of SIC 1 inside the enumerated
    extended Clifford group.

    Checks the 96/48 symmetry-group orders, uniqueness of the order-16
    subgroup (which equals the displacement group), and that
    triple-trace-preserving permutations are exhausted by the unitary
    stabilizer; that count is None when SIC 1's triple census cannot split.
    """
    group = enumerate_projective_clifford(4, extended=True)
    sym = sic_symmetries(np.arange(16)[None], extended=True)[:, 1]  # SIC 1 holds orbit states 0..15
    unitary = sym[~group.anti[sym]]

    # the unique order-16 subgroup: exactly 16 elements of 2-power order,
    # closed under composition, normal, and equal to the displacements
    (unique16,), (two,) = sylow_two_subgroup(unitary[None])
    sub = unitary[two]
    # the displacements, the rows with F = 1, are rows 128..143 in (p1, p2) order
    unique16 = unique16 and normal_subgroups(sub[None], unitary)[0] and np.array_equal(sub, np.arange(128, 144))

    try:
        rigid = len(rigid_permutations(limit=10))
    except ValueError:  # SIC 1's triple traces do not split, so no permutation is certified
        rigid = None
    return SymmetryReport(
        extended_order=len(sym),
        unitary_order=len(unitary),
        hw_is_unique_order16=bool(unique16),
        rigid_permutation_count=rigid,
    )


def label_action(extended: bool = False) -> tuple:
    """How label_permutation_group(extended) acts on the rows and columns
    of the label grid, labels 0-based with row r holding 4r..4r+3, as six
    values: the permutations as a (P, 16) array; the number of them of
    each element order; whether each maps every row onto a row; the number
    of distinct permutations they induce on the four rows; the number
    fixing every row; and whether those permute the columns evenly, alike
    in each row, in 12 distinct ways."""
    perms = np.array(label_permutation_group(extended=extended))
    orders, counts = np.unique(permutation_orders(perms), return_counts=True)
    grid = perms.reshape(-1, 4, 4)
    rows = grid // 4
    # the image row of each row, -1 where a row is not sent onto one row
    actions = np.where(np.all(rows == rows[:, :, :1], axis=2), rows[:, :, 0], -1)
    fixing = np.all(actions == np.arange(4), axis=1)
    cols = grid[fixing] % 4  # the column permutation in each row
    even_alike = np.all(cols == cols[:, :1], axis=(1, 2)) & (permutation_parities(cols[:, 0]) == 0)
    columns = bool(np.all(even_alike) and len(first_distinct_rows(cols[:, 0])) == 12)
    census = dict(zip(orders.tolist(), counts.tolist()))
    return perms, census, bool(np.all(actions >= 0)), len(first_distinct_rows(actions)), int(fixing.sum()), columns


def label_permutation_group(extended: bool = False) -> tuple:
    """The distinct label permutations induced by the (extended) Clifford
    group, as a sorted tuple of 16-tuples of 0-based image labels."""
    n = len(enumerate_projective_clifford(4, extended=extended))
    perms = orbit_action()[:n, ::16] // 16
    return tuple(sorted(map(tuple, perms[first_distinct_rows(perms)].tolist())))


def triple_family(theta, d: int):
    """Three unit kets with pairwise fidelity 1/(d+1), parametrized by theta;
    for an array of angles, three (..., d) stacks."""
    if d < 3:
        raise ValueError("family needs d >= 3")
    theta = np.asarray(theta, dtype=float)
    ct = np.cos(theta)
    root = np.sqrt(ct * ct + d)
    u = (-ct + root) / np.sqrt(d * (d + 1))
    v = np.sqrt((d * d - d - 2 * ct * ct + 2 * ct * root) / (d * (d + 1)))
    f1, f2, f3 = np.zeros((3,) + theta.shape + (d,), dtype=complex)
    f1[..., 0] = 1.0
    f2[..., 0] = 1.0 / np.sqrt(d + 1)
    f2[..., 1] = np.sqrt(d) / np.sqrt(d + 1)
    f3[..., 0] = 1.0 / np.sqrt(d + 1)
    f3[..., 1] = u * np.exp(1j * theta)
    f3[..., 2] = v
    return f1, f2, f3


def triple_phase(theta, d: int):
    """Argument of the triple product for the family, on the branch
    [-pi, pi); elementwise for an array of angles."""
    theta = np.asarray(theta, dtype=float)
    ct = np.cos(theta)
    z = 1.0 + np.exp(1j * theta) * (-ct + np.sqrt(ct * ct + d))
    phi = np.angle(z)
    return np.where(phi >= np.pi, -np.pi, phi)[()]
