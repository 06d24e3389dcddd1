"""Single-item forms of the library's stacked kernels.

The library certifies stacks in one pass; these one-at-a-time forms serve
the tests as independent oracles and as the acceptance suite's readable
per-item checks.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sic4.clifford import (
    SymplecticPair,
    _compose,
    _coset_keys,
    _operators,
    _pair_key,
    conjugation_action,
    enumerate_projective_clifford,
    kernel_pairs,
    semidirect_product,
    to_operator,
)
from sic4.numerics import (
    DEFAULT_TOL,
    MATCH_TOL,
    GroupElement,
    ValueClasses,
    _as_complex,
    canonical_phase,
    conjugate,
    is_unitary,
    rank1_kets as state_ket,
)
from sic4.orbits import (
    FIDUCIAL_STABILIZER,
    LABEL_GRID,
    SIC_LABELING,
    _element_of,
    element_product,
    enumerate_orbit,
    fiducial_projector,
    orbit_action,
    pair_action,
    permutation_orders,
    sic_symmetries,
)
from sic4.reconstruction import _matches_reference, _quad_index, signature_values, signatures
from sic4.regrouping import dprime_pairs, fidelity_adjacency
from sic4.two_qubit import (
    concurrence,
    gbv,
    match_sign_patterns,
    partial_transpose_simplex_checks,
    physical_state,
    reduced_purity,
    sign_pattern_table,
    violating_signs,
)
from sic4.weyl_heisenberg import displacement_table, omega, tau


def sic_states(label: int) -> np.ndarray:
    """The (16, 4, 4) states of orbit SIC ``label``, 1..16: a row of the
    family's orbit half."""
    return enumerate_orbit().projectors[16 * (label - 1) : 16 * label]


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Composition a after b; conjugation flags multiply (xor)."""
    mb = b.matrix.conj() if a.antiunitary else b.matrix
    return GroupElement(a.matrix @ mb, a.antiunitary != b.antiunitary)


def probe_proj_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """numerics.proj_equal as it was before the overlap kernel: equality up
    to a global phase of two unitaries, |tr(a^dag b)| >= d - tol, or of two
    rank-1 Hermitian projectors, |tr(a b)| >= 1 - tol, told apart by probing
    the arguments; ValueError for any other pair."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape != b.shape:
        return False
    d = a.shape[0]
    # crude unitarity probe distinguishes the two supported cases
    if is_unitary(a, 1e-6) and is_unitary(b, 1e-6):
        return abs(np.trace(a.conj().T @ b)) >= d - tol
    herm = max(np.max(np.abs(a - a.conj().T)), np.max(np.abs(b - b.conj().T)))
    if herm > 1e-6:
        raise ValueError("proj_equal expects two unitaries or two Hermitian projectors")
    return abs(np.trace(a @ b)) >= 1 - tol


def elements_proj_equal(a: GroupElement, b: GroupElement, tol: float = DEFAULT_TOL) -> bool:
    return a.antiunitary == b.antiunitary and probe_proj_equal(a.matrix, b.matrix, tol)


def canonical_key(m, decimals: int = 6) -> bytes:
    """Hashable fingerprint of a matrix modulo global phase."""
    c = canonical_phase(m)
    # +0.0 folds -0.0 into +0.0 so the byte representation is stable
    re = np.round(c.real, decimals) + 0.0
    im = np.round(c.imag, decimals) + 0.0
    return re.tobytes() + im.tobytes()


@dataclass(frozen=True)
class SignPattern:
    """One sign assignment (a, b, alpha1-3, beta1-3) of a class and basis,
    with the scalar constraint the library evaluates on sign arrays."""

    a: int
    b: int
    alpha1: int
    alpha2: int
    alpha3: int
    beta1: int
    beta2: int
    beta3: int
    class_id: int
    basis: str

    @property
    def signs(self) -> tuple:
        return (self.a, self.b, self.alpha1, self.alpha2, self.alpha3,
                self.beta1, self.beta2, self.beta3)

    def constraint_value(self) -> int:
        a, b, a1, a2, a3, b1, b2, b3 = self.signs
        prod = a1 * a2 * a3 * b1 * b2 * b3
        if self.basis == "product":
            return a * b * prod if self.class_id == 1 else b * prod
        return a * b * prod if self.class_id == 1 else -a * b * prod


@dataclass(frozen=True)
class SignFunctions:
    h1: int
    h2: int
    h3: int


def sign_functions(p: SignPattern) -> SignFunctions:
    """The scalar sign functions of one pattern."""
    a, b, a1, a2, a3, b1, b2, b3 = p.signs
    if p.basis == "product":
        if p.class_id == 1:
            return SignFunctions(b * a2 * a3 * b3, a1 * a2 * a3, a * b * a1)
        return SignFunctions(a * b * a1 * b3, -a1 * a2 * a3, b * a1)
    if p.class_id == 1:
        return SignFunctions(-b * a1 * b1 * b2 * b3, -b1 * b2 * b3, a * b * b1)
    return SignFunctions(a * b * a1, -a * b1 * b2 * b3, b * b1)


def sign_pattern(basis: str, row: int) -> SignPattern:
    """Row ``row`` of sign_pattern_table(basis) as a SignPattern."""
    class_id, *signs = sign_pattern_table(basis)[1][row, :9].tolist()
    return SignPattern(*signs, class_id=class_id, basis=basis)


def violating_patterns() -> tuple:
    """The library's violating_signs() as SignPatterns."""
    return tuple(SignPattern(*s, class_id=1, basis="product") for s in violating_signs().T.tolist())


def match_sign_pattern(g, basis: str = "product", tol: float = 1e-7):
    """The unique constraint-satisfying table row reproducing one GBV, as a
    SignPattern, or None: match_sign_patterns for a stack of one."""
    row = int(match_sign_patterns(g, basis, tol)[0])
    return None if row < 0 else sign_pattern(basis, row)


def partial_transpose_simplex_check(p: SignPattern, orbit=None, tol: float = 1e-9) -> bool:
    """partial_transpose_simplex_checks for one product-basis class-1 pattern."""
    if p.basis != "product" or p.class_id != 1:
        raise ValueError("expected a product-basis class-1 pattern")
    return bool(partial_transpose_simplex_checks(np.array(p.signs), orbit, tol)[0])


def match_sign_patterns_by_full_scan(g, basis: str = "product", tol: float = 1e-7) -> np.ndarray:
    """match_sign_patterns as it was: the Chebyshev distance from every GBV
    to every table row, one coefficient at a time, without a screen."""
    flat = g.flat().reshape(-1, 15)
    vectors = sign_pattern_table(basis)[0]
    dist = np.zeros((len(flat), len(vectors)))
    for k in range(15):
        np.maximum(dist, np.abs(flat[:, k, None] - vectors[:, k]), out=dist)
    hits = dist <= tol
    counts = hits.sum(axis=1)
    if counts.max(initial=0) > 1:
        raise ValueError("GBV matches %d sign patterns, table is degenerate" % counts.max())
    return np.where(counts == 1, hits.argmax(axis=1), -1)


def coincident_point_split(points, tol: float = 1e-8) -> np.ndarray:
    """reduced_state_census's split before value_classes: for each of N
    points, the earliest point within tol of it in every component."""
    return (np.max(np.abs(points[:, None] - points[None]), axis=2) <= tol).argmax(axis=1)


def distance_value_starts(dists, gap: float = 1e-7) -> np.ndarray:
    """_detect_cube's split before value_classes: the indices of sorted
    distances that step above their predecessor by more than gap."""
    return np.flatnonzero(np.diff(dists, prepend=-np.inf) > gap)


def reduced_state_census_per_sic(states, qubit: int = 1, basis: str = "product", tol: float = 1e-8) -> tuple:
    """reduced_state_census as it was, for one SIC's (16, 4, 4) states with
    its own gbv call: (points, multiplicities, is_cube, edge)."""
    g = gbv(physical_state(states, basis))
    points = g.s if qubit == 0 else g.r
    first = coincident_point_split(points, tol)
    reps = np.flatnonzero(first == np.arange(len(points)))
    distinct = points[reps]
    is_cube, edge = False, None
    if len(distinct) == 8:
        i, j = np.triu_indices(8, 1)
        dists = np.sort(np.linalg.norm(distinct[i] - distinct[j], axis=1))
        starts = distance_value_starts(dists)
        if np.diff(np.append(starts, len(dists))).tolist() == [12, 12, 4]:
            e, face, body = dists[starts].tolist()
            if abs(face - np.sqrt(2) * e) <= 1e-7 and abs(body - np.sqrt(3) * e) <= 1e-7:
                is_cube, edge = True, e
    return distinct, tuple(np.bincount(first)[reps].tolist()), is_cube, edge


def reference_quads_by_full_eigvalsh(states) -> np.ndarray:
    """reference_quads as it was: the signature of every 4-subset, without
    the tr(m^3) screen."""
    index = _quad_index()
    return index[_matches_reference(signatures(states, index))]


def eig_hermitian(m, tol: float = DEFAULT_TOL):
    """Ascending eigenvalues and column eigenvectors of a Hermitian matrix,
    or of each of an (S, d, d) stack (ValueError beyond ``tol`` from
    Hermitian), each eigenvector scaled so its first largest-magnitude
    component is real and positive."""
    m = _as_complex(m, stacked=np.ndim(m) == 3)
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > tol:
        raise ValueError("matrix is not Hermitian within tol")
    w, v = np.linalg.eigh(m)
    top = np.take_along_axis(v, np.abs(v).argmax(axis=-2)[..., None, :], axis=-2)
    # np.hypot rounds |x| as abs() of one complex scalar does; np.abs of an array can be an ulp off
    return w, v / (top / np.hypot(top.real, top.imag))


def phase_operator_by_projectors(m) -> np.ndarray:
    """phase_operator as it was: eig_hermitian's phase-fixed eigenkets, the
    four projectors v v^dag each scaled by its i^k and summed in eigenpair
    order.  Only the eigenvalue tagging is shared with the library."""
    w, v = eig_hermitian(m, tol=1e-8)
    k = np.abs(w[..., :, None] - np.array(signature_values())).argmin(axis=-1)
    projectors = v[..., :, None, :] * v[..., None, :, :].conj()  # [..., a, b, eigenpair]
    terms = np.array([1, 1j, -1, -1j])[k][..., None, None, :] * projectors
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def uniqueness_check_per_sic(indices) -> bool:
    """uniqueness_check as it was, one SIC at a time: every unitary element
    tried on all 16 states, orders by repeated composition, closure by
    comparing whole rows; ValueError when the group does not have order 48."""
    indices = np.asarray(indices)
    position = np.full(256, -1)
    position[indices] = np.arange(len(indices))
    n = len(enumerate_projective_clifford(4, extended=False))
    perms = position[orbit_action()[:n, indices]]
    perms = perms[np.all(perms >= 0, axis=1)]
    if len(perms) != 48:
        raise ValueError("symmetry group inside the Clifford group has order %d, expected 48" % len(perms))
    tp = perms[np.isin(permutation_orders(perms), (1, 2, 4, 8, 16))]
    return len(tp) == 16 and bool(np.all(np.any(np.all(tp[:, tp][..., None, :] == tp, axis=-1), axis=-1)))


def normal_subgroups_by_inverses(subgroups, by) -> np.ndarray:
    """The normality test as it was in the subgroup census and the symmetry
    certificate: each unitary element row g of ``by`` paired with its
    inverse by an argmax scan of its products with the 768 unitary rows,
    and every g s g^-1 looked up in a (K, 1536) membership table of the
    (K, n) subgroups."""
    subgroups, by = np.asarray(subgroups), np.asarray(by)
    inverses = np.argmax(element_product(by[:, None], np.arange(768)) == _element_of()[1], axis=1)
    conjugates = element_product(element_product(by[:, None, None], subgroups), inverses[:, None, None])
    rows = np.arange(len(subgroups))[:, None]
    member = np.zeros((len(subgroups), len(orbit_action())), dtype=bool)
    member[rows, subgroups] = True
    return np.all(member[rows, conjugates], axis=(0, 2))


def first_distinct_spans_by_unique(spans) -> np.ndarray:
    """The census's span dedup as it was: np.unique over rows."""
    return np.sort(np.unique(spans, axis=0, return_index=True)[1])


def rounded_census(values, decimals: int = 9) -> dict:
    """{value rounded to decimals: count} over a 1-d array, keyed in order
    of first appearance: the concurrence census before value_classes."""
    keys, first, counts = np.unique(np.round(values, decimals), return_index=True, return_counts=True)
    order = np.argsort(first)
    return dict(zip(keys[order].tolist(), counts[order].tolist()))


def cluster_complex(values, gap: float = 1e-6):
    """The triple census's split before value_classes: complex values
    merged exactly after rounding to 9 decimals, the distinct keys joined
    by a union-find when within gap, each center the mean of its members'
    raw values, and the clusters ordered by (re, im) of their centers
    rounded to 9 decimals.  Returns the (center, multiplicity) pairs and
    the cluster index of each value."""
    values = np.asarray(values, dtype=complex)
    # complex values sort by (re, im), as the rows of (re, im) pairs would
    keys, key_of = np.unique(np.round(values, 9), return_inverse=True)
    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if abs(keys[i] - keys[j]) <= gap:
                parent[find(i)] = find(j)
    _, cluster_of = np.unique([find(i) for i in range(len(keys))], return_inverse=True)
    member_of = cluster_of[key_of.ravel()]
    counts = np.bincount(member_of)
    centers = (np.bincount(member_of, values.real) + 1j * np.bincount(member_of, values.imag)) / counts
    order = np.lexsort((np.round(centers.imag, 9), np.round(centers.real, 9)))
    ids = np.argsort(order)[member_of]
    return list(zip(centers[order].tolist(), counts[order].tolist())), ids


def triple_orbits_by_all_symmetries() -> np.ndarray:
    """The least code 256 a + 16 b + c on the orbit of each ordered triple
    of distinct SIC 1 states, in lexicographic order: the images of every
    triple under all 96 rows of sic_symmetries times the 3 cyclic shifts,
    an antiunitary row reversing the image triple, with no generators."""
    sym = sic_symmetries(np.arange(16)[None], extended=True)[:, 1]
    g = orbit_action()[sym, :16].astype(int)
    anti = enumerate_projective_clifford(4, extended=True).anti[sym][:, None]
    a, b, c = np.indices((16, 16, 16)).reshape(3, -1)
    distinct = (a != b) & (b != c) & (a != c)
    least = np.full(np.count_nonzero(distinct), 4096)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        gx, gy, gz = g[:, x[distinct]], g[:, y[distinct]], g[:, z[distinct]]
        codes = 256 * np.where(anti, gz, gx) + 16 * gy + np.where(anti, gx, gz)
        least = np.minimum(least, codes.min(axis=0))
    return least


def concurrence_census(states, basis: str = "product", decimals: int = 9) -> dict:
    """Rounded concurrences of one SIC's states with their counts."""
    return rounded_census(concurrence(state_ket(physical_state(states, basis))), decimals)


def bloch_vectors(states, basis: str = "product", qubit: int = 0) -> np.ndarray:
    """The Bloch vectors of one qubit's reduced states of a (..., 4, 4)
    stack of states of the defining basis, read off one gbv call."""
    states = np.asarray(states)
    g = gbv(physical_state(states.reshape(-1, 4, 4), basis))
    return (g.s if qubit == 0 else g.r).reshape(states.shape[:-2] + (3,))


def avg_reduced_purity(states, basis: str = "product", qubit: int = 0) -> float:
    return float(np.mean(reduced_purity(bloch_vectors(states, basis, qubit))))


def state_action(mats, anti, states, targets):
    """Where conjugation by each of N elements sends each of M states: the
    float reference that orbits.orbit_action is tested against.

    ``mats`` (N, d, d) and ``anti`` (N flags) give the elements; states and
    targets are rank-1 projectors (rank1_kets raises otherwise), shared by
    all elements or, as (N, M, d, d) stacks, one list for each.  Returns the
    (N, M) index of the target with the largest overlap
    |<target| g psi>|^2 = tr(target g rho g^-1), with psi-bar for an
    antiunitary element, and that overlap; callers apply their own
    threshold.  Kets are read off the projectors once; one batched product
    applies every element to its kets and one GEMM (a batched product for
    per-element targets) takes all N * M * T overlaps, so callers with many
    elements pass them in blocks.
    """
    mats = np.asarray(mats, dtype=complex)
    anti = np.asarray(anti, dtype=bool).astype(np.intp)
    kets = np.swapaxes(state_ket(states), -1, -2)
    sources = np.stack([kets, kets.conj()])  # indexed by the antiunitarity flag
    per_element = (np.arange(len(mats)),) if kets.ndim == 3 else ()
    images = np.swapaxes(mats @ sources[(anti,) + per_element], -1, -2)
    bras = np.swapaxes(state_ket(targets), -1, -2).conj()
    z = images @ bras if bras.ndim == 3 else images.reshape(-1, mats.shape[-1]) @ bras
    ov = np.square(z.real)
    ov += np.square(z.imag)
    return ov.argmax(axis=-1).reshape(images.shape[:2]), ov.max(axis=-1).reshape(images.shape[:2])


def state_permutations_by_action(mats, states) -> np.ndarray:
    """orbits.state_permutations as it was: through the general state_action,
    which reads the kets of the states once as sources and once as targets."""
    index, ov = state_action(mats, np.zeros(len(mats), dtype=bool), states, states)
    hit = np.zeros(index.shape, dtype=bool)
    np.put_along_axis(hit, index, True, axis=1)  # every state is an image
    if ov.min() < 1.0 - MATCH_TOL or not hit.all():
        raise ValueError("conjugation does not permute the state set")
    return index


def h_orbits(sic_label: int) -> list:
    """The four blocks of one SIC under the translations by (0, 0), (2, 0),
    (0, 2), (2, 2), which implement conjugation by I, X^2, Z^2, X^2 Z^2; each
    block is a sorted tuple of orbit indices."""
    base = (sic_label - 1) * 16
    return [
        tuple(sorted(base + 4 * ((p1 + a) % 4) + ((p2 + b) % 4) for a, b in ((0, 0), (2, 0), (0, 2), (2, 2))))
        for p1, p2 in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]


def regroup_by_search(orbit) -> tuple:
    """The regrouped family by a per-block search: each block of a row's
    first SIC, with the one block of each other SIC of the row at uniform
    cross-fidelity 1/5.  Returns (matching, states): the four blocks of each
    new SIC and its states in sorted index order, rows in grid order."""
    matching, states = [], []
    for row in LABEL_GRID:
        blocks = {lab: h_orbits(lab) for lab in row}
        for seed in blocks[row[0]]:
            chosen = [seed]
            for lab in row[1:]:
                hits = [b for b in blocks[lab] if fidelity_adjacency(orbit, seed + b)[:4, 4:].all()]
                if len(hits) != 1:
                    raise ValueError("block %r has %d partners in SIC %d" % (seed, len(hits), lab))
                chosen.append(hits[0])
            matching.append(chosen)
            states.append(orbit.projectors[sorted(itertools.chain.from_iterable(chosen))])
    return matching, states


def symplectic_group_matrices(db: int, det: int = 1) -> tuple:
    """All 2x2 matrices over Z_db with the given determinant, as 4-tuples
    (a, b, c, e) in lexicographic order: one determinant mask over all
    db^4 entry combinations.  clifford._sector's F enumeration."""
    a, b, c, e = f = np.indices((db,) * 4).reshape(4, -1)
    return tuple(map(tuple, f[:, (a * e - b * c) % db == det % db].T.tolist()))


def symplectic_group_matrices_by_loop(db: int, det: int = 1) -> tuple:
    """symplectic_group_matrices as it was: one determinant test per
    4-tuple of itertools.product."""
    return tuple(f for f in itertools.product(range(db), repeat=4) if (f[0] * f[3] - f[1] * f[2]) % db == det % db)


def coset_keys_int64(f, chi, d: int) -> np.ndarray:
    """clifford._coset_keys as it was: on the components as given, int64
    views of the (N, 4) and (N, 2) enumeration arrays."""
    db = 2 * d
    return np.min([_pair_key(*_compose(f, chi, k.F, k.chi, db, d), d) for k in kernel_pairs(d)], axis=0)


def sector_by_pair_selection(d: int, det: int) -> tuple:
    """clifford._sector as it was: every one of the pairs with det F = det,
    F outer and chi inner, named by its coset key, the first pair of each
    name kept, and the kept pairs' operators built from their own (F, chi)."""
    fs = np.array(symplectic_group_matrices_by_loop(2 * d, det))
    chis = np.array(list(itertools.product(range(d), repeat=2)))
    f, chi = np.repeat(fs, len(chis), axis=0), np.tile(chis, (len(fs), 1))
    first = np.sort(np.unique(_coset_keys(f.T, chi.T, d), return_index=True)[1])
    mats, anti = _operators(f[first].T, chi[first].T, d)
    return f[first], chi[first], mats, anti


def value_classes_one_list(values, gap: float) -> ValueClasses:
    """numerics.value_classes as it was before the stacked kernel: the
    leader passes and the class sums of one list, and ValueError when it
    cannot split."""
    values = np.asarray(values)
    flat = np.ascontiguousarray(values.reshape(len(values), -1))
    x = np.ascontiguousarray((flat.view(float) if np.iscomplexobj(flat) else flat.astype(float, copy=False)).T)
    if not np.isfinite(x).all():
        raise ValueError("values to split into classes are not finite")
    classes, unclassed, first = np.zeros(len(values), dtype=np.intp), np.ones(len(values), dtype=bool), []
    while unclassed[i := unclassed.argmax()]:
        near = unclassed & (np.square(x - x[:, i, None]).sum(axis=0) <= gap * gap / 4)
        classes[near] = len(first)
        unclassed ^= near
        first.append(i)
    k = len(first)
    counts = np.bincount(classes, minlength=k)
    sums = np.array([np.bincount(classes, row, k) for row in x])
    c = sums / counts
    if np.iscomplexobj(values):
        sums = sums[0::2] + 1j * sums[1::2]
    centers = (sums.T / counts[:, None]).reshape((k,) + values.shape[1:])
    spread = math.sqrt(np.square(x - np.take(c, classes, axis=1)).sum(axis=0).max())
    separation, rows = math.inf, max(1, (1 << 16) // k)
    for j in range(0, k, rows):
        square = np.square(c[:, j : j + rows, None] - c[:, None]).sum(axis=0)
        square.reshape(-1)[j :: k + 1] = np.inf
        separation = min(separation, math.sqrt(square.min()))
    if 2 * spread > gap or separation <= gap:
        raise ValueError("no split into classes at gap %.3g: spread %.3g, separation %.3g" % (gap, spread, separation))
    return ValueClasses(classes, counts, np.array(first), centers, spread, separation)


def orbit_projectors_per_label() -> np.ndarray:
    """enumerate_orbit's projectors as they were built: each label's seed
    V_n rho_f V_n^dag from its own to_operator and conjugate calls."""
    fids = np.stack([conjugate(to_operator(pair), fiducial_projector()) for pair in SIC_LABELING])
    disp = displacement_table(4).reshape(16, 4, 4)
    return (disp @ fids[:, None] @ disp.conj().swapaxes(-1, -2)).reshape(256, 4, 4)


def orbit_action_by_coset_loop() -> np.ndarray:
    """orbits.orbit_action as it was: the state lookup filled one of the 48
    stabilizer cosets s k at a time, and the affine step read off a 2-d
    gather."""
    d, db = 4, 8
    group = enumerate_projective_clifford(d, extended=True)
    fn, p = np.array([pair.F for pair in SIC_LABELING]).T, np.indices((d, d)).reshape(2, d * d)
    state = np.full(db**4 * d * d, -1, dtype=np.int16)
    stabilizer = itertools.accumulate([FIDUCIAL_STABILIZER] * 6, semidirect_product)
    for sk in itertools.starmap(semidirect_product, itertools.product(stabilizer, kernel_pairs(d))):
        names = _compose(fn[:, :, None], p[:, None, :], sk.F, sk.chi, db, d)
        state[_pair_key(*names, d)] = np.arange(256).reshape(16, 16)
    assert np.count_nonzero(state >= 0) == 256 * 6 * 8
    f, chi = group.f.T[:, :, None], group.chi.T[:, :, None]
    image = state[_pair_key(*_compose(f, chi, fn[:, None, :], (0, 0), db, d), d)]
    assert image.min() >= 0
    fp = _compose(f, (0, 0), (1, 0, 0, 1), p[:, None, :], db, d)[1]
    fp = (fp[0] * d + fp[1]).astype(np.uint8)
    chisum = ((p[0][:, None] + p[0]) % d * d + (p[1][:, None] + p[1]) % d).astype(np.uint8)
    q = image % 16
    return ((image - q)[:, :, None] + chisum[q[:, :, None], fp[:, None, :]]).reshape(len(group), 256)


def conjugation_cycle_per_step(pair, p) -> list:
    """orbits.conjugation_cycle as it was: every step's conjugation_action
    builds the operator of pair anew."""
    cycle = [tuple(p)]
    while True:
        _, q = conjugation_action(pair, cycle[-1])
        if q == cycle[0]:
            return cycle
        cycle.append(q)


def label_permutation_group_by_dict(extended: bool = False) -> dict:
    """orbits.label_permutation_group as it was: a dict filled one element
    row of orbit_action at a time."""
    n = len(enumerate_projective_clifford(4, extended=extended))
    perms = {}
    for i, perm in enumerate((orbit_action()[:n, ::16] // 16).tolist()):
        perms.setdefault(tuple(perm), []).append(i)
    return perms


def displacement_table_by_matrix_power(d: int) -> np.ndarray:
    """displacement_table as it was: tau^(a b) X^a Z^b pair by pair, the
    powers taken by np.linalg.matrix_power."""
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(omega(d) ** np.arange(d))
    t = np.empty((d, d, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            t[a, b] = tau(d) ** ((a * b) % (2 * d)) * np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
    return t


def dprime_covariant(indices) -> np.ndarray:
    """Whether D' permutes each of an (S, M) stack of sets of orbit states,
    given by their sorted orbit indices, exactly: the (S,) verdicts that
    the sorted images of a set's indices under the pair_action of each of
    the 16 dprime_pairs are those indices.  The integer form of
    regrouping.dprime_permutes, which asks it of the float states."""
    f, chi = zip(*((p.F, p.chi) for p in dprime_pairs()))
    indices = np.asarray(indices)
    return np.all(np.sort(pair_action(f, chi)[:, indices], axis=-1) == indices, axis=(0, 2))


@functools.cache
def argparse_parser():
    """The argparse parser that sic4's command line was read with: the
    reference for cli._parse_args, built once, as parse_args leaves it
    unchanged.  parse_args exits 2 on an argv it rejects and 0 after the
    help."""
    import argparse

    from sic4.cli import _SUBCOMMANDS, _tolerance

    def tolerance(text):
        try:
            return _tolerance(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = argparse.ArgumentParser(
        prog="sic4",
        description="certify the structure of the dimension-4 covariant SIC-POVM family",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
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


@functools.cache
def _quotient() -> tuple:
    """(coset names, name -> index) of the 768 unitary cosets, named one
    element at a time by coset."""
    names = tuple(coset(e.source) for e in enumerate_projective_clifford(4, extended=False))
    return names, {name: i for i, name in enumerate(names)}


def coset(pair) -> tuple:
    """clifford.coset_names of one pair, one kernel pair at a time: the
    least (F, chi), as nested tuples, in its coset of the kernel."""
    return min(_compose(pair.F, pair.chi, k.F, k.chi, pair.dbar, pair.d) for k in kernel_pairs(pair.d))


def displacement_coset(p1: int, p2: int):
    """Coset name of the displacement with index (p1, p2)."""
    return coset(SymplecticPair((1, 0, 0, 1), (p1, p2), 4))
