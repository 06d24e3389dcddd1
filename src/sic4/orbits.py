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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import (
    SymplecticPair,
    conjugation_action,
    enumerate_projective_clifford,
    semidirect_product,
    to_operator,
)
from .numerics import DEFAULT_TOL, conjugate
from .weyl_heisenberg import SicPovm, displacement_table, fiducial_ket_d4

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

LABEL_GRID = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16))

# elements per block in state_action at its largest shape, 16 states against
# the 256-state orbit: a (256, 256) complex overlap block of 1 MB, which
# stays in cache (64 elements per block took twice as long); smaller shapes
# take proportionally more elements per block
ACTION_BLOCK = 16

# overlap |<target| g psi>|^2 at or above 1 - MATCH_TOL names the image
MATCH_TOL = 1e-6

# largest entry of rho - k k^dag for the ket k that state_action reads off a
# state; beyond it the state is not rank-1 and |<target| g k>|^2 would no
# longer be tr(target g rho g^-1), so the kernel refuses it
RANK1_TOL = 1e-6


def fiducial_projector() -> np.ndarray:
    v = fiducial_ket_d4()
    return np.outer(v, v.conj())


@dataclass
class FiducialOrbit:
    """All 256 orbit projectors with their SIC labels and displacement indices."""

    projectors: np.ndarray  # (256, 4, 4)

    def global_index(self, label: int, p) -> int:
        return (label - 1) * 16 + 4 * (p[0] % 4) + (p[1] % 4)

    def sic_membership(self, i: int) -> int:
        return i // 16 + 1

    def hw_index(self, i: int):
        return i // 16 + 1, ((i % 16) // 4, i % 4)

    def sic(self, label: int) -> SicPovm:
        return SicPovm(4, self.projectors[(label - 1) * 16 : label * 16], label="sic-%d" % label)

    def fiducial(self, label: int) -> np.ndarray:
        return self.projectors[(label - 1) * 16]

    def find(self, rho, tol: float = MATCH_TOL) -> int:
        """Global index of the orbit projector equal to rho, or -1."""
        ov = np.abs(np.einsum("nij,ji->n", self.projectors, np.asarray(rho, dtype=complex)))
        i = int(np.argmax(ov))
        return i if ov[i] >= 1.0 - tol else -1


@lru_cache(maxsize=None)
def enumerate_orbit() -> FiducialOrbit:
    """Build the 256-projector orbit, one SIC per label.

    State (n, p) is D_p V_n rho_f V_n^dag D_p^dag.  Projective distinctness
    of all 256 projectors is asserted.
    """
    rho = fiducial_projector()
    tbl = displacement_table(4)
    projs = np.empty((256, 4, 4), dtype=complex)
    for n, pair in enumerate(SIC_LABELING, start=1):
        u = to_operator(pair)
        fid = conjugate(u, rho)
        for p1 in range(4):
            for p2 in range(4):
                dp = tbl[p1, p2]
                projs[(n - 1) * 16 + 4 * p1 + p2] = dp @ fid @ dp.conj().T
    flat = projs.reshape(256, 16)
    gram = np.abs(flat.conj() @ flat.T)
    off = gram - np.diag(np.diag(gram))
    if off.max() >= 1.0 - 1e-6:
        raise AssertionError("orbit projectors are not projectively distinct")
    return FiducialOrbit(projs)


@lru_cache(maxsize=None)
def element_arrays(extended: bool = True):
    """Enumerated Clifford elements with stacked matrices for vector ops."""
    els = enumerate_projective_clifford(4, extended=extended)
    mats = np.stack([e.op.matrix for e in els])
    anti = np.array([e.op.antiunitary for e in els])
    return els, mats, anti


def _kets(states) -> np.ndarray:
    """(M, d) kets k with k k^dag = rho for a stack of M rank-1 states: each
    state's column through its largest diagonal entry, scaled to that
    entry's root.  A state farther than RANK1_TOL from k k^dag raises
    ValueError."""
    states = np.asarray(states, dtype=complex)
    m = np.arange(len(states))
    j = np.argmax(np.diagonal(states, axis1=1, axis2=2).real, axis=1)
    kets = states[m, :, j] / np.sqrt(np.abs(states[m, j, j]))[:, None]
    dev = np.max(np.abs(states - kets[:, :, None] * kets[:, None, :].conj()))
    if not dev <= RANK1_TOL:  # also refuses NaN
        raise ValueError("state is not a rank-1 projector (deviation %.3g)" % dev)
    return kets


def state_action(mats, anti, states, targets):
    """Where conjugation by each of N elements sends each of M states.

    ``mats`` (N, d, d) and ``anti`` (N flags) give the elements; states and
    targets are rank-1 projectors (ValueError otherwise).  Returns the (N, M)
    index of the target with the largest overlap |<target| g psi>|^2 =
    tr(target g rho g^-1), with psi-bar for an antiunitary element, and that
    overlap; callers apply their own threshold.  Kets are read off the
    projectors once; per block of elements one batched product applies them
    to every ket and one GEMM takes all overlaps.
    """
    mats = np.asarray(mats, dtype=complex)
    anti = np.asarray(anti, dtype=bool).astype(np.intp)
    kets = _kets(states).T
    sources = np.stack([kets, kets.conj()])  # indexed by the antiunitarity flag
    bras = _kets(targets).conj().T
    d, m = kets.shape
    step = ACTION_BLOCK * max(1, 16 * 256 // (m * bras.shape[1]))
    index = np.empty((len(mats), m), dtype=np.intp)
    overlap = np.empty(index.shape)
    for lo in range(0, len(mats), step):
        g = mats[lo : lo + step]
        images = (g @ sources[anti[lo : lo + step]]).transpose(0, 2, 1).reshape(-1, d)
        z = images @ bras
        ov = np.square(z.real)
        ov += np.square(z.imag)
        best = ov.argmax(axis=1)
        index[lo : lo + len(g)] = best.reshape(len(g), m)
        overlap[lo : lo + len(g)] = ov[np.arange(len(best)), best].reshape(len(g), m)
    return index, overlap


def stability_group(rho, tol: float = DEFAULT_TOL) -> list:
    """Extended-Clifford elements fixing an orbit projector, as a list.

    The input must be one of the 256 orbit projectors.
    """
    orbit = enumerate_orbit()
    if orbit.find(rho) < 0:
        raise ValueError("projector is not on the fiducial orbit")
    rho = np.asarray(rho, dtype=complex)[None]
    els, mats, anti = element_arrays(extended=True)
    _, ov = state_action(mats, anti, rho, rho)
    return [els[i] for i in np.flatnonzero(ov[:, 0] >= 1.0 - tol)]


def stabilizer_orbits_within_sic() -> list:
    """Orbits of the 15 non-fiducial SIC-1 states under the unitary
    stabilizer element (the square of the antiunitary generator)."""
    sq = semidirect_product(FIDUCIAL_STABILIZER, FIDUCIAL_STABILIZER)
    seen = set()
    orbits = []
    for p in np.ndindex(4, 4):
        if p == (0, 0) or p in seen:
            continue
        cyc = [p]
        seen.add(p)
        q = p
        while True:
            _, q = conjugation_action(sq, q)
            if q == p:
                break
            cyc.append(q)
            seen.add(q)
        orbits.append(cyc)
    return orbits


def _cluster_complex(values, gap: float = 1e-6):
    """Group complex values into clusters whose centers differ by > gap.

    Values are first merged exactly after rounding to 9 decimals; the few
    distinct keys are then joined when within ``gap`` of each other.
    """
    values = np.asarray(values, dtype=complex)
    # + 0.0 folds -0.0 into +0.0, as equal keys must be equal rows
    rounded = np.round(np.stack([values.real, values.imag], axis=1), 9) + 0.0
    rows, counts = np.unique(rounded, axis=0, return_counts=True)
    keys = [(float(re), float(im)) for re, im in rows]
    uniq = dict(zip(keys, counts.tolist()))
    parent = list(range(len(keys)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if abs(complex(*keys[i]) - complex(*keys[j])) <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(find(i), []).append(k)
    out = []
    for members in groups.values():
        tot = sum(uniq[m] for m in members)
        center = sum(complex(*m) * uniq[m] for m in members) / tot
        out.append((center, tot))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def _distinct_triples(states):
    """tr(r_a r_b r_c) for the ordered triples of distinct states, in
    lexicographic (a, b, c) order, and the (n, n, n) mask selecting them."""
    t = np.einsum("aij,bjk,cki->abc", states, states, states)
    a, b, c = np.indices(t.shape)
    mask = (a != b) & (b != c) & (a != c)
    return t[mask], mask


def triple_trace_census(label: int = 1, gap: float = 1e-6):
    """Clustered values of tr(r1 r2 r3) over ordered triples of distinct
    states of one SIC, as (value, multiplicity) pairs."""
    vals, _ = _distinct_triples(enumerate_orbit().sic(label).states)
    return _cluster_complex(vals, gap)


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


def permutation_order(p) -> int:
    """Smallest n >= 1 with p^n the identity."""
    return int(permutation_orders([p])[0])


def _is_member(rows, group) -> np.ndarray:
    """Which permutations of a (..., n) stack are rows of the (k, n) group."""
    return np.any(np.all(rows[..., None, :] == group, axis=-1), axis=-1)


def two_power_subgroup(perms) -> tuple:
    """The elements of 2-power order of a (P, n) permutation group, as a
    (k, n) array, and whether they number 16 and close under composition."""
    perms = np.asarray(perms)
    tp = perms[np.isin(permutation_orders(perms), (1, 2, 4, 8, 16))]
    # tp[:, tp][a, b] = tp[a] after tp[b]
    return tp, len(tp) == 16 and bool(np.all(_is_member(tp[:, tp], tp)))


@dataclass
class SymmetryReport:
    extended_order: int
    unitary_order: int
    stabilizer_order: int
    hw_is_unique_order16: bool
    rigid_permutation_count: int


def _permutations_on_states(mats, orbit: FiducialOrbit, label: int = 1) -> np.ndarray:
    """How each of a stack of unitary symmetries permutes the 16 states of
    one SIC, as an (N, 16) array."""
    base = (label - 1) * 16
    sic = orbit.projectors[base : base + 16]
    index, ov = state_action(mats, np.zeros(len(mats), dtype=bool), sic, orbit.projectors)
    if ov.min() < 1.0 - MATCH_TOL or np.any(index // 16 != label - 1):
        raise ValueError("element does not preserve the SIC")
    return index - base


def symmetry_group_of_sic(label: int = 1, tol: float = DEFAULT_TOL):
    """All enumerated extended-Clifford elements mapping a SIC onto itself."""
    orbit = enumerate_orbit()
    els, mats, anti = element_arrays(extended=True)
    targets = orbit.projectors[(label - 1) * 16 : label * 16]
    _, ov = state_action(mats, anti, orbit.fiducial(label)[None], targets)
    return [els[i] for i in np.flatnonzero(ov[:, 0] >= 1.0 - tol)]


def _triple_cluster_ids(states, gap: float = 1e-6):
    """Tensor of census cluster ids for ordered triples of distinct states."""
    vals, mask = _distinct_triples(states)
    centers = np.array([c for c, _ in _cluster_complex(vals, gap)])
    dist = np.abs(vals[:, None] - centers[None, :])
    nearest = dist.argmin(axis=1)
    if np.any(dist[np.arange(len(vals)), nearest] > gap):
        raise AssertionError("triple value does not match any cluster")
    ids = -np.ones(mask.shape, dtype=int)
    ids[mask] = nearest
    return ids


def rigid_permutations(label: int = 1, limit: int = 10):
    """Permutations of a SIC's states fixing the fiducial and preserving all
    triple traces, found by exhaustive backtracking.

    Used to certify that nothing beyond the unitary stabilizer survives the
    full set of triple invariants.  Stops early after ``limit`` hits.
    """
    orbit = enumerate_orbit()
    states = orbit.sic(label).states
    ids = _triple_cluster_ids(states)
    n = 16
    perm = [0] + [-1] * (n - 1)
    used = [False] * n
    used[0] = True
    found = []

    def ok(k):
        # all triples within {0..k} x {0..k} x {k} already assigned
        for a in range(k + 1):
            for b in range(k + 1):
                for c in (k,):
                    for tri in ((a, b, c), (a, c, b), (c, a, b)):
                        x, y, z = tri
                        if x != y and y != z and x != z and ids[x, y, z] != ids[perm[x], perm[y], perm[z]]:
                            return False
        return True

    def rec(k):
        if len(found) >= limit:
            return
        if k == n:
            found.append(tuple(perm))
            return
        for cand in range(n):
            if used[cand]:
                continue
            perm[k] = cand
            used[cand] = True
            if ok(k):
                rec(k + 1)
            perm[k] = -1
            used[cand] = False

    rec(1)
    return found


def verify_symmetry_group_in_clifford(tol: float = DEFAULT_TOL) -> SymmetryReport:
    """Certify the symmetry-group structure of SIC 1 inside the enumerated
    extended Clifford group.

    Checks the 96/48 symmetry-group orders, the order-6 stabilizer of the
    fiducial, uniqueness of the order-16 subgroup (which equals the
    displacement group), and that triple-trace-preserving permutations are
    exhausted by the unitary stabilizer.
    """
    orbit = enumerate_orbit()
    sym = symmetry_group_of_sic(1, tol)
    unitary = [e for e in sym if not e.op.antiunitary]
    stab = stability_group(orbit.fiducial(1), tol)

    mats = np.stack([e.op.matrix for e in unitary])
    perms = _permutations_on_states(mats, orbit)
    if len({tuple(p) for p in perms.tolist()}) != len(unitary):
        raise AssertionError("state action of the symmetry group is not faithful")

    # the unique order-16 subgroup: exactly 16 elements of 2-power order,
    # closed under composition, normal, and equal to the displacements
    tp, unique16 = two_power_subgroup(perms)
    if unique16:
        # conj[h, g] = g after tp[h] after g^-1
        conj = np.take_along_axis(perms[None], tp[:, np.argsort(perms, axis=1)], axis=2)
        unique16 = bool(np.all(_is_member(conj, tp)))
    if unique16:
        disp = _permutations_on_states(displacement_table(4).reshape(16, 4, 4), orbit)
        unique16 = bool(np.all(_is_member(disp, tp)) and np.all(_is_member(tp, disp)))

    rigid = rigid_permutations(1, limit=10)
    return SymmetryReport(
        extended_order=len(sym),
        unitary_order=len(unitary),
        stabilizer_order=len(stab),
        hw_is_unique_order16=bool(unique16),
        rigid_permutation_count=len(rigid),
    )


def symmetry_action(pair: SymplecticPair, tol: float = MATCH_TOL) -> tuple:
    """Permutation of SIC labels 1..16 induced by a Clifford element.

    Entry n-1 of the result is the label of the image of SIC n.
    """
    orbit = enumerate_orbit()
    u = to_operator(pair)
    fids = orbit.projectors[::16]
    index, ov = state_action(u.matrix[None], [u.antiunitary], fids, orbit.projectors)
    if ov.min() < 1.0 - tol:
        raise ValueError("element does not map the orbit to itself")
    return tuple((index[0] // 16 + 1).tolist())


@lru_cache(maxsize=None)
def label_permutation_group(extended: bool = False):
    """Distinct label permutations induced by the (extended) Clifford group,
    each with the elements inducing it, in enumeration order."""
    orbit = enumerate_orbit()
    els, mats, anti = element_arrays(extended=extended)
    index, ov = state_action(mats, anti, orbit.projectors[::16], orbit.projectors)
    if ov.min() < 1.0 - MATCH_TOL:
        raise ValueError("orbit not closed under the Clifford group")
    perms = {}
    for e, perm in zip(els, (index // 16).tolist()):
        perms.setdefault(tuple(perm), []).append(e)
    return perms


def triple_family(theta: float, d: int):
    """Three unit kets with pairwise fidelity 1/(d+1), parametrized by theta."""
    if d < 3:
        raise ValueError("family needs d >= 3")
    ct = np.cos(theta)
    root = np.sqrt(ct * ct + d)
    u = (-ct + root) / np.sqrt(d * (d + 1))
    v = np.sqrt((d * d - d - 2 * ct * ct + 2 * ct * root) / (d * (d + 1)))
    f1 = np.zeros(d, dtype=complex)
    f1[0] = 1.0
    f2 = np.zeros(d, dtype=complex)
    f2[0] = 1.0 / np.sqrt(d + 1)
    f2[1] = np.sqrt(d) / np.sqrt(d + 1)
    f3 = np.zeros(d, dtype=complex)
    f3[0] = 1.0 / np.sqrt(d + 1)
    f3[1] = u * np.exp(1j * theta)
    f3[2] = v
    return f1, f2, f3


def triple_phase(theta: float, d: int) -> float:
    """Argument of the triple product for the family, on the branch
    [-pi, pi)."""
    ct = np.cos(theta)
    z = 1.0 + np.exp(1j * theta) * (-ct + np.sqrt(ct * ct + d))
    phi = float(np.angle(z))
    return -np.pi if phi >= np.pi else phi
