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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import (
    CliffordElement,
    SymplecticPair,
    conjugation_action,
    enumerate_projective_clifford,
    semidirect_product,
    to_operator,
)
from .numerics import DEFAULT_TOL, GroupElement, conjugate
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

    def find(self, rho, tol: float = 1e-6) -> int:
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


def _conjugate_stack(mats: np.ndarray, anti: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """g rho g^-1 for every stacked element."""
    out = np.empty((mats.shape[0], 4, 4), dtype=complex)
    for flag in (False, True):
        idx = np.where(anti == flag)[0]
        if idx.size == 0:
            continue
        src = rho.conj() if flag else rho
        out[idx] = np.einsum("nij,jk,nlk->nil", mats[idx], src, mats[idx].conj())
    return out


def stability_group(rho, tol: float = DEFAULT_TOL) -> list:
    """Extended-Clifford elements fixing an orbit projector, as a list.

    The input must be one of the 256 orbit projectors.
    """
    orbit = enumerate_orbit()
    if orbit.find(rho) < 0:
        raise ValueError("projector is not on the fiducial orbit")
    rho = np.asarray(rho, dtype=complex)
    els, mats, anti = element_arrays(extended=True)
    imgs = _conjugate_stack(mats, anti, rho)
    ov = np.abs(np.einsum("nij,ji->n", imgs, rho))
    return [els[i] for i in np.where(ov >= 1.0 - tol)[0]]


def stabilizer_orbits_within_sic() -> list:
    """Orbits of the 15 non-fiducial SIC-1 states under the unitary
    stabilizer element (the square of the antiunitary generator)."""
    sq = semidirect_product(FIDUCIAL_STABILIZER, FIDUCIAL_STABILIZER)
    seen = set()
    orbits = []
    for p in itertools.product(range(4), repeat=2):
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
    """Group complex values into clusters whose centers differ by > gap."""
    uniq = {}
    for v in values:
        key = (round(v.real, 9), round(v.imag, 9))
        uniq[key] = uniq.get(key, 0) + 1
    keys = sorted(uniq)
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


def triple_trace_census(label: int = 1, gap: float = 1e-6):
    """Clustered values of tr(r1 r2 r3) over ordered triples of distinct
    states of one SIC, as (value, multiplicity) pairs."""
    orbit = enumerate_orbit()
    s = orbit.sic(label).states
    t = np.einsum("aij,bjk,cki->abc", s, s, s)
    vals = [
        t[a, b, c]
        for a, b, c in itertools.product(range(16), repeat=3)
        if a != b and b != c and a != c
    ]
    return _cluster_complex(vals, gap)


def compose_permutations(p, q) -> tuple:
    """p after q for permutations given as tuples of images."""
    return tuple(p[i] for i in q)


def permutation_order(p) -> int:
    """Smallest n >= 1 with p^n the identity."""
    ident = tuple(range(len(p)))
    order, acc = 1, tuple(p)
    while acc != ident:
        acc = compose_permutations(p, acc)
        order += 1
    return order


@dataclass
class SymmetryReport:
    extended_order: int
    unitary_order: int
    stabilizer_order: int
    hw_is_unique_order16: bool
    rigid_permutation_count: int


def _permutation_on_states(el: CliffordElement, orbit: FiducialOrbit, label: int = 1):
    """How a symmetry element permutes the 16 states of one SIC."""
    base = (label - 1) * 16
    perm = []
    for p1 in range(4):
        for p2 in range(4):
            img = conjugate(el.op, orbit.projectors[base + 4 * p1 + p2])
            j = orbit.find(img)
            if j < 0 or j // 16 != label - 1:
                raise ValueError("element does not preserve the SIC")
            perm.append(j - base)
    return tuple(perm)


def symmetry_group_of_sic(label: int = 1, tol: float = DEFAULT_TOL):
    """All enumerated extended-Clifford elements mapping a SIC onto itself."""
    orbit = enumerate_orbit()
    els, mats, anti = element_arrays(extended=True)
    fid = orbit.fiducial(label)
    imgs = _conjugate_stack(mats, anti, fid)
    targets = orbit.projectors[(label - 1) * 16 : label * 16]
    ov = np.abs(np.einsum("nij,tji->nt", imgs, targets))
    keep = np.where(ov.max(axis=1) >= 1.0 - tol)[0]
    return [els[i] for i in keep]


def _triple_cluster_ids(states, gap: float = 1e-6):
    """Tensor of census cluster ids for ordered triples of distinct states."""
    t = np.einsum("aij,bjk,cki->abc", states, states, states)
    cl = _cluster_complex(
        [t[a, b, c] for a, b, c in itertools.product(range(16), repeat=3) if a != b != c != a],
        gap,
    )
    centers = np.array([c for c, _ in cl])
    n = len(states)
    ids = -np.ones((n, n, n), dtype=int)
    for a, b, c in itertools.product(range(n), repeat=3):
        if a != b and b != c and a != c:
            k = int(np.argmin(np.abs(centers - t[a, b, c])))
            if abs(centers[k] - t[a, b, c]) > gap:
                raise AssertionError("triple value does not match any cluster")
            ids[a, b, c] = k
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

    perms = {}
    for e in unitary:
        perms[_permutation_on_states(e, orbit)] = e
    if len(perms) != len(unitary):
        raise AssertionError("state action of the symmetry group is not faithful")

    # the unique order-16 subgroup: exactly 16 elements of 2-power order,
    # closed under composition, normal, and equal to the displacements
    plist = list(perms)
    two_power = [p for p in plist if permutation_order(p) in (1, 2, 4, 8, 16)]
    unique16 = len(two_power) == 16
    tp = set(two_power)
    if unique16:
        unique16 = all(compose_permutations(a, b) in tp for a in tp for b in tp)
    if unique16:
        for g in plist:
            ginv = g
            while compose_permutations(g, ginv) != tuple(range(16)):
                ginv = compose_permutations(ginv, g)
            if any(compose_permutations(compose_permutations(g, h), ginv) not in tp for h in tp):
                unique16 = False
                break
    if unique16:
        tbl = displacement_table(4)
        disp_perms = set()
        for q1 in range(4):
            for q2 in range(4):
                el = CliffordElement(
                    SymplecticPair((1, 0, 0, 1), (q1, q2), 4),
                    GroupElement(tbl[q1, q2]),
                )
                disp_perms.add(_permutation_on_states(el, orbit))
        unique16 = disp_perms == tp

    rigid = rigid_permutations(1, limit=10)
    return SymmetryReport(
        extended_order=len(sym),
        unitary_order=len(unitary),
        stabilizer_order=len(stab),
        hw_is_unique_order16=bool(unique16),
        rigid_permutation_count=len(rigid),
    )


def symmetry_action(pair: SymplecticPair, tol: float = 1e-6) -> tuple:
    """Permutation of SIC labels 1..16 induced by a Clifford element.

    Entry n-1 of the result is the label of the image of SIC n.
    """
    orbit = enumerate_orbit()
    u = to_operator(pair)
    out = []
    for n in range(1, 17):
        img = conjugate(u, orbit.fiducial(n))
        j = orbit.find(img, tol)
        if j < 0:
            raise ValueError("element does not map the orbit to itself")
        out.append(j // 16 + 1)
    return tuple(out)


@lru_cache(maxsize=None)
def label_permutation_group(extended: bool = False):
    """Distinct label permutations induced by the (extended) Clifford group."""
    orbit = enumerate_orbit()
    els, mats, anti = element_arrays(extended=extended)
    fids = np.stack([orbit.fiducial(n) for n in range(1, 17)])
    perms = {}
    for e, m, a in zip(els, mats, anti):
        perm = []
        for n in range(16):
            src = fids[n].conj() if a else fids[n]
            img = m @ src @ m.conj().T
            j = orbit.find(img)
            if j < 0:
                raise ValueError("orbit not closed under the Clifford group")
            perm.append(j // 16)
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
