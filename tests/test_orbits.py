import itertools

import numpy as np
import pytest

from sic4.clifford import conjugation_action, enumerate_projective_clifford, to_operator
from sic4.numerics import DEFAULT_TOL, MATCH_TOL, conjugate, proj_equal
from sic4.orbits import (
    FIDUCIAL_STABILIZER,
    SIC_LABELING,
    STABILIZER_CYCLE,
    STABILIZER_MATRIX,
    STABILIZER_ORBIT_SETS,
    TRIPLE_CENSUS_GAP,
    FiducialOrbit,
    _distinct_triples,
    _element_of,
    _triple_censuses,
    _triple_orbits,
    conjugation_cycle,
    element_product,
    enumerate_orbit,
    label_action,
    label_permutation_group,
    normal_subgroups,
    orbit_action,
    orbit_certificate,
    pair_action,
    permutation_orders,
    rigid_permutations,
    sic_symmetries,
    stability_group,
    stabilizer_orbits_within_sic,
    state_permutations,
    sylow_two_subgroup,
    triple_census_report,
    triple_family,
    triple_family_deviations,
    triple_phase,
    triple_trace_census,
    verify_symmetry_group_in_clifford,
)
from sic4.weyl_heisenberg import displacement_table, verify_sic

from oracles import (
    cluster_complex,
    conjugation_cycle_per_step,
    distinct_triples_by_fancy_index,
    label_permutation_group_by_dict,
    normal_subgroups_by_inverses,
    orbit_action_by_coset_loop,
    orbit_projectors_per_label,
    sic_states,
    state_action,
    state_permutations_by_action,
    triple_orbits_by_all_symmetries,
)

# triple-trace clusters of one SIC, sorted by (re, im); all on the circle
# of radius 5^{-3/2}
TRIPLE_CENSUS = (
    (-0.070315517, -0.055278640, 144),
    (-0.070315517, 0.055278640, 144),
    (-0.029247128, -0.084525768, 288),
    (-0.029247128, 0.084525768, 288),
    (0.0, -0.089442719, 288),
    (0.0, 0.089442719, 288),
    (0.048374330, -0.075232468, 96),
    (0.048374330, 0.075232468, 96),
    (0.055278640, -0.070315517, 288),
    (0.055278640, 0.070315517, 288),
    (0.070315517, -0.055278640, 144),
    (0.070315517, 0.055278640, 144),
    (0.075232468, -0.048374330, 96),
    (0.075232468, 0.048374330, 96),
    (0.084525768, -0.029247128, 288),
    (0.084525768, 0.029247128, 288),
    (0.089442719, 0.0, 96),
)


def test_orbit_cardinality():
    orbit = enumerate_orbit()
    assert orbit.projectors.shape == (256, 4, 4)
    flat = orbit.projectors.reshape(256, 16)
    gram = np.abs(flat.conj() @ flat.T)
    np.fill_diagonal(gram, 0)
    assert np.max(gram) < 1 - 1e-6  # no projective repeats


def test_sixteen_sics():
    # the orbit half of the family certificate: one stacked pass, per tol
    report = orbit_certificate(DEFAULT_TOL)
    assert report is orbit_certificate(DEFAULT_TOL) and report.is_sic.shape == (16,)
    for n in range(1, 17):
        one = verify_sic(sic_states(n), 4)
        assert one.is_sic and report.is_sic[n - 1]
        assert report.completeness_deviation[n - 1] == one.completeness_deviation
    assert not orbit_certificate(1e-30).is_sic.any()
    with pytest.raises(ValueError):
        report.is_sic[0] = False


def test_find_locates_projectors():
    orbit = enumerate_orbit()
    assert orbit.find(orbit.projectors[37]) == 37
    assert orbit.find(np.eye(4) / 4) < 0


def test_stabilizer_order():
    orbit = enumerate_orbit()
    stab = stability_group(orbit.projectors[0])
    assert len(stab) == 6
    assert sum(not e.op.antiunitary for e in stab) == 3


def test_stabilizer_generator_matrix():
    assert FIDUCIAL_STABILIZER.antiunitary
    g = to_operator(FIDUCIAL_STABILIZER)
    assert proj_equal(g.matrix, STABILIZER_MATRIX)
    # it fixes the fiducial projector
    rho = enumerate_orbit().projectors[0]
    img = g.matrix @ rho.conj() @ g.matrix.conj().T
    assert np.max(np.abs(img - rho)) < 1e-9


def test_stabilizer_cycle():
    p = STABILIZER_CYCLE[0]
    seen = [p]
    for _ in range(6):
        _, p = conjugation_action(FIDUCIAL_STABILIZER, p)
        seen.append(p)
    assert tuple(seen[:6]) == STABILIZER_CYCLE
    assert seen[6] == STABILIZER_CYCLE[0]  # closes after six steps


def test_stabilizer_orbit_partition():
    orbs = stabilizer_orbits_within_sic()
    assert {frozenset(o) for o in orbs} == set(STABILIZER_ORBIT_SETS)
    covered = set().union(*STABILIZER_ORBIT_SETS)
    assert len(covered) == 15 and (0, 0) not in covered


def test_triple_census_frozen():
    census = triple_trace_census(1)
    assert len(census) == 17
    assert sum(n for _, n in census) == 3360  # 16*15*14 ordered triples
    for (c, n), (re, im, mult) in zip(census, TRIPLE_CENSUS):
        assert n == mult
        assert abs(c - complex(re, im)) < 1e-8
        assert abs(abs(c) - 5**-1.5) < 1e-9


def test_triple_census_invariant_across_sics():
    ref = triple_trace_census(1)
    for label in (2, 9, 16):
        cen = triple_trace_census(label)
        assert [n for _, n in cen] == [n for _, n in ref]
        assert max(abs(a - b) for (a, _), (b, _) in zip(cen, ref)) < 1e-9


def test_symmetry_report():
    rep = verify_symmetry_group_in_clifford()
    assert rep.extended_order == 96
    assert rep.unitary_order == 48
    assert rep.hw_is_unique_order16
    assert rep.rigid_permutation_count == 3


def test_normal_subgroups_match_inverse_conjugation_on_sic_1():
    # among SIC 1's 48 unitary symmetries its Sylow 2-subgroup is normal
    # and a subgroup of order 3 is not: 8 elements of order 3 make 4 of them
    group = enumerate_projective_clifford(4, extended=True)
    sym = sic_symmetries(np.arange(16)[None], extended=True)[:, 1]
    unitary = sym[~group.anti[sym]]
    (_,), (two,) = sylow_two_subgroup(unitary[None])
    identity = _element_of()[1]
    cube = element_product(unitary, element_product(unitary, unitary))
    g = unitary[(cube == identity) & (unitary != identity)][0]
    for sub, normal in ((unitary[two], True), (np.array([identity, g, element_product(g, g)]), False)):
        verdict = normal_subgroups(sub[None], unitary)
        assert verdict.tolist() == normal_subgroups_by_inverses(sub[None], unitary).tolist() == [normal]


def test_label_permutations():
    perms = label_permutation_group(extended=False)
    assert len(perms) == 48
    ext = label_permutation_group(extended=True)
    assert len(ext) == 96
    rows = [set(range(4 * r, 4 * r + 4)) for r in range(4)]
    for p in perms:
        for r in range(4):
            assert {p[i] for i in rows[r]} in rows


def test_symmetry_action_of_clock():
    # conjugating by any displacement fixes every SIC as a set
    group = enumerate_projective_clifford(4, extended=True)
    (row,) = np.flatnonzero(np.all(group.f == (1, 0, 0, 1), axis=1) & np.all(group.chi == (0, 1), axis=1))
    assert (orbit_action()[row, ::16] // 16).tolist() == list(range(16))


def test_triple_family_properties():
    for d in (3, 4, 5):
        for theta in np.linspace(-3.0, 3.0, 7):
            kets = triple_family(float(theta), d)
            assert len(kets) == 3 and all(k.shape == (d,) for k in kets)
            for i in range(3):
                for j in range(i + 1, 3):
                    fid = abs(np.vdot(kets[i], kets[j])) ** 2
                    assert abs(fid - 1 / (d + 1)) < 1e-10
            t = (
                np.vdot(kets[0], kets[1])
                * np.vdot(kets[1], kets[2])
                * np.vdot(kets[2], kets[0])
            )
            assert abs(np.angle(t) - triple_phase(float(theta), d)) < 1e-10


def test_triple_phase_monotone():
    for d in (3, 4, 5):
        grid = np.linspace(-np.pi, np.pi, 100, endpoint=False)
        vals = [triple_phase(float(t), d) for t in grid]
        assert np.all(np.diff(vals) > 0)


def test_state_action_matches_per_element_find():
    # both unitary and antiunitary elements
    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=True)
    mats, anti = group.mats, group.anti
    rng = np.random.default_rng(11)
    pick = rng.choice(len(group), size=101, replace=False)
    assert anti[pick].any() and not anti[pick].all()
    states = orbit.projectors[rng.choice(256, size=5, replace=False)]
    index, ov = state_action(mats[pick], anti[pick], states, orbit.projectors)
    assert index.shape == ov.shape == (101, 5)
    sic = sic_states(3)
    sic_index, sic_ov = state_action(mats[pick], anti[pick], states, sic)
    for row, i in enumerate(pick):
        for col, rho in enumerate(states):
            img = conjugate(group[i].op, rho)
            assert index[row, col] == orbit.find(img)
            assert abs(ov[row, col] - 1.0) < 1e-12
            # targets that need not contain the image, where the largest
            # overlap can be tied: a target with the largest |tr(t img)|
            scores = np.abs(np.einsum("tij,ji->t", sic, img))
            assert abs(scores[sic_index[row, col]] - scores.max()) < 1e-12
            assert abs(sic_ov[row, col] - scores.max()) < 1e-12


def _label_permutations_by_find(extended):
    """The per-element loop that label_permutation_group replaced."""
    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=extended)
    fids = np.stack([orbit.projectors[(n - 1) * 16] for n in range(1, 17)])
    perms = {}
    for i, (m, a) in enumerate(zip(group.mats, group.anti)):
        perm = []
        for n in range(16):
            src = fids[n].conj() if a else fids[n]
            j = orbit.find(m @ src @ m.conj().T)
            assert j >= 0
            perm.append(j // 16)
        perms.setdefault(tuple(perm), []).append(i)
    return perms


@pytest.mark.parametrize("extended", [False, True])
def test_label_permutation_group_matches_per_element_loop(extended):
    new = label_permutation_group(extended=extended)
    old = _label_permutations_by_find(extended)
    assert new == tuple(sorted(old))


def _cluster_complex_by_round(values, gap=1e-6):
    """The Python-round clustering that the 9-decimal split (oracles.cluster_complex) replaced."""
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


def test_triple_census_matches_python_round_clustering():
    for label in range(1, 17):
        s = sic_states(label)
        t = np.einsum("aij,bjk,cki->abc", s, s, s)
        vals = np.array([
            t[a, b, c]
            for a, b, c in itertools.product(range(16), repeat=3)
            if a != b and b != c and a != c
        ])
        old = _cluster_complex_by_round(vals)
        new = triple_trace_census(label)
        assert [n for _, n in new] == [n for _, n in old]
        # each value belongs to the cluster of the nearest rounded-key center;
        # the census reports the mean of those members' raw values
        member = np.argmin(np.abs(vals[:, None] - np.array([c for c, _ in old])), axis=1)
        assert np.bincount(member).tolist() == [n for _, n in old]
        means = [vals[member == k].mean() for k in range(len(old))]
        assert max(abs(c - m) for (c, _), m in zip(new, means)) <= 1e-15
        if label == 1:
            centers = np.array([c for c, _ in old])
            ids = _triple_censuses(TRIPLE_CENSUS_GAP)[2]
            for a, b, c in itertools.product(range(16), repeat=3):
                if a != b and b != c and a != c:
                    assert ids[a, b, c] == np.argmin(np.abs(centers - t[a, b, c]))
                else:
                    assert ids[a, b, c] == -1


def _lined_up_states(projectors) -> np.ndarray:
    """The (16, 16, 4, 4) states of SICs 1-16 among 256 orbit projectors,
    state k of row n - 1 the image of SIC 1's state k under the label map
    of V_n."""
    image = pair_action([pair.F for pair in SIC_LABELING], np.zeros((16, 2), dtype=int))[:, :16]
    return projectors[image]


def test_triple_orbits_equal_the_orbits_of_all_symmetries():
    # the propagated orbits against the least code over every symmetry and
    # shift at once; both number orbits by least code
    from sic4.cli import _CENSUS_MULTIPLICITIES

    ids, conj = _triple_orbits()
    assert np.array_equal(np.unique(triple_orbits_by_all_symmetries(), return_inverse=True)[1], ids)
    assert sorted(np.bincount(ids).tolist()) == sorted(_CENSUS_MULTIPLICITIES)
    # the conjugate orbit holds each triple's reversal
    codes = np.flatnonzero(_distinct_triples(sic_states(1))[1])
    reversed_codes = codes % 16 * 256 + codes // 16 % 16 * 16 + codes // 256
    assert np.array_equal(conj[ids], ids[np.searchsorted(codes, reversed_codes)])


def test_distinct_triples_equal_the_fancy_index_form():
    # flat take and in-place products against fancy indexing, bit for bit,
    # on the lined-up stack of the 16 SICs and on one shuffled SIC
    shuffled = sic_states(6)[np.random.default_rng(39).permutation(16)]
    for states in (_lined_up_states(enumerate_orbit().projectors), shuffled):
        (vals, mask), (want, want_mask) = _distinct_triples(states), distinct_triples_by_fancy_index(states)
        assert vals.shape == want.shape and vals.tobytes() == want.tobytes() and np.array_equal(mask, want_mask)


def test_triple_census_classes_equal_cluster_complex():
    # on each SIC, the census on the orbits against the union-find split
    # of its lined-up traces: the same classes, counts and centers, bit for
    # bit, in census order
    centers, counts, census, _, split = _triple_censuses(TRIPLE_CENSUS_GAP)
    assert split.all()
    for label, states in enumerate(_lined_up_states(enumerate_orbit().projectors), 1):
        vals, mask = _distinct_triples(states)
        old, old_ids = cluster_complex(vals)
        assert counts.tolist() == [n for _, n in old]
        assert centers[label - 1].tobytes() == np.array([c for c, _ in old]).tobytes()
        assert np.array_equal(census[mask], old_ids) and np.all(census[~mask] == -1)
        assert triple_trace_census(label) == old


def test_carried_triple_censuses_equal_each_sics_own_split():
    # SICs 2-16 take SIC 1's orbits through the exact label map, against
    # each SIC's union-find split of its own states in their own order
    centers, counts, _, _, split = _triple_censuses(TRIPLE_CENSUS_GAP)
    assert split.all() and centers.shape == (16, 17)
    lined_up = _lined_up_states(enumerate_orbit().projectors)
    for label, own, row in zip(range(2, 17), lined_up[1:], centers[1:]):
        assert sorted(enumerate_orbit().find(s) for s in own) == list(range(16 * label - 16, 16 * label))
        want = cluster_complex(_distinct_triples(sic_states(label))[0])[0]
        assert counts.tolist() == [n for _, n in want]
        assert np.max(np.abs(row - np.array([c for c, _ in want]))) <= 1e-15


def _superoperator_state_action(mats, anti, states, targets, block=64):
    """The superoperator kernel that the ket form of state_action replaced:
    per block of elements, g (x) conj(g) applied to vec(rho) and |tr|
    overlaps against every target."""
    mats = np.asarray(mats, dtype=complex)
    anti = np.asarray(anti, dtype=bool)
    d2 = mats.shape[1] ** 2
    vecs = np.asarray(states, dtype=complex).reshape(-1, d2).T
    sources = np.stack([vecs, vecs.conj()])
    tvecs = np.asarray(targets, dtype=complex).transpose(0, 2, 1).reshape(-1, d2).T
    index = np.empty((len(mats), vecs.shape[1]), dtype=np.intp)
    overlap = np.empty(index.shape)
    for lo in range(0, len(mats), block):
        g = mats[lo : lo + block]
        sup = np.einsum("nij,nkl->nikjl", g, g.conj()).reshape(-1, d2, d2)
        images = sup @ sources[anti[lo : lo + block].astype(np.intp)]
        ov = np.abs(images.transpose(0, 2, 1).reshape(-1, d2) @ tvecs)
        ov = ov.reshape(len(g), -1, tvecs.shape[1])
        index[lo : lo + len(g)] = ov.argmax(axis=2)
        overlap[lo : lo + len(g)] = ov.max(axis=2)
    return index, overlap


def _state_action_in_blocks(mats, anti, states, targets, block):
    """state_action over blocks of elements, which bounds the overlaps it
    holds at once to block * M * T."""
    parts = [
        state_action(mats[lo : lo + block], anti[lo : lo + block], states, targets)
        for lo in range(0, len(mats), block)
    ]
    return tuple(np.concatenate(a) for a in zip(*parts))


@pytest.mark.parametrize("case", ["sic", "orbit", "ragged"])
def test_ket_state_action_matches_superoperator_form(case):
    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=True)
    mats, anti = group.mats, group.anti
    states = sic_states(5)
    targets = orbit.projectors if case == "orbit" else states
    if case == "ragged":
        states = states[[0, 3, 6, 9, 12]]  # 5 states against 16 targets
    index, ov = _state_action_in_blocks(mats, anti, states, targets, 256)
    old_index, old_ov = _superoperator_state_action(mats, anti, states, targets)
    assert np.max(np.abs(ov - old_ov)) < 1e-12
    hit = old_ov >= 1.0 - MATCH_TOL
    assert hit.any() and np.array_equal(index[hit], old_index[hit])


def test_state_action_rejects_mixed_states():
    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=False)
    mats, anti = group.mats, group.anti
    mixed = np.stack([orbit.projectors[0], np.eye(4) / 4])
    with pytest.raises(ValueError):
        state_action(mats[:3], anti[:3], mixed, orbit.projectors)
    with pytest.raises(ValueError):
        state_action(mats[:3], anti[:3], orbit.projectors[:2], mixed)


def _permutation_order_by_composition(p):
    """The tuple-composition loop that permutation_orders replaced."""
    ident, order, acc = tuple(range(len(p))), 1, tuple(p)
    while acc != ident:
        acc = tuple(p[i] for i in acc)
        order += 1
    return order


def _two_power_subgroup_by_sets(perms):
    """The set-based Sylow 2-subgroup certificate on permutations: those
    of 2-power order, and whether they number 16 and close under
    composition."""
    tp = {p for p in perms if _permutation_order_by_composition(p) in (1, 2, 4, 8, 16)}
    closed = len(tp) == 16 and all(tuple(a[i] for i in b) in tp for a in tp for b in tp)
    return tp, closed


def test_permutation_orders_match_composition_loop():
    rng = np.random.default_rng(5)
    perms = np.array([rng.permutation(16) for _ in range(200)] + [np.arange(16)])
    want = [_permutation_order_by_composition(tuple(p)) for p in perms.tolist()]
    assert permutation_orders(perms).tolist() == want


def test_sylow_two_subgroup_matches_set_certificate():
    # the unitary symmetry rows of the 32 SICs and two planted sets from
    # SIC 1's: an element of order 4 swapped for an involution outside the
    # group (16 of 2-power order that do not close), and one of order 3
    # swapped for it (17); the oracle composes each row's 256-point
    # orbit_action permutation, never element_product
    sets = sic_symmetries(np.array(_all_sic_indices()), extended=False)[:, 1].reshape(32, 48)
    action = orbit_action()
    orders = permutation_orders(action[:768])
    outside = np.setdiff1d(np.flatnonzero(orders == 2), sets[0])[0]
    not_closed, overfull = sets[0].copy(), sets[0].copy()
    not_closed[np.flatnonzero(orders[sets[0]] == 4)[0]] = outside
    overfull[np.flatnonzero(orders[sets[0]] == 3)[0]] = outside
    sets = np.vstack([sets, not_closed, overfull])
    verdicts, two = sylow_two_subgroup(sets)
    for rows, mask, verdict in zip(sets, two, verdicts):
        tp, closed = _two_power_subgroup_by_sets([tuple(p) for p in action[rows].tolist()])
        assert verdict == closed and {tuple(p) for p in action[rows[mask]].tolist()} == tp
    assert verdicts.tolist() == [True] * 32 + [False, False]
    assert np.count_nonzero(two, axis=1).tolist() == [16] * 33 + [17]


def _rigid_permutations_by_dfs(label=1, limit=10):
    """The backtracking search that the level-by-level rigid_permutations
    replaced: one ok() check per partial assignment."""
    vals, mask = _distinct_triples(sic_states(label))
    ids = np.full(mask.shape, -1)
    ids[mask] = cluster_complex(vals)[1]
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


def test_rigid_permutations_match_backtracking():
    for limit in (10, 2):
        assert rigid_permutations(limit) == _rigid_permutations_by_dfs(1, limit)
    assert len(rigid_permutations(10)) == 3


def test_gram_triples_match_projector_einsum():
    for label in range(1, 17):
        s = sic_states(label)
        t = np.einsum("aij,bjk,cki->abc", s, s, s)
        vals, mask = _distinct_triples(s)
        a, b, c = np.indices(t.shape)
        assert np.array_equal(mask, (a != b) & (b != c) & (a != c))
        assert np.max(np.abs(vals - t[mask])) <= 1e-15


def test_orbit_action_matches_numeric_action():
    # every one of the 1536 * 256 entries against the overlap of the image
    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=True)
    table = orbit_action()
    assert table.dtype == np.int16 and table.shape == (1536, 256) and not table.flags.writeable
    assert np.array_equal(np.sort(table, axis=1), np.broadcast_to(np.arange(256), table.shape))
    index, ov = _state_action_in_blocks(group.mats, group.anti, orbit.projectors, orbit.projectors, 16)
    assert ov.min() >= 1.0 - MATCH_TOL
    assert np.array_equal(table, index)
    # rows 128..143 are the displacements, in (p1, p2) order
    assert np.array_equal(group.f[128:144], np.tile((1, 0, 0, 1), (16, 1)))
    assert np.array_equal(group.chi[128:144], np.indices((4, 4)).reshape(2, 16).T)
    disp = state_permutations(displacement_table(4).reshape(16, 4, 4), orbit.projectors)
    assert np.array_equal(table[128:144], disp)


def _symmetries_by_elements_sending(states, extended):
    """The path sic_symmetries replaced: the elements sending state 0 into
    the set at DEFAULT_TOL, then state_permutations of the unitary
    survivors and a per-state conjugation loop for the antiunitary ones."""
    group = enumerate_projective_clifford(4, extended=extended)
    _, ov = state_action(group.mats, group.anti, states[:1], states)
    sending = np.flatnonzero(ov[:, 0] >= 1.0 - DEFAULT_TOL)
    unitary = ~group.anti[sending]
    perms = np.empty((len(sending), len(states)), dtype=np.intp)
    perms[unitary] = state_permutations(group.mats[sending[unitary]], states)
    for row in np.flatnonzero(~unitary):
        for col, rho in enumerate(states):
            scores = np.abs(np.einsum("tij,ji->t", states, conjugate(group[sending[row]].op, rho)))
            assert scores.max() >= 1.0 - DEFAULT_TOL
            perms[row, col] = scores.argmax()
    return sending, perms


def _all_sic_indices():
    """The orbit indices of the states of the 32 SICs, each in SIC order."""
    from sic4.regrouping import sic_family

    return list(sic_family()[0])


def test_sic_symmetries_of_sic_1():
    states = sic_states(1)
    for extended, order in ((True, 96), (False, 48)):
        pairs = sic_symmetries(np.arange(16)[None], extended=extended)
        assert pairs.shape == (order, 2) and np.all(pairs[:, 0] == 0)
        old_index, _ = _symmetries_by_elements_sending(states, extended)
        assert np.array_equal(pairs[:, 1], old_index)


@pytest.mark.parametrize("extended", [False, True])
def test_sic_symmetries_match_elements_sending_on_all_32_sics(extended):
    rng = np.random.default_rng(17)
    projectors = enumerate_orbit().projectors
    sics = _all_sic_indices()
    shuffle = rng.permutation(16)
    sics.append(sics[20][shuffle])  # a regrouped SIC in another state order
    for k, idx in enumerate(sics):
        index = sic_symmetries(idx[None], extended=extended)[:, 1]
        old_index, _ = _symmetries_by_elements_sending(projectors[idx], extended)
        assert np.array_equal(index, old_index), k
        assert len(index) == (96 if extended else 48)
    # relabelling the states keeps the elements
    base = sic_symmetries(sics[20][None], extended=extended)
    assert np.array_equal(sic_symmetries(sics[-1][None], extended=extended), base)
    # a stack of sets: one pass over every set, pairs in set order
    pairs = sic_symmetries(np.stack(sics), extended=extended)
    for k, idx in enumerate(sics):
        assert np.array_equal(pairs[pairs[:, 0] == k, 1], sic_symmetries(idx[None], extended=extended)[:, 1])
    assert np.array_equal(pairs[:, 0], np.sort(pairs[:, 0]))


def _haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_state_permutations_match_the_state_action_form():
    # the ket product against the form through state_action: the 32 SICs
    # under their covariance groups, and Haar-conjugated, state-shuffled copies
    from sic4.regrouping import dprime_elements

    rng = np.random.default_rng(23)
    projectors = enumerate_orbit().projectors
    disp = displacement_table(4).reshape(16, 4, 4)
    cases = []
    for k, idx in enumerate(_all_sic_indices()):
        group, states, u = (disp if k < 16 else dprime_elements()), projectors[idx], _haar_unitary(rng)
        cases += [(group, states), (u @ group @ u.conj().T, (u @ states @ u.conj().T)[rng.permutation(16)])]
    for k, (mats, states) in enumerate(cases):
        perms = state_permutations(mats, states)
        assert np.array_equal(perms, state_permutations_by_action(mats, states)), k
        assert np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(16), perms.shape)), k
    # one state list per element: element 5 of each case on the case's states
    mats, states = np.stack([m[5] for m, _ in cases]), np.stack([s for _, s in cases])
    assert np.array_equal(state_permutations(mats, states), state_permutations_by_action(mats, states))


def test_state_permutations_raise_as_the_state_action_form():
    states = sic_states(1)
    mixed = states.copy()
    mixed[3] = np.eye(4) / 4
    u = _haar_unitary(np.random.default_rng(29))
    disp = displacement_table(4).reshape(16, 4, 4)
    # sqrt(5) |k_0><k_0| sends every state onto state 0 at overlap 1: only
    # the "every state is an image" check refuses it
    collapse = np.sqrt(5) * states[:1]
    cases = ((u[None], states, "does not permute"), (collapse, states, "does not permute"))
    for mats, sts, text in cases + ((disp, mixed, "not a rank-1 projector"),):
        with pytest.raises(ValueError, match=text) as new:
            state_permutations(mats, sts)
        with pytest.raises(ValueError) as old:
            state_permutations_by_action(mats, sts)
        assert str(new.value) == str(old.value)


def test_stability_group_is_sic_symmetries_of_one_state():
    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=True)
    for k in (0, 37, 255):
        rho = orbit.projectors[k]
        index = sic_symmetries([[k]], extended=True)[:, 1]
        stab = stability_group(rho)
        assert len(stab) == 6 and len(index) == 6
        assert [e.source for e in stab] == [group[i].source for i in index]


def test_orbit_projectors_match_per_label_seeds():
    assert enumerate_orbit().projectors.tobytes() == orbit_projectors_per_label().tobytes()


def test_orbit_keeps_its_unitarity_check(monkeypatch):
    import sic4.orbits

    operators = sic4.orbits._operators

    def scaled(f, chi, d):
        mats, anti = operators(f, chi, d)
        return mats * 1.001, anti

    monkeypatch.setattr(sic4.orbits, "_operators", scaled)
    with pytest.raises(ValueError, match="not unitary"):
        enumerate_orbit.__wrapped__()


def test_orbit_action_matches_per_coset_loop():
    old = orbit_action_by_coset_loop()
    assert old.dtype == orbit_action().dtype and old.tobytes() == orbit_action().tobytes()


def test_conjugation_cycle_builds_one_operator_and_matches_per_step_form(monkeypatch):
    import sic4.orbits

    calls, to_operator = [], sic4.orbits.to_operator

    def counted(pair):
        calls.append(pair)
        return to_operator(pair)

    monkeypatch.setattr(sic4.orbits, "to_operator", counted)
    square = sic4.orbits.semidirect_product(FIDUCIAL_STABILIZER, FIDUCIAL_STABILIZER)
    for pair in (FIDUCIAL_STABILIZER, square) + SIC_LABELING[1:4]:
        for p in np.ndindex(4, 4):
            calls.clear()
            assert conjugation_cycle(pair, p) == conjugation_cycle_per_step(pair, p)
            assert calls == [pair]


@pytest.mark.parametrize("extended", [False, True])
def test_label_permutation_group_matches_dict_loop(extended):
    new = label_permutation_group(extended)
    old = label_permutation_group_by_dict(extended)
    assert new == tuple(sorted(old))
    assert all(type(x) is int for key in new for x in key)


@pytest.mark.parametrize("extended", [False, True])
def test_label_action_matches_a_loop_over_the_permutations(extended):
    # each permutation's image rows as sets, one permutation at a time; the
    # row-fixing ones' column permutations and their inversion parities
    permutations, order_census, rows_preserved, row_group_order, row_fixing_order, columns = label_action(extended)
    perms = [list(p) for p in label_permutation_group(extended=extended)]
    assert permutations.tolist() == perms
    images = []
    for p in perms:
        rows = [{p[4 * r + c] // 4 for c in range(4)} for r in range(4)]
        images.append(tuple(min(s) if len(s) == 1 else -1 for s in rows))
    assert rows_preserved == all(-1 not in image for image in images)
    assert row_group_order == len(set(images))
    fixing = [p for p, image in zip(perms, images) if image == (0, 1, 2, 3)]
    assert row_fixing_order == len(fixing)
    cols = [[tuple(p[4 * r + c] % 4 for c in range(4)) for r in range(4)] for p in fixing]
    alike = all(len(set(c)) == 1 for c in cols)
    even = all(sum(a > b for i, a in enumerate(c[0]) for b in c[0][i + 1 :]) % 2 == 0 for c in cols)
    assert columns == (alike and even and len({c[0] for c in cols}) == 12)
    orders = [_permutation_order_by_composition(tuple(p)) for p in perms]
    assert order_census == {k: orders.count(k) for k in sorted(set(orders))}
    want = (48, 4, 12, True) if not extended else (96, 8)
    assert (len(perms), row_group_order, row_fixing_order, columns)[: len(want)] == want


def test_triple_census_report_decides_the_cross_sic_check_at_tol():
    census, counts, real, pairs, modulus_dev, same = triple_census_report()
    assert census == triple_trace_census(1) and counts == [m for _, m in census]
    assert (len(census), real, pairs, same) == (17, 1, 8, True) and modulus_dev <= 3e-16
    # the SICs' centers agree to about 1e-16, not to 1e-30
    assert not triple_census_report(1e-30)[5]
    fid_dev, phase_dev, monotone = triple_family_deviations()
    assert fid_dev <= 2e-16 and phase_dev <= 5e-16 and monotone


def test_orbit_action_per_symplectic_class_equals_pair_action_of_every_row():
    # the 96 class rows displaced by one gather, against pair_action of all 1536 rows
    group = enumerate_projective_clifford(4, extended=True)
    assert orbit_action().dtype == np.int16 and np.array_equal(orbit_action(), pair_action(group.f, group.chi))


def _own_census_verdict(projectors, tol: float) -> bool:
    """The cross-SIC check on each SIC's own union-find split of its traces
    (oracles.cluster_complex): SICs 2-16 have SIC 1's counts, and their
    k-th centers lie within tol of SIC 1's."""
    ref = cluster_complex(_distinct_triples(projectors[:16])[0])[0]
    for states in projectors[16:].reshape(15, 16, 4, 4):
        own = cluster_complex(_distinct_triples(states)[0])[0]
        if [n for _, n in own] != [n for _, n in ref] or max(abs(a - b) for (a, _), (b, _) in zip(own, ref)) > tol:
            return False
    return True


def _plant_in_sic9(monkeypatch, e: float):
    """Move state 133 of SIC 9 by diag(exp(i e (1, -1, 0.5, -0.5))) in the
    orbit that sic4.orbits reads, the census cleared: the moved projectors
    and the largest distance of a SIC 9 trace from its orbit's center."""
    import sic4.orbits

    projectors = enumerate_orbit().projectors.copy()
    u = np.diag(np.exp(e * 1j * np.array([1.0, -1.0, 0.5, -0.5])))
    projectors[133] = u @ projectors[133] @ u.conj().T
    monkeypatch.setattr(sic4.orbits, "enumerate_orbit", lambda: FiducialOrbit(projectors))
    _triple_censuses.cache_clear()
    centers, _, census, _, _ = _triple_censuses(TRIPLE_CENSUS_GAP)
    vals, mask = _distinct_triples(_lined_up_states(projectors)[8])
    return projectors, np.abs(vals - centers[8, census[mask]]).max()


def test_a_sic_within_half_the_gap_keeps_its_triple_census(monkeypatch):
    # SIC 9's traces spread 1.35e-7 from their orbit centers, within gap / 2,
    # so SIC 9 reads its census, and the verdict is the one of every SIC's
    # own split at each tol
    try:
        projectors, spread = _plant_in_sic9(monkeypatch, 6e-7)
        assert TRIPLE_CENSUS_GAP / 8 < spread < TRIPLE_CENSUS_GAP / 4
        assert _triple_censuses(TRIPLE_CENSUS_GAP)[4].all()
        verdicts = [triple_census_report(tol)[5] for tol in (1e-9, 1e-8, 1e-7, 1e-6)]
        assert verdicts == [_own_census_verdict(projectors, tol) for tol in (1e-9, 1e-8, 1e-7, 1e-6)]
        assert True in verdicts and False in verdicts
    finally:
        _triple_censuses.cache_clear()


def test_a_sic_spread_past_half_the_gap_fails_the_cross_sic_check(monkeypatch):
    # SIC 9's traces spread past gap / 2: SIC 9 alone does not split, the
    # cross-SIC verdict is False at every tol, and SIC 1's facts stand
    facts = triple_census_report()[:5]
    try:
        _, spread = _plant_in_sic9(monkeypatch, 3e-6)
        assert TRIPLE_CENSUS_GAP / 2 < spread < TRIPLE_CENSUS_GAP
        assert np.flatnonzero(~_triple_censuses(TRIPLE_CENSUS_GAP)[4]).tolist() == [8]  # SIC 9 only
        for tol in (1e-9, 1e-6, 1.0):
            report = triple_census_report(tol)
            assert report[:5] == facts and report[5] is False
        with pytest.raises(ValueError):
            triple_trace_census(9)
    finally:
        _triple_censuses.cache_clear()
