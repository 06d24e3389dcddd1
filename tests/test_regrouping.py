import networkx as nx
import numpy as np
import pytest

import sic4.clifford as clifford
import sic4.regrouping as regrouping
from sic4.clifford import (
    SymplecticPair,
    _coset_keys,
    enumerate_projective_clifford,
    to_operator,
)
from sic4.numerics import commutator_phase, proj_equal, projective_set_equal
from sic4.orbits import LABEL_GRID, element_product, enumerate_orbit, first_distinct_rows, normal_subgroups, pair_action
from sic4.reconstruction import COMMUTATOR_TOL, reconstruct_hw
from sic4.regrouping import (
    CLIFFORD_GENERATORS,
    EQUIVALENCE_MATRIX,
    FIDELITY_TOL,
    X_PRIME_MATRIX,
    X_PRIME_PAIR,
    Z_PRIME_MATRIX,
    Z_PRIME_PAIR,
    carried_sics,
    clifford_index_two,
    covariance_group,
    double_cover,
    dprime_literals_match,
    dprime_elements,
    dprime_permutes,
    equivalence_unitary,
    _cliques,
    _span,
    exhaustive_regroup_scan,
    fidelity_adjacency,
    hw_conjugate_subgroup_census,
    primitive_commutation,
    reconstruct_family,
    regrouped_family,
    sic_family,
)
from sic4.weyl_heisenberg import displacement, displacement_table, verify_sic

from oracles import (
    _quotient,
    coset,
    coset as pair_coset,
    displacement_coset,
    dprime_covariant,
    first_distinct_spans_by_unique,
    normal_subgroups_by_inverses,
    regroup_by_search,
    sic_states,
)


def fidelity_graph(orbit, vertices):
    """The fidelity-1/5 graph as a networkx Graph labelled by ``vertices``."""
    g = nx.from_numpy_array(fidelity_adjacency(orbit, vertices), edge_attr=None)
    return nx.relabel_nodes(g, dict(enumerate(vertices)))


def test_h_orbits_partition():
    # matching[i, j] is the block SIC 17 + i takes from the j-th SIC of its
    # row; the four new SICs of a row take the four blocks of each row SIC
    matching = regrouped_family()
    by_row = matching.reshape(4, 4, 4, 4)  # (row, new SIC, row SIC, member)
    for r, row in enumerate(LABEL_GRID):
        for j, label in enumerate(row):
            blocks = by_row[r, :, j]
            assert np.all(blocks // 16 + 1 == label)
            assert np.all(np.diff(blocks, axis=1) > 0)
            assert np.array_equal(np.sort(blocks.ravel()), np.arange((label - 1) * 16, label * 16))


def test_h_orbit_internal_fidelities():
    # within an H-orbit all pairs sit at fidelity 1/5: each block is a
    # candidate seed for a new SIC
    orbit = enumerate_orbit()
    for m in regrouped_family().reshape(64, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                f = abs(np.trace(orbit.projectors[m[i]] @ orbit.projectors[m[j]]))
                assert abs(f - 0.2) < 1e-9


def test_regroup_row():
    orbit = enumerate_orbit()
    matching = regrouped_family()
    for s in orbit.projectors[matching.reshape(16, 16)[:4]]:
        assert verify_sic(s, 4).is_sic
    assert matching.shape == (16, 4, 4) and matching.dtype.kind == "i"
    # each new SIC takes one block from every SIC of its row, in row order
    assert np.array_equal(matching[:, :, 0] // 16 + 1, np.repeat(LABEL_GRID, 4, axis=0))


def test_regrouped_family_matches_the_per_block_search():
    orbit = enumerate_orbit()
    matching, members = regrouped_family(), sic_family()[0]
    old_matching, old_states = regroup_by_search(orbit)
    assert matching.tolist() == [[list(b) for b in m] for m in old_matching]
    assert np.array_equal(members[16:], matching.reshape(16, 16))
    assert all(np.array_equal(orbit.projectors[row], old) for row, old in zip(members[16:], old_states))


def test_pair_action_orbits_of_d_and_d_prime_are_the_family_rows():
    # the D-orbits of the orbit states are the 16 orbit SICs, the D'-orbits
    # the per-block search's 16 regrouped SICs
    chi = np.indices((4, 4)).reshape(2, 16).T
    action = pair_action(np.tile([1, 0, 0, 1], (16, 1)), chi)
    d_orbits = np.sort(action.T, axis=1)
    assert np.array_equal(d_orbits[first_distinct_rows(d_orbits)], np.arange(256).reshape(16, 16))
    old_matching, _ = regroup_by_search(enumerate_orbit())
    assert regrouped_family().tolist() == [[list(b) for b in m] for m in old_matching]


def test_regrouped_family():
    members, report = sic_family()
    assert members.shape == (32, 16) and members.dtype.kind == "i"
    assert np.array_equal(members[:16], np.arange(256).reshape(16, 16))
    assert report.is_sic.shape == (32,) and report.is_sic.all()
    matching = regrouped_family()
    # every original state is used exactly once across the new family
    assert np.array_equal(np.sort(matching.ravel()), np.arange(256))


def test_new_sics_share_four_states_with_row_members():
    new = enumerate_orbit().projectors[sic_family()[0][16]]  # built from row (1, 2, 3, 4)
    for label in (1, 2, 3, 4):
        old = sic_states(label)
        shared = 0
        for a in new:
            for b in old:
                if abs(np.trace(a @ b)) > 1 - 1e-9:
                    shared += 1
        assert shared == 4


def test_fidelity_graph_degree():
    orbit = enumerate_orbit()
    g = fidelity_graph(orbit, list(range(64)))
    assert g.number_of_nodes() == 64
    degs = {d for _, d in g.degree()}
    assert len(degs) == 1  # regular on a row's worth of states


def test_exhaustive_scan_counts():
    assert exhaustive_regroup_scan(full_scan=False) == 32
    assert exhaustive_regroup_scan(full_scan=True) == 32


def test_dprime_generator_matrices():
    assert proj_equal(to_operator(X_PRIME_PAIR).matrix, X_PRIME_MATRIX)
    assert proj_equal(to_operator(Z_PRIME_PAIR).matrix, Z_PRIME_MATRIX)


def test_dprime_commutator_phase():
    # the printed generator pair commutes to -i (still a primitive fourth
    # root, so the group is displacement-type; the +i convention is met by
    # swapping in the adjoint)
    c = np.trace(Z_PRIME_MATRIX @ X_PRIME_MATRIX @ Z_PRIME_MATRIX.conj().T @ X_PRIME_MATRIX.conj().T) / 4
    assert abs(c + 1j) < 1e-12


def test_projective_commutation_cut_has_a_margin():
    # regroup.commutation_projective accepts min(|comm - i|, |comm + i|) at
    # COMMUTATOR_TOL, the cut reconstruct_hw makes on the same quantity
    comm = commutator_phase(Z_PRIME_MATRIX, X_PRIME_MATRIX)
    near, far = sorted([abs(comm - 1j), abs(comm + 1j)])
    assert 0.0 <= near <= 1e-15 < COMMUTATOR_TOL < 2.0 <= far


def test_census_commutation_cut_has_a_margin(monkeypatch):
    # the census keeps a span when its generators commute to +-i within
    # COMMUTATOR_TOL; every phase lies at a fourth root of unity, sqrt 2
    # from the next, and the cut keeps the 32 pairs that |Im c| > 0.5 keeps
    phases = []

    def spy(a, b):
        phases.append(commutator_phase(a, b))
        return phases[-1]

    monkeypatch.setattr(regrouping, "commutator_phase", spy)
    assert hw_conjugate_subgroup_census()[0] == 32
    (c,) = phases
    near, far = np.sort(np.abs(c[:, None] - np.array([1, 1j, -1, -1j])), axis=1)[:, :2].T
    assert near.max() <= 1e-15 < COMMUTATOR_TOL < 1.41 <= far.min()
    pairing = np.minimum(np.abs(c - 1j), np.abs(c + 1j)) <= COMMUTATOR_TOL
    assert pairing.sum() == 32 and np.array_equal(pairing, np.abs(c.imag) > 0.5)


def test_dprime_elements_distinct_from_displacements():
    dp = dprime_elements()
    assert dp.shape == (16, 4, 4)
    disp = np.stack([displacement(p1, p2, 4) for p1 in range(4) for p2 in range(4)])
    assert not projective_set_equal(dp, disp)
    # both contain the identity coset
    assert any(proj_equal(m, np.eye(4) + 0j) for m in dp)


def test_regrouped_sics_covariant_under_dprime():
    sics = enumerate_orbit().projectors[sic_family()[0][16:]]
    xp, zp = X_PRIME_MATRIX, Z_PRIME_MATRIX
    for s in (sics[0], sics[7], sics[15]):
        flat = s.reshape(16, 16)
        for gen in (xp, zp):
            img = np.einsum("ab,kbc,dc->kad", gen, s, gen.conj())
            ov = np.abs(flat.conj() @ img.reshape(16, 16).T)
            assert np.all(np.max(ov, axis=0) >= 1 - 1e-9)


def test_equivalence_unitary():
    u = equivalence_unitary()
    assert np.allclose(u, EQUIVALENCE_MATRIX)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    rho = enumerate_orbit().projectors[0]
    assert np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-9


def test_equivalence_conjugates_group():
    u = equivalence_unitary()
    disp = np.stack([displacement(p1, p2, 4) for p1 in range(4) for p2 in range(4)])
    img = np.einsum("ab,kbc,dc->kad", u, disp, u.conj())
    assert projective_set_equal(img, dprime_elements())


def test_equivalence_not_clifford_but_square_is():
    u = equivalence_unitary()
    mats = enumerate_projective_clifford(4, extended=False).mats
    assert np.max(np.abs(np.einsum("ij,kij->k", u.conj(), mats))) < 4 - 1e-6
    assert np.max(np.abs(np.einsum("ij,kij->k", (u @ u).conj(), mats))) >= 4 - 1e-7


def test_subgroup_census():
    total, normal, hw_type, normal_sets = hw_conjugate_subgroup_census()
    assert total == 32
    assert normal == 2
    assert len(hw_type) == 32
    ident = displacement_coset(0, 0)
    dbar = frozenset(displacement_coset(p1, p2) for p1 in range(4) for p2 in range(4))
    assert dbar in set(normal_sets)
    assert all(ident in s for s in hw_type)
    assert pair_coset(X_PRIME_PAIR) != displacement_coset(1, 0)


def test_normal_subgroups_match_inverse_conjugation_on_the_census():
    # the census's 32 subgroups under the Clifford generators, which give
    # the census's verdicts, and under all 768 unitary rows: D and D' alone
    _, index = _quotient()
    _, _, hw_type, normal_sets = hw_conjugate_subgroup_census()
    rows = np.array([sorted(index[name] for name in s) for s in hw_type])
    for by in ([index[coset(g)] for g in CLIFFORD_GENERATORS], np.arange(768)):
        verdicts = normal_subgroups(rows, by)
        assert verdicts.tolist() == normal_subgroups_by_inverses(rows, by).tolist()
        assert [hw_type[k] for k in np.flatnonzero(verdicts)] == normal_sets and len(normal_sets) == 2


def test_covariance_group_matches_per_set_matches(monkeypatch):
    # 0 for the displacement group on SICs 1-16 and 1 for D' on SICs 17-32,
    # as per-set projective_set_equal calls find them; D' is tried only on
    # the sets that are not D, and a Haar-conjugated copy is neither
    rec = reconstruct_hw(enumerate_orbit().projectors[sic_family()[0]])
    disp, dp = displacement_table(4).reshape(16, 4, 4), dprime_elements()
    want = [0 if projective_set_equal(e, disp) else 1 if projective_set_equal(e, dp) else -1 for e in rec.elements]
    assert want == [0] * 16 + [1] * 16
    sets = []

    def spy(a, b, *norms):
        sets.append(len(a))
        return projective_set_equal(a, b, *norms)

    monkeypatch.setattr(regrouping, "projective_set_equal", spy)
    assert covariance_group(rec.elements).tolist() == want and sets == [32, 16]
    assert [covariance_group(e) for e in rec.elements] == want
    rng = np.random.default_rng(25)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    assert covariance_group(u @ rec.elements[[0, 16]] @ u.conj().T).tolist() == [-1, -1]
    assert covariance_group(u @ rec.elements[16] @ u.conj().T) == -1


def test_dprime_permutes_the_regrouped_sics_only():
    # the float literal group on the float states, and the exact D'-orbits
    members = sic_family()[0]
    assert dprime_permutes(enumerate_orbit().projectors[members]).tolist() == [False] * 16 + [True] * 16
    assert dprime_covariant(members).tolist() == [False] * 16 + [True] * 16


def _nx_cliques(g, k):
    return {frozenset(c) for c in nx.find_cliques(g) if len(c) >= k}


@pytest.mark.parametrize("scan", ["rows", "full"])
def test_clique_search_matches_networkx(scan):
    orbit = enumerate_orbit()
    if scan == "full":
        vertex_sets = [list(range(256))]
    else:
        vertex_sets = [[(lab - 1) * 16 + k for lab in row for k in range(16)] for row in LABEL_GRID]
    for vertices in vertex_sets:
        adj = fidelity_adjacency(orbit, vertices)
        found = {frozenset(vertices[i] for i in c) for c in _cliques(adj, 16)}
        assert found == _nx_cliques(fidelity_graph(orbit, vertices), 16)
        assert len(found) == (32 if scan == "full" else 8)


def test_clique_search_matches_networkx_on_planted_cliques():
    rng = np.random.default_rng(17)
    for n, p, planted in ((30, 0.3, 8), (48, 0.5, 12), (60, 0.2, 16)):
        adj = np.triu(rng.random((n, n)) < p, 1)
        members = rng.choice(n, planted, replace=False)
        adj[np.ix_(members, members)] = True
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(*np.nonzero(adj)))
        for k in (1, 3, planted):
            assert {frozenset(c) for c in _cliques(adj, k)} == _nx_cliques(g, k)


def test_fidelity_adjacency_row_sums_are_the_graph_degrees():
    orbit = enumerate_orbit()
    vertices = list(range(256))
    degrees = dict(fidelity_graph(orbit, vertices).degree())
    assert fidelity_adjacency(orbit, vertices).sum(axis=1).tolist() == [degrees[v] for v in vertices]


def test_fidelity_tol_separates_one_fifth_from_every_other_fidelity():
    flat = enumerate_orbit().projectors.reshape(256, 16)
    dev = np.abs(np.real(flat.conj() @ flat.T) - 0.2)[np.triu_indices(256, 1)]
    assert dev[dev <= FIDELITY_TOL].max() < 1e-15
    assert dev[dev > FIDELITY_TOL].min() > 4.5e-3


def _unitary_table():
    """The (768, 768) Cayley table of the unitary cosets, read off
    element_product."""
    unitary = np.arange(768)
    return element_product(unitary[:, None], unitary)


def _scalar_span_census():
    """Reference census: one table walk per commuting pair of order-4
    cosets, kept when its span has 16 elements and is new."""
    names, index = _quotient()
    table = _unitary_table()
    els = enumerate_projective_clifford(4, extended=False)
    identity = index[displacement_coset(0, 0)]

    def span(x, z):
        powers = []
        for g in (x, z):
            acc = [identity]
            for _ in range(3):
                acc.append(table[acc[-1], g])
            powers.append(acc)
        return table[np.ix_(*powers)].ravel()

    square = np.diagonal(table)
    quartic = sorted(
        np.nonzero((square != identity) & (square[square] == identity))[0], key=names.__getitem__
    )
    sub = table[np.ix_(quartic, quartic)]
    subgroups = {}
    for i, j in zip(*np.nonzero(np.triu(sub == sub.T, 1))):
        x, z = quartic[i], quartic[j]
        s = frozenset(span(x, z).tolist())
        if len(s) != 16 or s in subgroups:
            continue
        c = commutator_phase(els[x].op.matrix, els[z].op.matrix)
        subgroups[s] = abs(c.imag) > 0.5
    hw_type = [s for s, primitive in subgroups.items() if primitive]
    gens = [
        index[coset(SymplecticPair(f, chi, 4))]
        for f, chi in (
            ((1, 1, 0, 1), (0, 0)),
            ((0, 7, 1, 0), (0, 0)),
            ((1, 0, 0, 1), (1, 0)),
            ((1, 0, 0, 1), (0, 1)),
        )
    ]
    inverses = [np.flatnonzero(table[g] == identity)[0] for g in gens]
    normal = [
        s
        for s in hw_type
        if all(
            s.issuperset(table[table[g, list(s)], g_inv].tolist())
            for g, g_inv in zip(gens, inverses)
        )
    ]

    def named(s):
        return frozenset(names[k] for k in s)

    return len(hw_type), len(normal), [named(s) for s in hw_type], [named(s) for s in normal]


def test_clifford_generators_reach_every_coset():
    # closure of the generators under the Cayley table: the whole quotient,
    # which the census's normality test and the cli's normalizer check rely on
    _, index = _quotient()
    table = _unitary_table()
    reached = {index[coset(g)] for g in CLIFFORD_GENERATORS}
    frontier = set(reached)
    while frontier:
        products = set(table[np.ix_(sorted(frontier), sorted(reached))].ravel().tolist())
        frontier = products - reached
        reached |= frontier
    assert len(reached) == len(table) == 768


def test_subgroup_census_matches_scalar_spans():
    assert hw_conjugate_subgroup_census() == _scalar_span_census()


def test_span_dedup_matches_unique_rows():
    # the census's 2,304 sorted 16-element spans, and small random rows
    # with many repeats
    _, index = _quotient()
    identity = index[displacement_coset(0, 0)]
    table = _unitary_table()
    square = np.diagonal(table)
    quartic = np.flatnonzero((square != identity) & (square[square] == identity))
    sub = table[np.ix_(quartic, quartic)]
    x, z = (quartic[k] for k in np.nonzero(np.triu(sub == sub.T, 1)))
    spans = np.sort(_span(x, z, identity), axis=1)
    spans = spans[np.all(np.diff(spans, axis=1) != 0, axis=1)]
    rows = np.random.default_rng(6).integers(0, 3, size=(500, 4))
    for a in (spans, rows, rows.astype(np.int16)):
        assert np.array_equal(first_distinct_rows(a), first_distinct_spans_by_unique(a))
    assert len(first_distinct_rows(spans)) == 48 and len(spans) == 2304


def test_primitive_pairing_cut_has_a_margin():
    # the census's cut abs(c.imag) > 0.5 splits commutator phases that sit
    # on the fourth roots of unity, each far from the cut
    _, index = _quotient()
    table = _unitary_table()
    mats = enumerate_projective_clifford(4, extended=False).mats
    identity = index[displacement_coset(0, 0)]
    square = np.diagonal(table)
    quartic = np.flatnonzero((square != identity) & (square[square] == identity))
    sub = table[np.ix_(quartic, quartic)]
    x, z = (quartic[k] for k in np.nonzero(np.triu(sub == sub.T, 1)))
    phases = np.array([commutator_phase(mats[a], mats[b]) for a, b in zip(x, z)])
    dist = np.abs(phases[:, None] - np.array([1, -1, 1j, -1j]))
    assert len(phases) == 3084 and dist.min(axis=1).max() < 1e-12
    assert np.bincount(dist.argmin(axis=1), minlength=4).tolist() == [1212, 336, 768, 768]


def test_dprime_literals_check_builds_two_operators(monkeypatch):
    calls = []

    def counting(pair):
        calls.append(pair)
        return to_operator(pair)

    monkeypatch.setattr(regrouping, "to_operator", counting)
    assert dprime_literals_match()
    assert len(calls) == 2


def test_quotient_names_match_coset_loop(monkeypatch):
    # the per-element coset() calls that the census's row names replaced:
    # each unitary row is its coset's least pair, in ascending key order
    group = enumerate_projective_clifford(4, extended=False)
    old = tuple(coset(e.source) for e in group)
    names, index = _quotient()
    assert names == old == tuple(zip(map(tuple, group.f.tolist()), map(tuple, group.chi.tolist())))
    assert all(index[name] == k for k, name in enumerate(old))
    assert np.all(np.diff(_coset_keys(group.f.T, group.chi.T, 4)) > 0)
    # lru_cache keys on the call form: any other form than the one every
    # caller uses would build and keep a second copy of the 768 elements
    forms = []

    def spy(*args, **kwargs):
        forms.append((args, kwargs))
        return enumerate_projective_clifford(*args, **kwargs)

    monkeypatch.setattr(regrouping, "enumerate_projective_clifford", spy)
    hw_conjugate_subgroup_census()
    assert forms == [((4,), {"extended": False})]


def test_sic_family_is_built_once_and_read_only():
    members, report = sic_family()
    again = sic_family()
    assert again[0] is members and again[1] is report
    for a in (members, *vars(report).values()):
        with pytest.raises(ValueError):
            a[0] = a[1]
    # another call builds the D'-orbits afresh
    fresh = regrouped_family()
    assert np.array_equal(fresh.reshape(16, 16), members[16:])
    assert not members.flags.writeable and not fresh.flags.writeable


def test_family_readers_count_certified_rows_only():
    # every row certifies at DEFAULT_TOL and none at 1e-30: an uncertified
    # row reads as neither group, not unique and without generators, and
    # the double cover and the carried SICs count certified rows only
    u = equivalence_unitary()
    group, unique, generators = reconstruct_family()
    assert group == [0] * 16 + [1] * 16 and unique == [True] * 32
    assert all(z.shape == x.shape == (4, 4) for z, x in generators)
    assert double_cover() and carried_sics(u) == 16
    assert reconstruct_family(1e-30) == ([-1] * 32, [False] * 32, [None] * 32)
    assert not double_cover(1e-30) and carried_sics(u, 1e-30) == 0


def test_the_identity_neither_carries_the_family_nor_leaves_the_clifford_group():
    one = np.eye(4, dtype=complex)
    assert clifford_index_two(equivalence_unitary()) and not clifford_index_two(one)
    assert carried_sics(one) == 0  # it keeps each orbit SIC in place


def test_primitive_commutation_takes_pairs_and_stacks():
    x, z = displacement(1, 0, 4), displacement(0, 1, 4)
    assert primitive_commutation(z, x) and primitive_commutation(Z_PRIME_MATRIX, X_PRIME_MATRIX)
    pairs = primitive_commutation(np.stack([z, z @ z, z]), np.stack([x, x @ x, np.eye(4)]))
    assert pairs.tolist() == [True, False, False]


def test_covariance_group_reads_the_norms_it_would_compute():
    # the norms of D and D' are read once; the overlaps, and so the
    # verdicts, equal those of norms computed on every call, bit for bit
    from sic4.numerics import overlaps

    groups, norms = regrouping._covariance_references()
    assert np.array_equal(groups[0], displacement_table(4).reshape(16, 4, 4))
    assert np.array_equal(groups[1], dprime_elements()) and not norms.flags.writeable
    rec = reconstruct_hw(enumerate_orbit().projectors[sic_family()[0]])
    for k in range(2):
        stack = rec.elements.reshape(-1, 4, 4)
        assert np.array_equal(overlaps(stack, groups[k], norms[k]), overlaps(stack, groups[k]))
