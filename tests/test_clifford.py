import functools
import itertools
import math

import numpy as np
import pytest

from oracles import (
    canonical_key,
    compose,
    coset,
    coset_keys_int64,
    elements_proj_equal,
    sector_by_pair_selection,
    symplectic_group_matrices,
    symplectic_group_matrices_by_loop,
)
import sic4.clifford as clifford
from sic4.clifford import (
    CliffordElement,
    SymplecticPair,
    _compose,
    _coset_keys,
    _pair_key,
    conjugation_action,
    enumerate_projective_clifford,
    kernel_pairs,
    semidirect_product,
    to_operator,
)
from sic4.numerics import GroupElement, is_unitary, match_projective, proj_equal
from sic4.orbits import _element_of, element_product
from sic4.weyl_heisenberg import SicPovm, SicReport, displacement, displacement_table, tau


def test_pair_validation():
    with pytest.raises(ValueError):
        SymplecticPair((1, 0, 0, 2), (0, 0), 4)  # det 2
    p = SymplecticPair((9, 8, 0, 1), (5, -1), 4)
    assert p.F == (1, 0, 0, 1)
    assert p.chi == (1, 3)
    assert p.det == 1
    assert p.antiunitary is False
    q = SymplecticPair((1, 0, 0, 7), (0, 0), 4)
    assert q.antiunitary is True


def test_cached_group_builders_accept_one_call_form():
    # lru_cache keys on the call form, so another form would cache a second copy
    for args, kwargs in (((4,), {}), ((4, False), {}), ((), {"d": 4, "extended": False})):
        with pytest.raises(TypeError):
            enumerate_projective_clifford(*args, **kwargs)
    assert enumerate_projective_clifford.cache_info().currsize <= 2


def test_group_order_counts():
    assert len(symplectic_group_matrices(8, 1)) == 384
    assert len(symplectic_group_matrices(8, 7)) == 384
    assert len(kernel_pairs(4)) == 8
    assert len(enumerate_projective_clifford(4, extended=False)) == 768
    assert len(enumerate_projective_clifford(4, extended=True)) == 1536


def test_kernel_acts_trivially():
    ident = to_operator(SymplecticPair((1, 0, 0, 1), (0, 0), 4))
    for pair in kernel_pairs(4):
        assert elements_proj_equal(to_operator(pair), ident)


def test_identity_and_generator_images():
    # F = [[1,0],[1,1]] sends (1,0) to (1,1): a shift acquires a clock factor
    p = SymplecticPair((1, 0, 1, 1), (0, 0), 4)
    u = to_operator(p)
    _, q = conjugation_action(p, (1, 0))
    assert q == (1, 1)
    img = u.matrix @ displacement(1, 0, 4) @ u.matrix.conj().T
    assert proj_equal(img, displacement(1, 1, 4))


def test_conjugation_action_phase():
    # U D_p U^dag = omega^e D_q with the returned mod-d index, up to the
    # sign lost by folding the period-2d index into [0, d); the exact
    # identity is asserted inside conjugation_action itself
    rng = np.random.default_rng(11)
    mats = symplectic_group_matrices(8, 1)
    for _ in range(40):
        f = mats[rng.integers(len(mats))]
        chi = tuple(int(x) for x in rng.integers(0, 4, size=2))
        pair = SymplecticPair(tuple(int(x) for x in f), chi, 4)
        u = to_operator(pair).matrix
        p = tuple(int(x) for x in rng.integers(0, 4, size=2))
        if p == (0, 0):
            continue
        e, q = conjugation_action(pair, p)
        img = u @ displacement(*p, 4) @ u.conj().T
        target = 1j**e * displacement(*q, 4)
        assert np.allclose(img, target, atol=1e-9) or np.allclose(img, -target, atol=1e-9)


def test_homomorphism_property():
    rng = np.random.default_rng(23)
    mats1 = symplectic_group_matrices(8, 1)
    mats7 = symplectic_group_matrices(8, 7)
    both = mats1 + mats7
    for _ in range(200):
        fa = both[rng.integers(len(both))]
        fb = both[rng.integers(len(both))]
        a = SymplecticPair(tuple(int(x) for x in fa), tuple(int(x) for x in rng.integers(0, 4, 2)), 4)
        b = SymplecticPair(tuple(int(x) for x in fb), tuple(int(x) for x in rng.integers(0, 4, 2)), 4)
        lhs = to_operator(semidirect_product(a, b))
        rhs = compose(to_operator(a), to_operator(b))
        assert elements_proj_equal(lhs, rhs)


def test_enumeration_entries_are_clifford_elements():
    group = enumerate_projective_clifford(4, extended=True)
    assert all(isinstance(group[i], CliffordElement) for i in range(5))
    assert int(group.anti.sum()) == 768


@pytest.mark.parametrize("extended", [False, True])
def test_clifford_group_arrays_are_read_only_and_aligned(extended):
    group = enumerate_projective_clifford(4, extended=extended)
    n = 1536 if extended else 768
    assert len(group) == n
    shapes = [(n, 4), (n, 2), (n, 4, 4), (n,)]
    for a, shape in zip((group.f, group.chi, group.mats, group.anti), shapes):
        assert a.shape == shape and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[1]
    assert not group.anti[:768].any() and group.anti[768:].all()
    assert is_unitary(group.mats)
    unitary = enumerate_projective_clifford(4, extended=False)
    for a, b in zip((group.f, group.chi, group.mats), (unitary.f, unitary.chi, unitary.mats)):
        assert np.array_equal(a[:768], b)


def test_group_rows_build_their_elements():
    group = enumerate_projective_clifford(4, extended=True)
    for i in range(len(group)):
        e = group[i]
        assert e.source.F == tuple(group.f[i].tolist()) and e.source.chi == tuple(group.chi[i].tolist())
        ref = to_operator(e.source)
        assert np.array_equal(e.op.matrix, ref.matrix) and np.array_equal(e.op.matrix, group.mats[i])
        assert e.op.antiunitary == ref.antiunitary == bool(group.anti[i])
    assert group[-1].source == group[len(group) - 1].source
    with pytest.raises(IndexError):
        group[len(group)]


def test_match_projective():
    stack = enumerate_projective_clifford(4, extended=False).mats[:50]
    assert match_projective(np.exp(0.7j) * stack[17], stack) == 17
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert match_projective(q, stack) == -1
    queries = np.stack([stack[3], q, np.exp(0.2j) * stack[49]])
    assert match_projective(queries, stack).tolist() == [3, -1, 49]


def _float_hash_sources(extended):
    """Reference enumeration: dedup every pair's operator by a phase-fixed,
    rounded fingerprint of its matrix, keeping the first pair per class."""
    return [p for det in ((1, 7) if extended else (1,)) for p in _float_hash_sector(det)]


@functools.lru_cache(maxsize=None)
def _float_hash_sector(det):
    """_float_hash_sources of one determinant sector; its fingerprints carry
    the antiunitarity flag, so the sectors share no class."""
    seen = {}
    for f in symplectic_group_matrices(8, det):
        for chi in itertools.product(range(4), repeat=2):
            pair = SymplecticPair(f, chi, 4)
            op = to_operator(pair)
            seen.setdefault((op.antiunitary, canonical_key(op.matrix)), pair)
    return tuple((p.F, p.chi) for p in seen.values())


def _sources(f, chi):
    """(F, chi) tuples of the rows of a group's f and chi arrays."""
    return [(tuple(a), tuple(b)) for a, b in zip(f.tolist(), chi.tolist())]


@pytest.mark.parametrize("extended", [False, True])
def test_coset_enumeration_matches_float_hash(extended):
    group = enumerate_projective_clifford(4, extended=extended)
    assert _sources(group.f, group.chi) == _float_hash_sources(extended)


def test_coset_is_constant_on_kernel_cosets():
    pair = SymplecticPair((3, 0, 2, 3), (0, 1), 4)
    names = {coset(semidirect_product(pair, k)) for k in kernel_pairs(4)}
    assert names == {coset(pair)}
    assert coset(pair) == min((q.F, q.chi) for q in (semidirect_product(pair, k) for k in kernel_pairs(4)))


def test_multiplication_table_is_a_homomorphism():
    els = enumerate_projective_clifford(4, extended=False)
    table = element_product(np.arange(768)[:, None], np.arange(768))
    assert table.dtype == np.int16 and table.shape == (768, 768)
    rng = np.random.default_rng(31)
    for i, j in rng.integers(0, 768, size=(200, 2)):
        k = table[i, j]
        assert coset(els[k].source) == coset(semidirect_product(els[i].source, els[j].source))
        assert proj_equal(els[k].op.matrix, els[i].op.matrix @ els[j].op.matrix)
    ident = coset(SymplecticPair((1, 0, 0, 1), (0, 0), 4))
    e = next(n for n, el in enumerate(els) if coset(el.source) == ident)
    assert np.array_equal(table[e], np.arange(768))
    assert np.array_equal(table[:, e], np.arange(768))


def _scalar_gauss_sum(F, d):
    """Reference V_F, beta invertible: one Gauss sum per matrix."""
    alpha, beta, _gamma, delta = F
    db = 2 * d if d % 2 == 0 else d
    binv = pow(beta % db, -1, db)
    r, s = np.indices((d, d))
    expo = (binv * (alpha * s * s - 2 * r * s + delta * r * r)) % db
    return tau(d) ** expo / math.sqrt(d)


def _scalar_operator(pair):
    """Reference (matrix, antiunitary) of one pair: the Gauss sum, or the
    two-factor product through the least admissible shift, after F J for
    an antiunitary pair, then D_chi."""
    d, db = pair.d, pair.dbar
    if pair.antiunitary:
        pair = semidirect_product(pair, SymplecticPair((1, 0, 0, -1), (0, 0), d))
    alpha, beta, gamma, delta = pair.F
    if math.gcd(beta, db) == 1:
        v = _scalar_gauss_sum(pair.F, d)
    else:
        x = next(x for x in range(db) if math.gcd((delta + x * beta) % db, db) == 1)
        f1 = (0, -1 % db, 1, x)
        f2 = ((gamma + x * alpha) % db, (delta + x * beta) % db, -alpha % db, -beta % db)
        v = _scalar_gauss_sum(f1, d) @ _scalar_gauss_sum(f2, d)
    return displacement_table(d)[pair.chi] @ v


@pytest.mark.parametrize("det", [1, 7])
def test_enumeration_matches_per_pair_coset_loop(det):
    # reference: name every pair by coset, keep the first pair per name and
    # build its operator alone
    seen = {}
    for f in symplectic_group_matrices(8, det):
        for chi in itertools.product(range(4), repeat=2):
            pair = SymplecticPair(f, chi, 4)
            seen.setdefault(coset(pair), pair)
    group = enumerate_projective_clifford(4, extended=True)
    rows = slice(0, 768) if det == 1 else slice(768, None)
    assert _sources(group.f[rows], group.chi[rows]) == [(p.F, p.chi) for p in seen.values()]
    assert np.all(group.anti[rows] == (det == 7))
    ref = np.stack([_scalar_operator(p) for p in seen.values()])
    assert np.array_equal(group.mats[rows], ref)


@pytest.mark.parametrize("d", [3, 4])
def test_to_operator_matches_scalar_gauss_sums(d):
    rng = np.random.default_rng(41)
    db = 2 * d if d % 2 == 0 else d
    parities = set()
    for det in (1, db - 1):
        mats = symplectic_group_matrices(db, det)
        for k in rng.integers(0, len(mats), 60):
            f = mats[k]
            pair = SymplecticPair(f, tuple(int(x) for x in rng.integers(0, d, 2)), d)
            op = to_operator(pair)
            assert op.antiunitary == (det == db - 1)
            assert np.array_equal(op.matrix, _scalar_operator(pair))
            parities.add((det, math.gcd(f[1], db) == 1))
    assert parities == {(det, unit) for det in (1, db - 1) for unit in (False, True)}


def test_element_product_matches_row_loop():
    # the (F, chi) law row by row over the extended group, antiunitary rows
    # included: every product's pair, looked up among the kernel cosets
    group = enumerate_projective_clifford(4, extended=True)
    f, chi = group.f.T, group.chi.T
    index = np.full(8**4 * 16, -1, dtype=np.int16)
    for k in kernel_pairs(4):
        index[_pair_key(*_compose(f, chi, k.F, k.chi, 8, 4), 4)] = np.arange(1536)
    old = np.empty((1536, 1536), dtype=np.int16)
    for i, (fi, ci) in enumerate(zip(group.f.tolist(), group.chi.tolist())):
        old[i] = index[_pair_key(*_compose(fi, ci, f, chi, 8, 4), 4)]
    assert old.min() >= 0
    rows = np.arange(1536)
    assert np.array_equal(element_product(rows[:, None], rows), old)


def test_element_lookup_is_read_only():
    element = _element_of()
    assert element.dtype == np.int16 and element.shape == (65536,)
    assert sorted(element[element >= 0].tolist()) == list(range(1536))
    with pytest.raises(ValueError):
        element[0] = 0


def test_sector_checks_its_stack_once(monkeypatch):
    calls = []

    def counted(m, tol=1e-9):
        calls.append(np.shape(m))
        return is_unitary(m, tol)

    monkeypatch.setattr(clifford, "is_unitary", counted)
    f, chi, mats, anti = clifford._sector(4, 1)
    assert calls == [(768, 4, 4)]
    ref = enumerate_projective_clifford(4, extended=False)
    assert np.array_equal(f, ref.f) and np.array_equal(chi, ref.chi)
    assert np.array_equal(mats, ref.mats)
    assert anti.tolist() == [False] * 768


def test_sector_refuses_a_non_unitary_row(monkeypatch):
    operators = clifford._operators

    def planted(f, chi, d):
        mats, anti = operators(f, chi, d)
        mats[len(mats) // 2] *= 1.0 + 1e-6
        return mats, anti

    monkeypatch.setattr(clifford, "_operators", planted)
    with pytest.raises(ValueError, match="not unitary"):
        clifford._sector(4, 7)


def test_records_keep_value_and_identity_semantics():
    p = SymplecticPair(F=(9, 8, 0, 1), chi=(5, -1), d=4)
    q = SymplecticPair((1, 0, 0, 1), (1, 3), 4)
    assert p == q and hash(p) == hash(q) and p != SymplecticPair((1, 0, 0, 1), (1, 2), 4)
    assert repr(p) == "SymplecticPair(F=(1, 0, 0, 1), chi=(1, 3), d=4)"
    group = enumerate_projective_clifford(4, extended=True)
    a, b = group[5], group[5]
    assert a.source == b.source and a != b and a == a and len({a, b}) == 2
    assert repr(a).startswith("CliffordElement(source=SymplecticPair(F=")
    g = GroupElement(matrix=np.eye(4))
    assert g != GroupElement(np.eye(4)) and g.antiunitary is False and g.matrix.dtype == complex
    for record, field in ((p, "F"), (a, "op"), (g, "matrix"), (group, "f")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    report = SicReport(True, 0.0, 1e-16, completeness_deviation=2e-16)
    assert list(vars(report)) == ["is_sic", "max_fidelity_deviation", "max_state_deviation", "completeness_deviation"]
    assert report == SicReport(True, 0.0, 1e-16, 2e-16) and report != SicReport(False, 0.0, 1e-16, 2e-16)
    assert repr(report).startswith("SicReport(is_sic=True, max_fidelity_deviation=0.0")
    with pytest.raises(ValueError, match="expected 16 states"):
        SicPovm(d=4, states=np.zeros((15, 4, 4)))


def test_coset_names_match_the_per_pair_coset():
    # pairs of both sectors, most of them not their coset's least pair
    rng = np.random.default_rng(38)
    fs = symplectic_group_matrices(8, 1) + symplectic_group_matrices(8, 7)
    chis = rng.integers(0, 4, size=(500, 2)).tolist()
    pairs = [SymplecticPair(fs[k], tuple(chi), 4) for k, chi in zip(rng.integers(0, len(fs), 500), chis)]
    assert clifford.coset_names(pairs) == [coset(p) for p in pairs]
    assert sum(coset(p) != (p.F, p.chi) for p in pairs) > 300


def test_symplectic_group_matrices_match_itertools_loop():
    for db in (3, 4, 6, 8):
        for det in range(db):
            assert symplectic_group_matrices(db, det) == symplectic_group_matrices_by_loop(db, det)
            assert all(type(x) is int for f in symplectic_group_matrices(db, det) for x in f)


@pytest.mark.parametrize("det", [1, 7])
def test_coset_keys_match_int64_keys(det):
    fs = np.array(symplectic_group_matrices(8, det))
    f = np.repeat(fs, 16, axis=0)
    chi = np.tile(np.indices((4, 4)).reshape(2, -1).T, (len(fs), 1))
    old = coset_keys_int64(f.T, chi.T, 4)
    assert old.dtype == np.int64
    assert np.array_equal(_coset_keys(f.T, chi.T, 4), old)


@pytest.mark.parametrize("det", [1, 7])
def test_sector_per_symplectic_class_equals_per_pair_selection(det):
    # one V_F per symplectic class, displaced by every D_chi, against the
    # first pair of each coset over all 6,144 pairs and its own operator
    got, want = clifford._sector(4, det), sector_by_pair_selection(4, det)
    assert len(want[0]) == 6144 // 8
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
