import ast
import json
import math
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bloch_vectors, canonical_key, compose, eig_hermitian, probe_proj_equal, value_classes_one_list
from sic4.clifford import enumerate_projective_clifford
from sic4.numerics import (
    MATCH_TOL,
    GroupElement,
    _Record,
    cached_table,
    canonical_phase,
    commutator_phase,
    conjugate,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    overlaps,
    proj_equal,
    projective_set_equal,
    rank1_kets,
    value_class_rows,
    value_classes,
)
from sic4.orbits import enumerate_orbit
from sic4.reconstruction import reconstruct_hw
from sic4.regrouping import dprime_elements, sic_family
from sic4.two_qubit import Gbv, _table_vector, from_gbv, partial_transpose, violating_signs
from sic4.weyl_heisenberg import displacement_table

RNG = np.random.default_rng(7)
ROOT = Path(__file__).resolve().parents[1]


def random_unitary(d):
    q, r = np.linalg.qr(RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_group_element_rejects_nonunitary():
    with pytest.raises(ValueError):
        GroupElement(np.ones((4, 4)))


def test_is_unitary_checks_a_stack():
    mats = np.stack([random_unitary(4) for _ in range(3)])
    assert is_unitary(mats)
    assert not is_unitary(np.concatenate([mats, np.ones((1, 4, 4))]))
    with pytest.raises(ValueError, match="square"):
        is_unitary(np.ones((2, 4, 3)))


def test_compose_antiunitary_flags():
    u = GroupElement(random_unitary(4))
    a = GroupElement(random_unitary(4), antiunitary=True)
    assert compose(u, u).antiunitary is False
    assert compose(a, u).antiunitary is True
    assert compose(a, a).antiunitary is False


def test_compose_acts_like_application():
    def act(g, v):  # v -> matrix @ v, or matrix @ conj(v) if antiunitary
        return g.matrix @ (v.conj() if g.antiunitary else v)

    a = GroupElement(random_unitary(4), antiunitary=True)
    b = GroupElement(random_unitary(4))
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    assert np.allclose(act(compose(a, b), v), act(a, act(b, v)))


def test_conjugate_preserves_hermiticity():
    g = GroupElement(random_unitary(4), antiunitary=True)
    h = RNG.normal(size=(4, 4))
    h = h + h.T
    m = conjugate(g, h)
    assert np.allclose(m, m.conj().T)


def test_proj_equal_phases():
    u = random_unitary(4)
    assert proj_equal(u, np.exp(0.321j) * u)
    assert not proj_equal(u, random_unitary(4))


def test_proj_equal_projectors():
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    v /= np.linalg.norm(v)
    p = np.outer(v, v.conj())
    assert proj_equal(p, np.outer(1j * v, (1j * v).conj()))


def test_eig_hermitian_gauge():
    h = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    h = h + h.conj().T
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h)
    for k in range(4):
        i = np.argmax(np.abs(v[:, k]))
        assert abs(v[i, k].imag) < 1e-12 and v[i, k].real > 0


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_canonical_phase_and_key():
    u = random_unitary(4)
    k1 = canonical_key(u)
    k2 = canonical_key(np.exp(1.234j) * u)
    assert k1 == k2
    c = canonical_phase(u)
    flat = c.ravel()
    pivot = flat[np.argmax(np.abs(flat) >= np.abs(flat).max() / 2)]
    assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def _haar_unitaries(seed, shape):
    """Haar-random unitaries of shape (..., d, d) from one seed."""
    z = np.random.default_rng(seed).normal(size=shape + (2,)).view(complex)[..., 0]
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(d=st.integers(2, 5), count=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_canonical_phase_properties_on_haar_unitaries(d, count, seed):
    # count 0 draws one matrix, else a stack of count
    u = _haar_unitaries(seed, (max(count, 1), d, d))
    u = u if count else u[0]
    c = canonical_phase(u)
    flat, out = u.reshape(-1, d * d), c.reshape(-1, d * d)
    rows, size = np.arange(len(flat)), np.abs(flat)
    pivot = (size >= size.max(axis=1, keepdims=True) / 2).argmax(axis=1)
    # the input times one unit phase per matrix, which makes the pivot real positive
    phase = out[rows, pivot] / flat[rows, pivot]
    assert np.max(np.abs(np.abs(phase) - 1)) <= 1e-15
    assert np.max(np.abs(out - phase[:, None] * flat)) <= 1e-15
    assert np.max(np.abs(out[rows, pivot].imag)) <= 1e-15 and out[rows, pivot].real.min() > 0
    assert size[rows, pivot].min() >= 1 / (2 * math.sqrt(d))
    rng = np.random.default_rng(seed)
    turned = u * np.exp(1j * rng.uniform(0, 2 * np.pi, u.shape[:-2] + (1, 1)))
    assert np.max(np.abs(canonical_phase(turned) - c)) <= 1e-14
    delta = 1e-15 * (rng.uniform(-1, 1, u.shape) + 1j * rng.uniform(-1, 1, u.shape))
    assert np.max(np.abs(canonical_phase(u + delta) - c)) <= 1e-13


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0, 2 * math.pi),
    delta=st.floats(1e-2, 1),
    state=st.booleans(),
)
def test_proj_equal_properties_on_haar_unitaries_and_states(d, seed, theta, delta, state):
    u, w = _haar_unitaries(seed, (2, d, d))
    rng, phase = np.random.default_rng(seed), np.exp(1j * theta)
    if state:  # rank-1 states of Haar kets: the first, its turned ket, another, and a ket at angle arctan(delta)
        ket = u[:, 0] + delta * u[:, 1]
        a, same = np.outer(u[:, 0], u[:, 0].conj()), np.outer(phase * u[:, 0], (phase * u[:, 0]).conj())
        other, near = np.outer(w[:, 0], w[:, 0].conj()), np.outer(ket, ket.conj()) / (1 + delta**2)
    else:  # Haar unitaries: the first, turned, another, and the first times exp(i delta H), H's eigenvalues on [-1, 1]
        a, same, other = u, phase * u, w
        near = u @ (w * np.exp(1j * delta * np.linspace(-1, 1, d))) @ w.conj().T
    # a move of Frobenius norm delta orthogonal to a, so no phase of a
    e = rng.normal(size=(d, d, 2)).view(complex)[..., 0]
    e -= np.vdot(a, e) / np.vdot(a, a) * a
    moved = a + delta * e / np.linalg.norm(e)
    assert proj_equal(phase * a, a)
    assert not proj_equal(2 * a, a)
    assert not proj_equal(moved, a)
    # on unitary or rank-1 pairs the overlap kernel agrees with the probe-based criterion
    for b, equal in ((same, True), (other, False), (near, False)):
        assert proj_equal(a, b) == probe_proj_equal(a, b) == equal


def test_match_tol_sits_far_inside_every_measured_match_and_non_match():
    # every overlap the library compares is within 1e-14 of 1 (a match) or
    # at most 0.77, so MATCH_TOL (1e-6) is six orders of magnitude inside
    # both; orbit states and Clifford matrices match phase-turned copies
    def margins(o, match):
        return 1 - o[match].min(), o[~match].max()

    rng = np.random.default_rng(33)
    orbit = enumerate_orbit().projectors
    mats = enumerate_projective_clifford(4, extended=False).mats
    found = {}
    for name, stack in (("orbit", orbit), ("clifford", mats)):
        turned = stack * np.exp(1j * rng.uniform(0, 2 * np.pi, (len(stack), 1, 1)))
        found[name] = margins(overlaps(stack, turned), np.eye(len(stack), dtype=bool))
    members, _ = sic_family()
    elements = reconstruct_hw(orbit[members]).elements.reshape(32, 16, 4, 4)
    for group, own in ((displacement_table(4).reshape(16, 4, 4), slice(0, 16)), (dprime_elements(), slice(16, 32))):
        o = overlaps(elements, group)  # (32, 16, 16)
        match = o >= 1 - MATCH_TOL
        # an element matches at most one member; each own SIC's 16 elements match the 16 members
        assert match.sum(axis=-1).max() == 1 and match[own].any(axis=-1).all()
        assert np.all(np.sort(o[own].argmax(axis=-1), axis=-1) == np.arange(16))
        found["group", own.start] = margins(o, match)
    vec = _table_vector("product", 1, violating_signs())
    q = from_gbv(Gbv(r=vec[:, :3], s=vec[:, 3:6], C=vec[:, 6:].reshape(-1, 3, 3)))
    o = overlaps(partial_transpose(q), orbit)
    match = o >= 1 - MATCH_TOL
    assert match.sum(axis=1).tolist() == [1] * 128
    found["partial transposes"] = margins(o, match)
    for name, (match_dev, best_non_match) in found.items():
        assert match_dev <= 1e-14 and best_non_match <= 0.77, name


def test_stacked_kernels_match_their_per_matrix_loops():
    # the loops are the per-matrix forms the stacked kernels replaced; the
    # stacked results must agree bit for bit, and so must single-matrix calls
    h = RNG.normal(size=(6, 4, 4)) + 1j * RNG.normal(size=(6, 4, 4))
    h = h + h.conj().swapaxes(1, 2)
    u = np.stack([random_unitary(4) for _ in range(6)])
    w, v = eig_hermitian(h)
    c = canonical_phase(u)
    phases = commutator_phase(u, u[::-1])
    for k in range(6):
        wk, vk = np.linalg.eigh(h[k])
        for j in range(4):
            i = int(np.argmax(np.abs(vk[:, j])))
            vk[:, j] = vk[:, j] / (vk[i, j] / abs(vk[i, j]))
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)
        assert np.array_equal(eig_hermitian(h[k])[1], vk)
        x = next(x for x in u[k].ravel() if abs(x) >= np.abs(u[k]).max() / 2)
        assert np.array_equal(c[k], u[k] / (x / abs(x))) and np.array_equal(canonical_phase(u[k]), c[k])
        assert phases[k] == commutator_phase(u[k], u[5 - k])


def test_projective_set_equal():
    mats = np.stack([random_unitary(4) for _ in range(6)])
    shuffled = mats[RNG.permutation(6)] * np.exp(
        1j * RNG.uniform(0, 2 * np.pi, size=6)
    ).reshape(6, 1, 1)
    assert projective_set_equal(mats, shuffled)
    other = mats.copy()
    other[0] = random_unitary(4)
    assert not projective_set_equal(mats, other)


def test_stacked_projective_set_equal_matches_per_set_calls():
    # a stack of sets gets each set's verdict; a repeated member matches
    # one member of b twice and fails; any shape but b's or a stack of
    # b's is False
    mats = np.stack([random_unitary(4) for _ in range(6)])
    shuffled = mats[RNG.permutation(6)] * np.exp(1j * RNG.uniform(0, 2 * np.pi, size=(6, 1, 1)))
    other, repeated = mats.copy(), mats.copy()
    other[2] = random_unitary(4)
    repeated[1] = 1j * mats[0]
    stack = np.stack([mats, shuffled, other, mats[::-1], repeated])
    verdicts = projective_set_equal(stack, mats)
    assert verdicts.shape == (5,)
    assert verdicts.tolist() == [projective_set_equal(s, mats) for s in stack] == [True, True, False, True, False]
    for a in (mats[:5], stack[:, :5], stack[None], mats[0]):
        assert projective_set_equal(a, mats) is False
    assert projective_set_equal(mats, stack) is False


def test_matrix_json_round_trip():
    u = random_unitary(4)
    assert np.allclose(matrix_from_json(matrix_to_json(u)), u)
    assert matrix_to_json(u)["dim"] == 4
    assert is_unitary(u)


def test_matrix_to_json_matches_per_entry_floats():
    # the per-entry float() loop is the oracle; repr tells -0.0 from 0.0
    u = random_unitary(4)
    u[0, 1], u[2, 3] = complex(-0.0, 0.5), complex(0.25, -0.0)
    for m in (u, u.T, u[::2, ::2]):
        old = [[float(x.real), float(x.imag)] for x in m.ravel()]
        new = matrix_to_json(m)
        assert new["dim"] == len(m)
        assert repr(new["entries"]) == repr(old)
        assert all(type(x) is float for pair in new["entries"] for x in pair)


def test_matrix_from_json_length_check():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 3, "entries": [[1.0, 0.0]] * 4})


def test_matrix_from_json_matches_per_entry_complex():
    # the per-entry complex() loop is the oracle; repr tells -0.0 from 0.0
    u = random_unitary(4)
    u[0, 1], u[2, 3] = complex(-0.0, 0.5), complex(0.25, -0.0)
    obj = matrix_to_json(u)
    obj["entries"][5] = [1, -2]  # JSON integers
    old = np.array([complex(re, im) for re, im in obj["entries"]]).reshape(4, 4)
    new = matrix_from_json(obj)
    assert new.dtype == complex and new.shape == (4, 4)
    assert repr(new.tolist()) == repr(old.tolist())


def test_stacked_matrix_json_matches_the_per_matrix_loop():
    # the 16 states of a SIC file, read back from its JSON text; repr tells
    # -0.0 from 0.0
    from oracles import sic_states

    states = sic_states(5)
    objs = matrix_to_json(states)
    assert objs == [matrix_to_json(s) for s in states]
    doc = json.loads(json.dumps({"states": objs}))
    doc["states"][3]["entries"][0] = [1, 0]  # JSON integers
    new = matrix_from_json(doc["states"])
    old = np.stack([matrix_from_json(m) for m in doc["states"]])
    assert new.dtype == complex and new.shape == (16, 4, 4)
    assert repr(new.tolist()) == repr(old.tolist())


def test_stacked_matrix_from_json_rejects_mixed_dimensions():
    objs = [matrix_to_json(np.eye(4)), matrix_to_json(np.eye(2))]
    with pytest.raises(ValueError, match=r"dimensions \[2, 4\]"):
        matrix_from_json(objs)
    with pytest.raises(ValueError):
        matrix_from_json([])


@pytest.mark.parametrize(
    "entry",
    [["1", 0.0], "1", [None, 0.0], None, [1.0], [1, 2, 3], [[1.0], 0.0], True]
    + [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]],
    ids=repr,
)
def test_matrix_from_json_rejects_non_number_entries(entry):
    obj = matrix_to_json(np.eye(4))
    obj["entries"][7] = entry
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_value_classes_number_classes_by_first_occurrence():
    values = np.array([3.0, 1.0, 3.0 + 4e-12, 1.0 - 2e-12, 7.0])
    split = value_classes(values, 1e-6)
    assert split.classes.tolist() == [0, 1, 0, 1, 2]
    assert split.counts.tolist() == [2, 2, 1] and split.first.tolist() == [0, 1, 4]
    assert np.array_equal(split.centers, np.bincount(split.classes, values) / split.counts)
    assert split.spread == pytest.approx(2e-12, rel=1e-3) and split.separation == pytest.approx(2.0)
    # complex values and 3-vectors keep their shape in the centers
    z = value_classes(np.array([1j, 2.0, 1j + 1e-12, 2.0]), 1e-6)
    assert z.classes.tolist() == [0, 1, 0, 1] and z.centers.dtype == complex
    assert z.separation == pytest.approx(math.sqrt(5))
    v = value_classes(np.zeros((4, 3)), 1e-6)
    assert v.centers.shape == (1, 3) and v.counts.tolist() == [4]
    assert v.spread == 0.0 and v.separation == math.inf


def test_value_classes_refuse_a_near_tie():
    # two values 0.6 gap apart neither share a class (they lie beyond
    # gap / 2) nor stand as two (their centers lie within gap)
    for gap in (1e-9, 1e-7, 1e-6):
        for values in (
            np.array([0.25, 0.25 + 0.6 * gap]),
            np.array([0.5j, 0.5j + 0.6j * gap]),
            np.array([[0.1, 0.2, 0.3], [0.1, 0.2 + 0.6 * gap, 0.3]]),
        ):
            with pytest.raises(ValueError, match="spread 0, separation 6e-"):
                value_classes(values, gap)
    # a class wider than its gap: its members lie within gap / 2 of the
    # first, but the center, 0.25 gap from it, lies 0.75 gap from one
    with pytest.raises(ValueError, match="spread 7.5e-07, separation inf"):
        value_classes(np.array([0.0, -0.5e-6] + [0.5e-6] * 4), 1e-6)
    with pytest.raises(ValueError, match="not finite"):
        value_classes(np.array([0.0, np.nan]), 1e-6)


def test_value_classes_make_no_square_array():
    # 3360 classes of one value each: an (N, N) array of distances would
    # take 90 MB; the kernel compares centers a block at a time
    values = np.arange(3360) * 1e-3
    tracemalloc.start()
    split = value_classes(values, 1e-6)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(split.counts) == 3360 and split.separation == pytest.approx(1e-3)
    assert peak < 4e6


def test_censuses_split_with_measured_margins():
    from sic4.orbits import TRIPLE_CENSUS_GAP, _distinct_triples, enumerate_orbit
    from sic4.two_qubit import (
        CONCURRENCE_GAP,
        CUBE_GAP_TOL,
        REDUCED_POINT_TOL,
        concurrence,
        physical_state,
    )
    from sic4.weyl_heisenberg import CONSTANTS

    projectors = enumerate_orbit().projectors
    # the triple traces of each SIC and of all 16 together: 17 classes
    vals = [_distinct_triples(s)[0] for s in projectors.reshape(16, 16, 4, 4)]
    splits = [value_classes(v, TRIPLE_CENSUS_GAP) for v in vals]
    pooled = value_classes(np.concatenate(vals), TRIPLE_CENSUS_GAP)
    assert all(len(s.counts) == 17 for s in splits + [pooled])
    assert max(s.spread for s in splits) <= 5.4e-16 and pooled.spread <= 1.1e-14 < TRIPLE_CENSUS_GAP / 2
    assert TRIPLE_CENSUS_GAP < 8.4e-3 <= min(s.separation for s in splits + [pooled])
    # the one real center against the smallest imaginary part of the others
    im = np.sort(np.abs(np.stack([s.centers.imag for s in splits])), axis=1)
    assert im[:, 0].max() <= 1e-17 and im[:, 1].min() >= 2.9e-2
    # Bloch points of either qubit in either basis, and the cube distances
    i, j = np.triu_indices(8, 1)
    for basis in ("product", "bell"):
        for qubit in (0, 1):
            points = bloch_vectors(projectors, basis, qubit).reshape(16, 16, 3)
            splits = [value_classes(p, REDUCED_POINT_TOL) for p in points]
            assert max(s.spread for s in splits) <= 2.6e-16 < REDUCED_POINT_TOL / 2
            assert REDUCED_POINT_TOL < 0.41 <= min(s.separation for s in splits)
            distinct = np.stack([p[s.first] for p, s in zip(points, splits)])
            dists = np.sort(np.linalg.norm(distinct[:, i] - distinct[:, j], axis=2), axis=1)
            splits = [value_classes(d, CUBE_GAP_TOL) for d in dists]
            assert max(s.spread for s in splits) <= 1.0e-15 < CUBE_GAP_TOL / 2
            # 0.069 on the qubit that gives the cube, 0.032 on the other
            assert CUBE_GAP_TOL < 0.032 <= min(s.separation for s in splits)
        # concurrences, SIC by SIC and pooled behind their three closed forms
        conc = concurrence(rank1_kets(physical_state(projectors, basis)))
        splits = [value_classes(c, CONCURRENCE_GAP) for c in conc.reshape(16, 16)]
        assert max(s.spread for s in splits) <= 4.5e-16 < CONCURRENCE_GAP / 2
        assert CONCURRENCE_GAP < 0.55 <= min(s.separation for s in splits)
        root = math.sqrt(CONSTANTS.G)
        forms = [math.sqrt(2 / 5), math.sqrt((2 + 2 * root) / 5), math.sqrt((2 - 2 * root) / 5)]
        pooled = value_classes(np.concatenate([forms, conc]), CONCURRENCE_GAP)
        assert pooled.counts.tolist() == [129, 65, 65]
        assert pooled.spread <= 1.5e-15 < CONCURRENCE_GAP / 2 and 0.21 <= pooled.separation


def _one_row_split(split, values, gap):
    """A one-list split of values, None where it raises."""
    try:
        return split(values, gap)
    except ValueError:
        return None


def _assert_same_split(got, want):
    """Two splits are one: classes, counts, first and centers bit for bit,
    spread and separation equal; or both None."""
    assert (got is None) == (want is None)
    if want is not None:
        for field in ("classes", "counts", "first", "centers"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (got.spread, got.separation) == (want.spread, want.separation)


def _census_families():
    """(values, gap) of each census family, one row per orbit SIC: triple
    traces, Bloch points of either qubit in either basis, the distinct
    second-qubit points' cube distances and the concurrences."""
    from sic4.orbits import TRIPLE_CENSUS_GAP, _distinct_triples, enumerate_orbit
    from sic4.two_qubit import CONCURRENCE_GAP, CUBE_GAP_TOL, REDUCED_POINT_TOL, concurrence, physical_state

    projectors = enumerate_orbit().projectors
    yield _distinct_triples(projectors.reshape(16, 16, 4, 4))[0], TRIPLE_CENSUS_GAP
    i, j = np.triu_indices(8, 1)
    for basis in ("product", "bell"):
        for qubit in (0, 1):
            points = bloch_vectors(projectors, basis, qubit).reshape(16, 16, 3)
            yield points, REDUCED_POINT_TOL
            distinct = np.stack([p[value_classes(p, REDUCED_POINT_TOL).first] for p in points])
            yield np.sort(np.linalg.norm(distinct[:, i] - distinct[:, j], axis=2), axis=1), CUBE_GAP_TOL
        yield concurrence(rank1_kets(physical_state(projectors, basis))).reshape(16, 16), CONCURRENCE_GAP


def test_stacked_rows_equal_one_row_splits():
    # each row against the one-row call and the one-list kernel it replaced
    for values, gap in _census_families():
        splits = value_class_rows(values, gap)
        assert len(splits) == len(values) and all(splits)
        for row, split in zip(values, splits):
            _assert_same_split(split, value_classes(row, gap))
            _assert_same_split(split, value_classes_one_list(row, gap))
    # planted rows: a near tie and a NaN read None where the one-row call raises
    gap = 1e-6
    rows = np.array([[0.25, 0.25, 3.0, 3.0], [0.25, 0.25 + 0.6 * gap, 3.0, 3.0], [0.25, np.nan, 3.0, 3.0]])
    splits = value_class_rows(rows, gap)
    assert splits[0] is not None and splits[1:] == [None, None]
    for row, split in zip(rows, splits):
        _assert_same_split(split, _one_row_split(value_classes, row, gap))
        _assert_same_split(split, _one_row_split(value_classes_one_list, row, gap))
    with pytest.raises(ValueError, match="spread 0, separation 6e-07"):
        value_class_rows(rows[:2], gap, strict=True)
    with pytest.raises(ValueError, match="not finite"):
        value_class_rows(rows[::2], gap, strict=True)


class _Pair(NamedTuple):
    left: np.ndarray
    right: np.ndarray


class _Fields(_Record):
    def __init__(self, a, b):
        self.a, self.b = a, b


def test_cached_table_freezes_every_array_of_its_result_once():
    calls = []

    def builder(kind):
        calls.append(kind)
        if kind == "fails":
            raise ValueError("no table")
        a, b = np.arange(3), np.ones((2, 2))
        results = {"array": a, "tuple": (a, (b, 7)), "named": _Pair(a, b), "record": (_Fields(a, "x"), _Fields(b, a))}
        return results[kind]

    table = cached_table(builder)
    nested = {
        "array": lambda t: [t],
        "tuple": lambda t: [t[0], t[1][0]],
        "named": lambda t: [t.left, t.right],
        "record": lambda t: [t[0].a, t[1].a, t[1].b],
    }
    built = {kind: table(kind) for kind in nested}
    for kind, arrays in nested.items():
        for a in arrays(built[kind]):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[-1]
        assert table(kind) is built[kind] and calls.count(kind) == 1
    table.cache_clear()
    assert table("array") is not built["array"] and calls.count("array") == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="no table"):
            table("fails")
    assert calls.count("fails") == 2 and table.cache_info().currsize == 1
    fresh = table.__wrapped__("array")  # past the cache, still frozen
    assert fresh is not table("array") and not fresh.flags.writeable and calls.count("array") == 3


def test_lru_cache_appears_only_inside_cached_table():
    for path in sorted((ROOT / "src" / "sic4").glob("*.py")):
        source = path.read_text()
        lines = {i for i, line in enumerate(source.splitlines(), 1) if "lru_cache" in line}
        if path.name == "numerics.py":
            (node,) = [n for n in ast.parse(source).body if getattr(n, "name", None) == "cached_table"]
            assert lines and lines <= set(range(node.lineno, node.end_lineno + 1))
        else:
            assert not lines, path.name
