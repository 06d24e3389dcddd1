import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sic4.cli import main
from sic4.numerics import MATCH_TOL, canonical_phase, commutator_phase, projective_set_equal
from sic4.clifford import enumerate_projective_clifford
from sic4.orbits import enumerate_orbit, orbit_action, sic_symmetries, state_permutations
from sic4.reconstruction import (
    COMMUTATOR_TOL,
    CUBE_TRACE_TOL,
    RESIDUAL_TOL,
    QUAD_BLOCK,
    SIGNATURE_TOL,
    _first_match,
    _matches_reference,
    _quad_index,
    phase_operator,
    reconstruct_hw,
    reference_quads,
    reference_signature,
    signature_values,
    signatures,
    uniqueness_check,
)
from sic4.regrouping import dprime_elements, regrouped_family, sic_family
from sic4.weyl_heisenberg import displacement, fiducial_ket_d4, verify_sic

from oracles import (
    eig_hermitian,
    phase_operator_by_projectors,
    reference_quads_by_full_eigvalsh,
    sic_states,
    state_action,
    uniqueness_check_per_sic,
)

G = (math.sqrt(5) - 1) / 2

# census of eigenvalue signatures over all 1820 4-subsets of one SIC,
# (sorted signature rounded to 6 decimals) -> multiplicity
SIGNATURE_CENSUS = {
    (0.005314, 0.60949, 1.306127, 2.079069): 96,
    (0.024739, 0.664797, 1.166433, 2.14403): 96,
    (0.028649, 0.474107, 1.576802, 1.920442): 96,
    (0.03707, 0.683961, 1.1127, 2.166269): 48,
    (0.04131, 0.643785, 1.162711, 2.152193): 96,
    (0.043726, 0.465641, 1.534359, 1.956274): 24,
    (0.054952, 0.552786, 1.285224, 2.107038): 96,
    (0.065485, 0.414221, 1.642044, 1.87825): 32,
    (0.074417, 0.57644, 1.198232, 2.150911): 96,
    (0.079558, 0.406042, 1.593958, 1.920442): 48,
    (0.079558, 0.596129, 1.155811, 2.168502): 96,
    (0.084943, 0.51537, 1.282566, 2.117122): 96,
    (0.088784, 0.39644, 1.586907, 1.927869): 96,
    (0.11813, 0.346933, 1.67314, 1.861796): 96,
    (0.124741, 0.474587, 1.266214, 2.134457): 48,
    (0.138992, 0.599633, 1.037882, 2.223493): 96,
    (0.161907, 0.642718, 0.943665, 2.251709): 24,
    (0.1648, 0.519983, 1.106643, 2.208574): 96,
    (0.168076, 0.517653, 1.104147, 2.210123): 96,
    (0.188655, 0.552786, 1.017015, 2.241543): 96,
    (0.209642, 0.53236, 1.010386, 2.247613): 96,
    (0.225403, 0.225403, 1.774597, 1.774597): 24,
    (0.274416, 0.582615, 0.848253, 2.294716): 96,
    (0.324084, 0.540237, 0.830659, 2.305021): 32,
    (0.552786, 0.552786, 0.552786, 2.341641): 4,
}


def test_signature_closed_forms():
    l0, l1, l2, l3 = signature_values()
    assert abs(l0 - (2 + math.sqrt(2)) * G / math.sqrt(5)) < 1e-15
    assert abs(l1 - (2 / (math.sqrt(5) * G) + math.sqrt(2 / (5 * G)))) < 1e-15
    assert abs(l2 - (2 - math.sqrt(2)) * G / math.sqrt(5)) < 1e-15
    assert abs(l3 - (2 / (math.sqrt(5) * G) - math.sqrt(2 / (5 * G)))) < 1e-15
    assert abs(l0 + l1 + l2 + l3 - 4.0) < 1e-12
    # frozen decimals
    assert np.allclose(sorted((l0, l1, l2, l3)), [0.161907, 0.642718, 0.943665, 2.251709], atol=5e-7)


def test_clock_orbit_sum_realizes_signature():
    v = fiducial_ket_d4()
    rho = np.outer(v, v.conj())
    z = displacement(0, 1, 4)
    m = sum(
        np.linalg.matrix_power(z, j) @ rho @ np.linalg.matrix_power(z, j).conj().T
        for j in range(4)
    )
    w = np.linalg.eigvalsh(m)
    assert np.max(np.abs(w - np.array(sorted(signature_values())))) < 1e-10


def _signature_census(states, decimals=8):
    """{signature rounded to decimals: its 4-subsets} over the 1820
    4-subsets of 16 states, in itertools.combinations order."""
    quads = np.array(list(itertools.combinations(range(16), 4)))
    census = {}
    for quad, sig in zip(map(tuple, quads.tolist()), signatures(states, quads).tolist()):
        census.setdefault(tuple(round(x, decimals) for x in sig), []).append(quad)
    return census


def test_signature_census_frozen():
    states = sic_states(1)
    rounded = {}
    for key, quads in _signature_census(states).items():
        k6 = tuple(round(x, 6) for x in key)
        rounded[k6] = rounded.get(k6, 0) + len(quads)
    assert rounded == SIGNATURE_CENSUS
    assert sum(rounded.values()) == 1820
    assert len(reference_quads(states)) == 24
    ref6 = tuple(round(x, 6) for x in reference_signature())
    assert SIGNATURE_CENSUS[ref6] == 24


def test_reconstruct_original():
    disp = np.stack([displacement(p1, p2, 4) for p1 in range(4) for p2 in range(4)])
    for label in (1, 7, 16):
        rec = reconstruct_hw(sic_states(label))
        assert projective_set_equal(rec.elements, disp)
        # generators commute with the right primitive phase
        c = np.trace(rec.z_gen @ rec.x_gen @ rec.z_gen.conj().T @ rec.x_gen.conj().T) / 4
        assert abs(c - 1j) < 1e-9


def test_reconstruct_regrouped():
    orbit = enumerate_orbit()
    sics = orbit.projectors[sic_family()[0][16:]]
    dp = dprime_elements()
    disp = np.stack([displacement(p1, p2, 4) for p1 in range(4) for p2 in range(4)])
    for s in (sics[0], sics[9]):
        rec = reconstruct_hw(s)
        assert projective_set_equal(rec.elements, dp)
        assert not projective_set_equal(rec.elements, disp)


def test_reconstruct_covariance():
    sic = sic_states(3)
    rec = reconstruct_hw(sic)
    flat = sic.reshape(16, 16)
    for gen in (rec.z_gen, rec.x_gen):
        img = np.einsum("ab,kbc,dc->kad", gen, sic, gen.conj())
        ov = np.abs(flat.conj() @ img.reshape(16, 16).T)
        assert np.all(np.max(ov, axis=0) >= 1 - 1e-9)


def test_reconstruct_rejects_non_sic():
    states = np.stack([np.eye(4, dtype=complex) / 4] * 16)
    with pytest.raises(ValueError):
        reconstruct_hw(states)


def test_uniqueness_certificate():
    matching = regrouped_family()
    assert uniqueness_check(np.arange(16))
    assert uniqueness_check(matching[0].ravel())


def test_screened_symmetry_permutations_match_full_action():
    # reference: every unitary element acts on all 16 states, no screening
    group = enumerate_projective_clifford(4, extended=False)
    mats, anti = group.mats, group.anti
    orbit = enumerate_orbit()
    for idx in sic_family()[0]:
        states = orbit.projectors[idx]
        index, ov = state_action(mats[~anti], anti[~anti], states, states)
        matched = np.all(ov >= 1.0 - MATCH_TOL, axis=1)
        bijective = np.all(np.sort(index, axis=1) == np.arange(16), axis=1)
        full = {tuple(p) for p in index[matched & bijective].tolist()}
        assert len(full) == 48
        elements = sic_symmetries(idx[None], extended=False)[:, 1]
        assert np.array_equal(elements, np.flatnonzero(~anti)[matched & bijective])
        position = np.full(256, -1)
        position[idx] = np.arange(16)
        perms = position[orbit_action()[elements][:, idx]]
        assert len(perms) == 48 and {tuple(p) for p in perms.tolist()} == full


def _load_perfbench_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loop_signature(states):
    return tuple(float(x) for x in np.linalg.eigvalsh(states.sum(axis=0)))


def _loop_matches(sig):
    return all(abs(a - b) <= 1e-8 for a, b in zip(sig, reference_signature()))


def _quad_signature_scan_by_loop(sic, decimals=8):
    """The one-eigvalsh-per-subset scan that signatures and reference_quads
    replaced."""
    sigs, matching = {}, []
    for quad in itertools.combinations(range(16), 4):
        sig = _loop_signature(sic[list(quad)])
        sigs.setdefault(tuple(round(x, decimals) for x in sig), []).append(quad)
        if _loop_matches(sig):
            matching.append(quad)
    return sigs, matching


def _first_by_loop(states, candidates):
    return next(c for c in candidates if _loop_matches(_loop_signature(states[list(c)])))


def _generators_by_loop(states):
    """reconstruct_hw's generator search as it was, one candidate at a time."""
    quad = _first_by_loop(states, itertools.combinations(range(16), 4))
    zp = phase_operator(states[list(quad)].sum(axis=0))
    perm, orbits, seen = state_permutations(zp[None], states)[0], [], set()
    for start in range(16):
        if start not in seen:
            orbit, j = [start], perm[start]
            while j != start:
                orbit.append(j)
                j = perm[j]
            seen.update(orbit)
            orbits.append(sorted(orbit))
    pick = _first_by_loop(states, itertools.product(*sorted(orbits)))
    xp = phase_operator(states[list(pick)].sum(axis=0))
    if abs(commutator_phase(zp, xp) - 1j) > 1e-8:
        xp = xp.conj().T
    return zp, xp


def test_quad_signature_scan_matches_loop():
    orbit = enumerate_orbit()
    shuffled = sic_states(6)[np.random.default_rng(3).permutation(16)]
    for sic in (sic_states(1), orbit.projectors[sic_family()[0][16]], shuffled):
        old_sigs, old_matching = _quad_signature_scan_by_loop(sic)
        assert list(_signature_census(sic).items()) == list(old_sigs.items())
        matching = reference_quads(sic).tolist()
        assert list(map(tuple, matching)) == old_matching and len(matching) == 24


def test_reconstruct_generators_match_loop_on_perfbench_inputs():
    inputs = _load_perfbench_inputs()
    cases = set()
    for case, kets in inputs.make_batch(12):
        if case == "not-sic":
            continue
        cases.add(case)
        states = np.einsum("ki,kj->kij", kets, kets.conj())
        rec = reconstruct_hw(states)
        zp, xp = _generators_by_loop(states)
        assert np.array_equal(rec.z_gen, zp) and np.array_equal(rec.x_gen, xp)
    assert cases == {"displacement", "conjugate-displacement", "other"}

    # the z search's first qualifying 4-subset in the first and in the second
    # candidate block, for orbit SIC 5 and a Haar-conjugated copy of
    # regrouped SIC 21, each order alone and all four in one stack
    u = inputs.haar_unitary(np.random.default_rng(12))
    sics = [sic_states(5), u @ enumerate_orbit().projectors[sic_family()[0][20]] @ u.conj().T]
    stack = np.stack([_states_in_block(sic, block, seed) for seed, sic in enumerate(sics) for block in (0, 1)])
    assert [_first_hit(s, _quad_index()) // QUAD_BLOCK for s in stack] == [0, 1, 0, 1]
    rec = reconstruct_hw(stack)
    for k, states in enumerate(stack):
        zp, xp = _generators_by_loop(states)
        assert np.array_equal(rec.z_gen[k], zp) and np.array_equal(rec.x_gen[k], xp)
        one = reconstruct_hw(states)
        assert np.array_equal(one.z_gen, zp) and np.array_equal(one.x_gen, xp)


def _first_hit(states, candidates) -> int:
    """Position of the first row of a (Q, 4) candidate array whose state sum
    realizes the reference signature."""
    return int(np.flatnonzero(_matches_reference(signatures(states, candidates)))[0])


def _in_block(block: int, draw, first_hit):
    """The first of up to 500 draws whose first match lies in candidate
    block ``block``."""
    for _ in range(500):
        drawn = draw()
        if first_hit(drawn) // QUAD_BLOCK == block:
            return drawn
    raise AssertionError("no draw puts the first match in block %d" % block)


def _states_in_block(sic, block: int, seed: int):
    """A SIC's states in the first seeded random order whose first qualifying
    4-subset, in itertools.combinations order, lies in candidate block
    ``block`` of the z search."""
    rng = np.random.default_rng(seed)
    return _in_block(block, lambda: sic[rng.permutation(16)], lambda s: _first_hit(s, _quad_index()))


def test_first_match_crosses_two_block_boundaries_as_the_loop():
    # no state order takes the z search past position 90: every pair of a
    # SIC's states lies in a qualifying 4-subset, so one holds states 0 and
    # 1, and (0, 1, 14, 15) is the 91st subset.  The third block is reached
    # here by each SIC's own seeded order of the 1820 candidates, one stack
    # of three SICs resolving in blocks 0, 1 and 2
    index = _quad_index()
    sics = _family_and_copies()[[0, 20, 40]]
    for states in sics:
        pairs = np.zeros((16, 16), dtype=int)
        for quad in reference_quads(states):
            pairs[np.ix_(quad, quad)] += 1
        assert pairs.min() >= 1
        assert _first_hit(states, index) <= 90 == math.comb(14, 2) - 1
    rng = np.random.default_rng(28)
    candidates = [
        _in_block(block, lambda: index[rng.permutation(len(index))], lambda order: _first_hit(states, order))
        for block, states in enumerate(sics)
    ]
    sums = _first_match(sics, np.stack(candidates))
    for states, order, m in zip(sics, candidates, sums):
        quad = _first_by_loop(states, order)
        assert np.array_equal(m, states[list(quad)].sum(axis=0))
    assert [_first_hit(s, o) // QUAD_BLOCK for s, o in zip(sics, candidates)] == [0, 1, 2]


def test_input_verdicts_match_the_case_each_perfbench_file_was_built_as(tmp_path, capsys):
    # the rule of perfbench's input_verdict_ok: a SIC file exits 0 with its
    # group named in the claim row and the payload, a not-SIC file exits 1
    # with input_is_sic false and its deviations reported
    out = tmp_path / "report.json"
    batch = _load_perfbench_inputs().write_batch(5, tmp_path / "batch")
    for path, case in batch:
        rc = main(["reconstruct", "--input", str(path), "--format", "json", "--out", str(out)])
        report = json.loads(out.read_text())
        rows = {r["claim_id"]: r for r in report["claims"]}
        is_sic = rows["reconstruct.input_is_sic"]["observed"]
        if case == "not-sic":
            assert (rc, is_sic) == (1, False), path.name
            assert set(report["payload"]["sic_deviations"]) == {"fidelity", "state", "completeness"}
        else:
            group = rows["reconstruct.input_group"]
            assert (rc, is_sic, group["observed"], group["pass"]) == (0, True, case, True), path.name
            assert report["payload"]["group"] == case, path.name
    capsys.readouterr()
    assert len(batch) == 128 and {case for _, case in batch} == {
        "displacement",
        "conjugate-displacement",
        "other",
        "not-sic",
    }


def test_a_certified_sic_whose_group_does_not_rebuild_fails_one_named_row(monkeypatch, tmp_path, capsys):
    # at --tol 0.3 each not-SIC file of the seed-7 batch passes verify_sic,
    # then reconstruct_hw finds no covariance group: the certificate row
    # stays, input_group fails with observed null and the payload names why
    out = tmp_path / "report.json"
    batch = [path for path, case in _load_perfbench_inputs().write_batch(7, tmp_path / "batch") if case == "not-sic"]
    assert len(batch) == 32
    for path in batch:
        rc = main(["reconstruct", "--input", str(path), "--tol", "0.3", "--format", "json", "--out", str(out)])
        report = json.loads(out.read_text())
        rows = [(r["claim_id"], r["observed"], r["pass"]) for r in report["claims"]]
        assert rc == 1 and rows == [("reconstruct.input_is_sic", True, True), ("reconstruct.input_group", None, False)]
        assert report["payload"] == {"group": None, "reason": "ValueError: conjugation does not permute the state set"}
    assert capsys.readouterr().err == ""

    def broken(states):
        raise AssertionError("planted")

    # a failed internal check is not a verdict on the input: it stays an error row
    monkeypatch.setattr("sic4.reconstruction.reconstruct_hw", broken)
    assert main(["reconstruct", "--input", str(batch[0]), "--tol", "0.3", "--format", "json", "--out", str(out)]) == 1
    rows = [(r["claim_id"], r["observed"]) for r in json.loads(out.read_text())["claims"]]
    assert rows == [("reconstruct.input_is_sic", True), ("reconstruct.error", "AssertionError: planted")]


def _sic_1_with_an_anti_hermitian_part(scale, seed):
    """SIC 1's states plus a seeded traceless anti-Hermitian part that sums
    to zero over the states, its largest entry scale: verify_sic reads twice
    that as the states' distance from Hermitian."""
    x = np.random.default_rng(seed).normal(size=(16, 4, 4, 2)).view(complex)[..., 0]
    skew = x - x.conj().swapaxes(1, 2)
    skew -= np.trace(skew, axis1=1, axis2=2)[:, None, None] * np.eye(4) / 4
    skew -= skew.mean(axis=0)
    return sic_states(1) + skew * (scale / np.abs(skew).max())


@pytest.mark.parametrize("scale", [2e-9, 4.9e-9])
def test_a_sic_certified_with_an_anti_hermitian_part_reconstructs(scale, tmp_path, capsys):
    # certified within --tol 1e-8, the states' Hermiticity is settled: the
    # reconstruction reads each sum's Hermitian part, so the screen takes
    # the 4-subsets of the Hermitian SIC and the phase operators rebuild it
    from sic4.numerics import matrix_to_json

    quads = reference_quads(sic_states(1))
    for seed in range(8):
        assert np.array_equal(reference_quads(_sic_1_with_an_anti_hermitian_part(scale, seed)), quads)
    states = _sic_1_with_an_anti_hermitian_part(scale, 1)
    assert verify_sic(states, 4, 1e-8).is_sic
    f, out = tmp_path / "sic.json", tmp_path / "report.json"
    f.write_text(json.dumps({"states": matrix_to_json(states)}))
    assert main(["reconstruct", "--input", str(f), "--tol", "1e-8", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [(r["claim_id"], r["observed"]) for r in json.loads(out.read_text())["claims"]]
    assert rows == [("reconstruct.input_is_sic", True), ("reconstruct.input_group", "displacement")]


def test_signatures_read_the_hermitian_part_of_each_sum():
    # with a 4.9e-9 anti-Hermitian part, the lower triangles of some sums
    # of seeds 2, 3 and 5 miss the signature; their Hermitian parts do not
    for seed in (2, 3, 5):
        states = _sic_1_with_an_anti_hermitian_part(4.9e-9, seed)
        assert len(reference_quads(states)) == len(reference_quads_by_full_eigvalsh(states)) == 24


def test_reported_elements_of_the_perfbench_sics_are_well_conditioned():
    # the SIC files of perfbench seeds 7-9: every pivot of canonical_phase
    # has modulus 0.25 or more, so a 1e-15 change of the elements moves
    # their reported form by 3.0e-15.  Pivoting on the first entry above
    # 1e-6 instead took one of modulus 4.0e-5 and moved it by 1.2e-11
    inputs = _load_perfbench_inputs()
    kets = np.array([k for seed in (7, 8, 9) for case, k in inputs.make_batch(seed) if case != "not-sic"])
    elements = reconstruct_hw(kets[..., :, None] * kets[..., None, :].conj()).elements.reshape(-1, 4, 4)
    assert len(elements) == 288 * 16
    size = np.abs(elements.reshape(-1, 16))
    pivot = (size >= size.max(axis=1, keepdims=True) / 2).argmax(axis=1)
    assert size[np.arange(len(size)), pivot].min() >= 0.25
    rng = np.random.default_rng(31)
    delta = 1e-15 * (rng.uniform(-1, 1, elements.shape) + 1j * rng.uniform(-1, 1, elements.shape))
    assert np.max(np.abs(canonical_phase(elements + delta) - elements)) <= 1e-13


def _family_and_copies(seed=13):
    """The states of the 32 SICs, then of each conjugated by a seeded Haar
    unitary with its states shuffled, as a (64, 16, 4, 4) stack."""
    family = enumerate_orbit().projectors[sic_family()[0]]
    rng, haar = np.random.default_rng(seed), _load_perfbench_inputs().haar_unitary
    copies = []
    for sic in family:
        u = haar(rng)
        copies.append(u @ sic[rng.permutation(16)] @ u.conj().T)
    return np.concatenate([family, copies])


def test_stacked_reconstruction_equals_stacks_of_one():
    sics = _family_and_copies()
    rec = reconstruct_hw(sics)
    assert rec.z_gen.shape == (64, 4, 4) and rec.elements.shape == (64, 16, 4, 4)
    for k, sic in enumerate(sics):
        one = reconstruct_hw(sic[None])
        assert np.array_equal(rec.z_gen[k], one.z_gen[0]) and np.array_equal(rec.x_gen[k], one.x_gen[0])
        assert np.max(np.abs(rec.elements[k] - one.elements[0])) <= 1e-15
        single = reconstruct_hw(sic)
        assert single.z_gen.shape == (4, 4) and np.array_equal(single.elements, one.elements[0])


def test_stacked_certificate_equals_the_per_sic_loop():
    sics = _family_and_copies()
    rep = verify_sic(sics, 4)
    assert rep.is_sic.shape == (64,) and rep.is_sic.all()
    for k, states in enumerate(sics):
        one = verify_sic(states, 4)
        assert isinstance(one.is_sic, bool) and isinstance(one.max_fidelity_deviation, float)
        assert rep.is_sic[k] == one.is_sic
        assert rep.max_fidelity_deviation[k] == one.max_fidelity_deviation
        assert rep.max_state_deviation[k] == one.max_state_deviation
        assert rep.completeness_deviation[k] == one.completeness_deviation


def test_stacked_certificate_reports_the_failing_sic():
    sics = _family_and_copies()[:32]
    sics[20, 5] = np.diag([1, 0, 0, 0])
    rep = verify_sic(sics, 4)
    one = verify_sic(sics[20], 4)
    assert not one.is_sic and np.flatnonzero(~rep.is_sic).tolist() == [20]
    fields = ("is_sic", "max_fidelity_deviation", "max_state_deviation", "completeness_deviation")
    assert [getattr(rep, f)[20] for f in fields] == [getattr(one, f) for f in fields]


def test_phase_operator_cuts_have_measured_margins():
    # every qualifying 4-state sum of the 32 SICs and of their conjugated,
    # shuffled copies: the z and x sums of reconstruct_hw are among them
    sics = _family_and_copies()
    m = np.concatenate([s[reference_quads(s)].sum(axis=1) for s in sics])
    assert len(m) == 64 * 24
    w, v = eig_hermitian(m)
    assert np.max(np.abs(m @ v - v * w[..., None, :])) <= 1e-14 < RESIDUAL_TOL
    # one product of eigh's eigenkets against the summed projectors of the
    # phase-fixed ones: the same operators, up to rounding
    assert np.max(np.abs(phase_operator(m) - phase_operator_by_projectors(m))) <= 1e-14
    rec = reconstruct_hw(sics)
    assert np.max(np.abs(commutator_phase(rec.z_gen, rec.x_gen) - 1j)) <= 1e-14 < COMMUTATOR_TOL
    adjoint = commutator_phase(rec.z_gen, rec.x_gen.conj().swapaxes(-1, -2))
    assert np.min(np.abs(adjoint - 1j)) >= 2 - 1e-14


def test_canonical_pivots_of_the_family_reconstructions():
    # canonical_phase pivots on the first entry of at least half the largest
    # modulus.  On the 32 family reconstructions' group elements that is the
    # first entry above 1e-6, the rule it replaced, and every pivot has
    # modulus 0.707 or more, above the floor 1 / (2 sqrt 4) of any unitary
    elements = reconstruct_hw(enumerate_orbit().projectors[sic_family()[0]]).elements.reshape(-1, 16)
    size = np.abs(elements)
    pivot = (size >= size.max(axis=1, keepdims=True) / 2).argmax(axis=1)
    assert np.array_equal(pivot, (size > 1e-6).argmax(axis=1))
    entries = elements[np.arange(len(elements)), pivot]
    assert np.abs(entries).min() >= 0.707 > 0.25
    assert np.max(np.abs(entries.imag)) <= 1e-15 and entries.real.min() > 0


def test_stacked_uniqueness_equals_the_per_sic_loop():
    members = sic_family()[0]
    verdicts = uniqueness_check(members)
    assert verdicts.shape == (32,) and verdicts.all()
    assert verdicts.tolist() == [uniqueness_check_per_sic(row) for row in members]
    assert [uniqueness_check(row) for row in members] == verdicts.tolist()


def test_uniqueness_fails_only_the_row_with_a_foreign_state():
    # SIC 21 with one member swapped for a state of SIC 1: its symmetry
    # group shrinks below order 48, which the per-SIC form refused outright
    members = sic_family()[0].copy()
    members[20, 7] = 0
    verdicts = uniqueness_check(members)
    assert np.flatnonzero(~verdicts).tolist() == [20]
    with pytest.raises(ValueError, match="expected 48"):
        uniqueness_check_per_sic(members[20])
    assert not uniqueness_check(members[20])


def test_screened_reference_quads_equal_the_full_eigvalsh_scan():
    sics = _family_and_copies()
    for states in sics:
        assert np.array_equal(reference_quads(states), reference_quads_by_full_eigvalsh(states))


def test_cube_trace_screen_has_a_margin():
    # tr(m^3) of every 4-subset sum of the 32 SICs and their conjugated,
    # shuffled copies, against the reference signature's sum of cubes
    index = _quad_index()
    ref = np.sum(np.array(reference_signature()) ** 3)
    qualifying, other = [], []
    for states in _family_and_copies():
        m = sum(states[index[:, k]] for k in range(4))
        dev = np.abs(np.einsum("nab,nbc,nca->n", m, m, m).real - ref)
        hit = _matches_reference(np.linalg.eigvalsh(m))
        qualifying.append(dev[hit])
        other.append(dev[~hit])
    bound = 12 * max(reference_signature()) ** 2 * SIGNATURE_TOL  # no qualifying sum is screened out
    assert np.max(qualifying) <= 1e-13 < bound < CUBE_TRACE_TOL < 0.019 <= np.min(other)
