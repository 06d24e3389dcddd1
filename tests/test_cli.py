import contextlib
import copy
import importlib.util
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sic4
import sic4.cli
from oracles import argparse_parser, concurrence_census, sic_states
from sic4.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_orbit_passes(capsys):
    assert main(["orbit"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] orbit.sic_count" in out
    assert "FAIL" not in out


def test_unreachable_tolerance_fails(capsys):
    assert main(["triples", "--tol", "1e-30"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_triples_pass_at_tight_tolerance(capsys):
    # the census reports the mean of each cluster's traces, so the modulus
    # deviation is rounding error, not the 9-decimal key rounding
    assert main(["triples", "--tol", "1e-10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["no-such-subcommand"])
    assert e.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
def test_invalid_tolerance_exits_2(tol, capsys):
    with pytest.raises(SystemExit) as e:
        main(["triples", "--tol", tol])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--tol" in err and "finite positive" in err


def test_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["twoqubit", "--format", "json", "--out", str(out_file)]) == 0
    capsys.readouterr()
    rep = json.loads(out_file.read_text())
    assert rep["subcommand"] == "twoqubit"
    assert rep["failed"] == 0
    assert rep["passed"] == len(rep["claims"])
    for claim in rep["claims"]:
        assert set(claim) == {"claim_id", "anchor", "expected", "observed", "pass"}
        module, name = claim["claim_id"].split(".", 1)
        assert module == "twoqubit" and name
    assert "payload" in rep


def test_tsv_report(capsys):
    assert main(["twoqubit", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "claim_id\tanchor\texpected\tobserved\tpass"
    assert any(line.startswith("sic\tstate\t") for line in lines)  # sign table attached


def test_bell_basis_flag(capsys):
    assert main(["twoqubit", "--basis", "bell"]) == 0
    out = capsys.readouterr().out
    assert "twoqubit.bell_pattern_matches" in out
    assert "product_cube" not in out  # cube claims are product-basis only


def test_reconstruct_input_round_trip(tmp_path, capsys):
    from sic4.numerics import matrix_to_json

    sic = sic_states(2)
    f = tmp_path / "sic.json"
    f.write_text(json.dumps({"states": [matrix_to_json(s) for s in sic]}))
    assert main(["reconstruct", "--input", str(f), "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["payload"]["group"] == "displacement"
    assert len(rep["payload"]["elements"]) == 16


def _sic_file(tmp_path, states):
    from sic4.numerics import matrix_to_json

    f = tmp_path / "sic.json"
    f.write_text(json.dumps({"states": [matrix_to_json(s) for s in states]}))
    return f


def _assert_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sic4: error: --input ")


@pytest.mark.parametrize("target", ["absent/r.txt", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2(target, tmp_path, capsys):
    # a missing directory and a directory itself: one error line, no traceback
    out = tmp_path / target
    assert main(["triples", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sic4: error: --out %s: " % out)
    assert "Traceback" not in captured.err + captured.out


def test_reconstruct_input_missing_file_exits_2(tmp_path, capsys):
    _assert_input_error(["reconstruct", "--input", str(tmp_path / "absent.json")], capsys)


def test_reconstruct_input_not_json_exits_2(tmp_path, capsys):
    f = tmp_path / "sic.json"
    f.write_text("states: none\n")
    _assert_input_error(["reconstruct", "--input", str(f)], capsys)


def test_reconstruct_input_without_states_exits_2(tmp_path, capsys):
    f = tmp_path / "sic.json"
    f.write_text(json.dumps({"projectors": []}))
    _assert_input_error(["reconstruct", "--input", str(f)], capsys)


def test_reconstruct_input_nested_too_deep_to_decode_exits_2(tmp_path, capsys):
    # the json decoder gives up on such a file with a RecursionError
    f = tmp_path / "sic.json"
    f.write_text('{"states": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "report.json"
    assert main(["reconstruct", "--input", str(f), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("sic4: error: --input %s: not a SIC file (RecursionError: " % f)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("shape", ["fifteen", "dim2", "ragged", "mixed"])
def test_reconstruct_input_wrong_states_exits_2(shape, tmp_path, capsys):
    states = list(sic_states(1))
    if shape == "fifteen":
        states = states[:15]
    elif shape == "dim2":
        states = [np.eye(2) / 2] * 16
    elif shape == "mixed":  # eight states of dimension 2, eight of dimension 4
        states[:8] = [np.eye(2) / 2] * 8
    else:
        states[3] = np.eye(2) / 2
    _assert_input_error(["reconstruct", "--input", str(_sic_file(tmp_path, states))], capsys)


@pytest.mark.parametrize(
    "entry",
    ["1", None, [1.0], [1, 2, 3], "NaN", "Infinity", "-Infinity"],
    ids=["string", "null", "short", "long", "nan", "inf", "-inf"],
)
def test_reconstruct_input_non_number_entry_exits_2(entry, tmp_path, capsys):
    f = _sic_file(tmp_path, sic_states(1))
    doc = json.loads(f.read_text())
    doc["states"][5]["entries"][7] = entry if isinstance(entry, list) else [entry, 0.0]
    text = json.dumps(doc)
    if entry in ("NaN", "Infinity", "-Infinity"):  # raw JSON tokens, not strings
        text = text.replace('"%s"' % entry, entry)
    f.write_text(text)
    _assert_input_error(["reconstruct", "--input", str(f)], capsys)


@pytest.mark.parametrize("dim", [4.5, "4", 4.0], ids=repr)
def test_reconstruct_input_non_integer_dim_exits_2(dim, tmp_path, capsys):
    # a dim is a JSON integer; int() would read each of these as 4
    f = _sic_file(tmp_path, sic_states(1))
    doc = json.loads(f.read_text())
    doc["states"][5]["dim"] = dim
    f.write_text(json.dumps(doc))
    _assert_input_error(["reconstruct", "--input", str(f)], capsys)


def test_reconstruct_input_non_sic_exits_1(tmp_path, capsys):
    # a pure state off the SIC breaks the fidelities and the sum, a mixed
    # one also the projector condition; the payload names which and by how much
    states = sic_states(1).copy()
    states[0] = np.diag([1, 0, 0, 0])
    assert main(["reconstruct", "--input", str(_sic_file(tmp_path, states))]) == 1
    assert "[FAIL] reconstruct.input_is_sic" in capsys.readouterr().out
    for state, state_fails in ((np.diag([1, 0, 0, 0]), False), (np.eye(4) / 4, True)):
        states[0] = state
        argv = ["reconstruct", "--input", str(_sic_file(tmp_path, states)), "--tol", "1e-6"]
        rc, report = _json_run(argv, tmp_path, capsys)
        assert rc == 1 and [c["observed"] for c in report["claims"]] == [False]
        dev = report["payload"]["sic_deviations"]
        assert report["payload"]["tol"] == 1e-6 and set(dev) == {"fidelity", "state", "completeness"}
        assert dev["fidelity"] > 1e-6 and dev["completeness"] > 1e-6
        assert (dev["state"] > 1e-6) == state_fails


@pytest.mark.parametrize("entry", [1e160, 1e200])
def test_reconstruct_input_huge_entries_fail_quietly_in_strict_json(entry, tmp_path, capsys):
    # finite entries whose products overflow: a plain FAIL, no numpy warning,
    # and a report without the non-standard Infinity or NaN tokens
    import warnings

    def refuse(token):
        raise ValueError("non-standard JSON token %s" % token)

    f = _sic_file(tmp_path, np.full((16, 4, 4), entry))
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["reconstruct", "--input", str(f), "--format", "json", "--out", str(out)]) == 1
    assert caught == [] and capsys.readouterr().err == ""
    report = json.loads(out.read_text(), parse_constant=refuse)
    assert [c["observed"] for c in report["claims"]] == [False]
    assert set(report["payload"]["sic_deviations"]) == {"fidelity", "state", "completeness"}


@pytest.mark.parametrize("sic", ["orbit", "not-sic"])
def test_reconstruct_input_certifies_once(sic, monkeypatch, tmp_path, capsys):
    import sic4.weyl_heisenberg

    calls, verify_sic = [], sic4.weyl_heisenberg.verify_sic

    def counted(*args, **kwargs):
        calls.append(1)
        return verify_sic(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sic4.") and getattr(module, "verify_sic", None) is verify_sic:
            monkeypatch.setattr(module, "verify_sic", counted)
    states = sic_states(3).copy()
    if sic == "not-sic":
        states[0] = np.diag([1, 0, 0, 0])
    assert main(["reconstruct", "--input", str(_sic_file(tmp_path, states))]) == (0 if sic == "orbit" else 1)
    capsys.readouterr()
    assert len(calls) == 1


def _json_run(argv, tmp_path, capsys):
    """Exit code and parsed report, without runtime_ms and timings_ms, of one
    --format json call."""
    out = tmp_path / "r.json"
    rc = main(argv + ["--format", "json", "--out", str(out)])
    capsys.readouterr()
    report = json.loads(out.read_text())
    del report["runtime_ms"], report["timings_ms"]
    return rc, report


_ALL_SECTIONS = ["orbit", "symmetry", "triples", "reconstruct", "regroup", "twoqubit_product", "twoqubit_bell"]


@pytest.mark.parametrize(
    "argv, sections",
    [(["all"], _ALL_SECTIONS), (["twoqubit", "--basis", "bell"], ["twoqubit_bell"]), (["symmetry"], ["symmetry"])],
)
def test_timings_name_exactly_the_sections_that_ran(argv, sections, monkeypatch, tmp_path, capsys):
    if argv == ["symmetry"]:  # a section that raises is timed as well
        monkeypatch.setattr(sic4.cli, "run_symmetry", lambda cfg, claims: 1 / 0)
    out = tmp_path / "r.json"
    main(argv + ["--format", "json", "--out", str(out)])
    capsys.readouterr()
    timings = json.loads(out.read_text())["timings_ms"]
    assert list(timings) == sections and all(type(t) is float and t >= 0 for t in timings.values())
    main(argv)
    slowest = capsys.readouterr().out.splitlines()[-1].split("slowest section ")[1].split(",")[0]
    assert slowest in sections


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    # the option tables are shared by every call: a sequence of calls leaves
    # them as they were, and each call reads as it does on its own
    tables = copy.deepcopy(sic4.cli._OPTIONS)
    f = str(_sic_file(tmp_path, sic_states(2)))
    calls = [
        ["reconstruct", "--input", f],
        ["twoqubit", "--basis", "bell"],
        ["twoqubit"],
        ["triples", "--tol", "nan"],
        ["reconstruct", "--input", f],
    ]
    seen = []
    for argv in calls:
        try:
            seen.append(_json_run(argv, tmp_path, capsys))
        except SystemExit as exc:
            seen.append(exc.code)
    assert sic4.cli._OPTIONS == tables
    assert seen[2][1]["config"]["basis"] == "product"
    assert seen[3] == 2
    for argv, got in reversed(list(zip(calls, seen))):
        try:
            assert got == _json_run(argv, tmp_path, capsys), argv
        except SystemExit as exc:
            assert got == exc.code


def _parsed(parse, argv):
    """vars of the configuration parse reads off argv, or the exit code it
    raises, its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


# every option spelling, prefix, =value form and stray token of the command
# line, with values the options accept and reject; "--option=--" is left to
# test_an_option_written_with_a_double_dash_value
_ARGV_TOKENS = (
    "orbit", "symmetry", "triples", "reconstruct", "regroup", "twoqubit", "all", "al", "bogus", "",
    "-h", "--help", "--h", "--he", "-hh", "-hhh", "-hx", "-h=h", "-h=", "--help=x", "-help", "--", "-", "---",
    "--=x", "--tol", "--to", "--t", "--tol=1e-9", "--t=0.3", "--tol=", "--tol=nan", "--tol= 1e-3", "1e-9",
    "0.3", "nan", "inf", "0", "-1", "-.5", "-1e5", "-5\n", "--format", "--f", "--fo", "--format=json",
    "--fo=tsv", "json", "tsv", "text", "xml", "--out", "--o", "--out=r.txt", "--out=", "--out=-h", "r.txt",
    "-x", "a b", "-a b", "- h", "--basis", "--b", "--basis=bell", "product", "bell", "--full-scan", "--fu",
    "--full", "--full-scan=1", "--full-scan=", "--input", "--i", "--in=f.json", "--input=-x", "f.json",
)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse reads -h with more letters otherwise from 3.13")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6),
    st.one_of(st.none(), st.sampled_from(sic4.cli._SUBCOMMANDS)),
)
@example(["--f", "json"], "regroup")  # ambiguous, though it would take a value
@example(["-h", "--f"], "all")  # ambiguity is found before the help acts
@example(["--out", "-a b"], "orbit")  # values that start with -
@example(["--out", "-1"], "orbit")
@example(["--out", "--", "r.txt"], "triples")
@example(["--i", "f.json", "--in=g.json", "--fo", "tsv"], "reconstruct")  # the last value kept
@example(["--x", "-hh"], None)
@example(["-h=h", "bogus"], None)
def test_parser_reads_every_argv_as_argparse_did(tokens, name):
    argv = tokens if name is None else [name] + tokens
    assert _parsed(sic4.cli._parse_args, argv) == _parsed(argparse_parser().parse_args, argv)


@pytest.mark.parametrize(
    "name, option, read",
    [("all", "--out", "--"), ("reconstruct", "--input", "--"), ("all", "--tol", 2), ("all", "--format", 2)]
    + [("twoqubit", "--basis", 2)],
)
def test_an_option_written_with_a_double_dash_value(name, option, read):
    # argparse dropped the "--" of "--option=--" and stored an empty list,
    # which reached the sections unchecked (--basis=-- raised in main); the
    # value is now "--", read as any other value: a path, or exit 2 where
    # it is not a valid value
    argv = [name, option + "=--"]
    dest = "input_path" if option == "--input" else option[2:]
    assert _parsed(argparse_parser().parse_args, argv)[dest] == []
    got = _parsed(sic4.cli._parse_args, argv)
    assert (got[dest] if read == "--" else got) == read


def test_command_line_loads_neither_argparse_nor_gettext(tmp_path):
    code = "; ".join(
        [
            "import sys",
            "from sic4.cli import main",
            "rc = main(['triples', '--tol', '1e-9', '--format', 'json', '--out', sys.argv[1]])",
            "loaded = {'argparse', 'gettext'} & set(sys.modules)",
            "assert not loaded, loaded",
            "sys.exit(rc)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.json")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("section", ["input", "orbit", "all"])
def test_json_report_parses_as_its_indented_form(section, monkeypatch, tmp_path, capsys):
    reports, dumps = [], json.dumps

    def spy(obj, **kwargs):
        if isinstance(obj, dict) and "subcommand" in obj:
            reports.append(obj)
        return dumps(obj, **kwargs)

    argv = [section]
    if section == "input":
        argv = ["reconstruct", "--input", str(_sic_file(tmp_path, sic_states(2)))]
    monkeypatch.setattr(sic4.cli.json, "dumps", spy)
    out = tmp_path / "r.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    (report,) = reports
    text = out.read_text()
    assert text.count("\n") == 1
    assert json.loads(text) == json.loads(dumps(report, indent=2))


def test_cached_arrays_are_read_only(capsys):
    from sic4.clifford import enumerate_projective_clifford
    from sic4.orbits import enumerate_orbit
    from sic4.regrouping import dprime_elements, fidelity_graph
    from sic4.weyl_heisenberg import displacement_table

    orbit = enumerate_orbit()
    group = enumerate_projective_clifford(4, extended=True)
    arrays = (orbit.projectors, sic_states(2), group.f, group.chi, group.mats, group.anti)
    arrays += (displacement_table(4), group[5].op.matrix, dprime_elements(), fidelity_graph())
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[1]
    assert main(["orbit"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_sign_pattern_and_gauss_tables_are_read_only():
    from sic4.clifford import _gauss_tables
    from sic4.two_qubit import sign_pattern_table

    arrays = [a for basis in ("product", "bell") for a in sign_pattern_table(basis)] + list(_gauss_tables(4)[1:])
    assert len(arrays) == 9
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[1]


def test_symmetry_tsv_lists_the_label_permutations(capsys):
    from sic4.orbits import label_action

    assert main(["symmetry", "--format", "tsv"]) == 0
    table = capsys.readouterr().out.split("\n\n")[1].splitlines()
    assert table[0].split("\t") == ["sic%d" % n for n in range(1, 17)]
    rows = [[int(x) for x in line.split("\t")] for line in table[1:]]
    assert len(rows) == 48 and all(sorted(row) == list(range(1, 17)) for row in rows)
    assert rows == (label_action()[0] + 1).tolist()


def _clear_family_caches():
    import sic4.orbits
    import sic4.regrouping

    sic4.orbits.orbit_certificate.cache_clear()
    sic4.orbits._triple_censuses.cache_clear()
    sic4.regrouping.sic_family.cache_clear()
    sic4.regrouping.fidelity_graph.cache_clear()


def _count_certified_sics(monkeypatch) -> list:
    """Wrap verify_sic wherever a sic4 module binds it: the returned list
    gets (SICs certified, tol) per call."""
    import sic4.weyl_heisenberg

    calls, verify_sic = [], sic4.weyl_heisenberg.verify_sic

    def counted(states, d, tol=sic4.DEFAULT_TOL):
        calls.append((len(states) if np.ndim(states) == 4 else 1, tol))
        return verify_sic(states, d, tol)

    for name, module in list(sys.modules.items()):
        if name.startswith("sic4.") and getattr(module, "verify_sic", None) is verify_sic:
            monkeypatch.setattr(module, "verify_sic", counted)
    return calls


def test_reconstruct_passes_tol_to_family_and_reconstruction(monkeypatch, capsys):
    # reconstruct_hw takes certified states; the family certificate is made at --tol
    calls = _count_certified_sics(monkeypatch)
    _clear_family_caches()
    assert main(["reconstruct", "--tol", "1e-12"]) == 0
    capsys.readouterr()
    assert calls == [(16, 1e-12), (16, 1e-12)]


def test_all_certifies_each_sic_once_and_builds_the_family_once(monkeypatch, tmp_path, capsys):
    import sic4.regrouping

    builds, build = [], sic4.regrouping.regrouped_family

    def counted_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(sic4.regrouping, "regrouped_family", counted_build)
    calls = _count_certified_sics(monkeypatch)
    for argv in (["all"], ["all", "--full-scan"]):
        _clear_family_caches()
        calls.clear()
        builds.clear()
        assert main(argv + ["--format", "json", "--out", str(tmp_path / "all.json")]) == 0
        capsys.readouterr()
        # the orbit half and the regrouped half, 16 SICs each
        assert len(calls) == 2 and sum(n for n, _ in calls) == 32, argv
        assert len(builds) == 1, argv


def test_cold_all_decides_orbit_distinctness_once(monkeypatch, tmp_path, capsys):
    # orbit.distinct_fiducials is the one decision on the 256 orbit states:
    # building the orbit checks nothing, so a cold run makes one 256 x 256 Gram
    import sic4.numerics

    shapes, distinct = [], sic4.numerics.projectively_distinct

    def counted(mats):
        shapes.append(np.shape(mats))
        return distinct(mats)

    for name, module in list(sys.modules.items()):
        if name.startswith("sic4") and getattr(module, "projectively_distinct", None) is distinct:
            monkeypatch.setattr(module, "projectively_distinct", counted)
    for module in [m for name, m in sys.modules.items() if name.startswith("sic4.")]:
        for f in vars(module).values():
            if callable(getattr(f, "cache_clear", None)):
                f.cache_clear()
    assert main(["all", "--format", "json", "--out", str(tmp_path / "all.json")]) == 0
    capsys.readouterr()
    assert shapes.count((256, 4, 4)) == 1


def test_all_builds_few_operators(monkeypatch, tmp_path, capsys):
    # the 16 label operators of the orbit come from one stacked pass, a
    # conjugation cycle builds its operator once and the five orbits of the
    # stabilizer square share one: on a cold cache the operators of the
    # stabilizer generator's cycle and of its square, the stabilizer
    # generator, the four Clifford generators and the two D' generators,
    # fewer on a warm one
    import sic4.clifford
    import sic4.orbits
    import sic4.regrouping

    calls, to_operator = [], sic4.clifford.to_operator

    def counted(pair):
        calls.append(pair)
        return to_operator(pair)

    for name, module in list(sys.modules.items()):
        if name.startswith("sic4.") and getattr(module, "to_operator", None) is to_operator:
            monkeypatch.setattr(module, "to_operator", counted)
    assert main(["all", "--format", "json", "--out", str(tmp_path / "all.json")]) == 0
    capsys.readouterr()
    assert 7 <= len(calls) <= 9


def test_all_checks_uniqueness_in_one_call_and_calls_gbv_on_whole_stacks(monkeypatch, tmp_path, capsys):
    import sic4.reconstruction
    import sic4.two_qubit

    checked, uniqueness_check = [], sic4.reconstruction.uniqueness_check
    sizes, gbv = [], sic4.two_qubit.gbv

    def counted_check(indices):
        checked.append(len(indices) if np.ndim(indices) == 2 else 1)
        return uniqueness_check(indices)

    def counted_gbv(rho, *args, **kwargs):
        sizes.append(np.size(rho) // 16)
        return gbv(rho, *args, **kwargs)

    monkeypatch.setattr(sic4.reconstruction, "uniqueness_check", counted_check)
    monkeypatch.setattr(sic4.two_qubit, "gbv", counted_gbv)
    assert main(["all", "--format", "json", "--out", str(tmp_path / "all.json")]) == 0
    capsys.readouterr()
    # the 32 SICs in one stacked certificate
    assert checked == [32]
    # one Pauli expansion of the 256 fiducials per basis: the family states'
    # purities and both qubits' reduced-state censuses read its Bloch vectors
    assert sorted(sizes) == [256] * 2


def test_orbit_imports_neither_regrouping_nor_reconstruction(tmp_path):
    # the orbit half of the family certificate lives in orbits
    code = "; ".join(
        [
            "import sys, sic4.cli",
            "rc = sic4.cli.main(['orbit', '--out', sys.argv[1]])",
            "assert not {'sic4.regrouping', 'sic4.reconstruction'} & set(sys.modules), sorted(sys.modules)",
            "sys.exit(rc)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.txt")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def _corrupt_orbit_state(monkeypatch, state: int, e: float) -> None:
    """Make every sic4 module read an orbit whose state ``state`` is moved
    by the exactly unitary diag(exp(i e (1, -1, 0.5, -0.5))), with the
    orbit-dependent caches cleared."""
    from sic4.orbits import FiducialOrbit, enumerate_orbit

    projectors = enumerate_orbit().projectors.copy()
    u = np.diag(np.exp(1j * e * np.array([1.0, -1.0, 0.5, -0.5])))
    projectors[state] = u @ projectors[state] @ u.conj().T
    corrupted = FiducialOrbit(projectors)
    for name, module in list(sys.modules.items()):
        if name.startswith("sic4") and getattr(module, "enumerate_orbit", None) is enumerate_orbit:
            monkeypatch.setattr(module, "enumerate_orbit", lambda: corrupted)
    _clear_family_caches()


def test_a_corrupted_orbit_state_fails_every_section_reading_its_sic(monkeypatch, tmp_path, capsys):
    # state 133 of SIC 9 moved by 1e-6: SIC 9 and the regrouped SIC holding
    # state 133 fail their certificates, every section reading them fails
    # named claims and runs through, and the integer symmetry checks stand
    _corrupt_orbit_state(monkeypatch, 133, 1e-6)
    try:
        rc, report = _json_run(["all"], tmp_path, capsys)
    finally:
        _clear_family_caches()
    assert rc == 1
    rows = {r["claim_id"]: r for r in report["claims"]}
    assert len(report["claims"]) == 75 and not [k for k in rows if k.endswith(".error")]
    assert rows["orbit.sic_count"]["observed"] == 15
    for prefix in ("reconstruct.", "regroup.", "twoqubit.product_", "twoqubit.bell_"):
        assert [k for k, r in rows.items() if k.startswith(prefix) and not r["pass"]], prefix
    assert all(r["pass"] for r in report["claims"] if r["claim_id"].startswith("symmetry."))
    assert not rows["triples.cross_sic_invariant"]["pass"]


def test_a_census_that_cannot_split_fails_the_cross_sic_claim(monkeypatch, tmp_path, capsys):
    # state 133 of SIC 9 moved by 1e-4 spreads SIC 9's triple traces past
    # the census gap, so its census raises: the cross-SIC claim fails and
    # the rest of the section still runs
    _corrupt_orbit_state(monkeypatch, 133, 1e-4)
    try:
        rc, report = _json_run(["triples"], tmp_path, capsys)
    finally:
        _clear_family_caches()
    rows = {r["claim_id"]: r for r in report["claims"]}
    assert rc == 1 and "triples.error" not in rows
    assert rows["triples.cross_sic_invariant"]["observed"] is False
    assert [k for k, r in rows.items() if not r["pass"]] == ["triples.cross_sic_invariant"]
    assert [r["pass"] for k, r in rows.items() if k.startswith("triples.family_")] == [True] * 3


# the claims that sic4 all fails when one orbit state is moved by
# diag(exp(i e (1, -1, 0.5, -0.5))): the claims reading a SIC that holds
# the moved state fail by name, and no section ends in an .error row
_FAMILY_FAILS = {
    "orbit.sic_count",
    "reconstruct.original_family",
    "reconstruct.regrouped_family",
    "reconstruct.uniqueness",
    "regroup.additional_sics",
    "regroup.covariance",
    "regroup.double_cover",
    "regroup.equivalence_maps_family",
    "regroup.fidelity_graph_regular",
    "regroup.row_scan_total",
    "twoqubit.bell_avg_purity_dev",
    "twoqubit.product_avg_purity_dev",
    "twoqubit.product_reduced_multiplicity",
}
_SIC1_CONCURRENCE_FAILS = {
    "twoqubit.bell_split_concurrence",
    "twoqubit.product_cube_class1",
    "twoqubit.product_equal_concurrence_count",
}
_SIC1_CENSUS_FAILS = {
    "reconstruct.quad_operators_in_group",
    "reconstruct.reference_quads",
    "symmetry.rigid_permutations",
    "triples.cluster_count",
    "triples.conjugate_pairs",
    "triples.cross_sic_invariant",
    "triples.modulus_dev",
    "triples.multiplicities",
    "triples.real_clusters",
    "twoqubit.bell_pattern_matches",
    "twoqubit.product_pattern_matches",
}
_SIC9_FAILS = {"twoqubit.bell_equal_concurrence_count", "twoqubit.product_split_concurrence"}
_SIC9_PATTERN_FAILS = {"triples.cross_sic_invariant", "twoqubit.bell_pattern_matches", "twoqubit.product_pattern_matches"}
_FAULT_SWEEP = {
    (0, 1e-9): {"twoqubit.product_cube_edge_dev"},
    (0, 1e-8): _FAMILY_FAILS | _SIC1_CONCURRENCE_FAILS,
    (0, 1e-4): _FAMILY_FAILS | _SIC1_CONCURRENCE_FAILS | _SIC1_CENSUS_FAILS | {"reconstruct.signature_closed_form_dev"},
    (7, 1e-9): set(),
    (7, 1e-8): _FAMILY_FAILS | _SIC1_CONCURRENCE_FAILS,
    (7, 1e-4): _FAMILY_FAILS | _SIC1_CONCURRENCE_FAILS | _SIC1_CENSUS_FAILS,
    (133, 1e-9): {"twoqubit.bell_equal_concurrence_count", "twoqubit.bell_split_concurrence"},
    (133, 1e-8): _FAMILY_FAILS | _SIC9_FAILS | {"twoqubit.product_cube_class2"},
    (133, 1e-4): _FAMILY_FAILS | _SIC9_FAILS | _SIC9_PATTERN_FAILS,
    (200, 1e-9): {"twoqubit.bell_equal_concurrence_count", "twoqubit.bell_split_concurrence"},
    (200, 1e-8): _FAMILY_FAILS | _SIC9_FAILS | {"twoqubit.product_cube_class2"},
    (200, 1e-4): _FAMILY_FAILS | _SIC9_FAILS | _SIC9_PATTERN_FAILS,
}


@pytest.mark.parametrize("state, e", sorted(_FAULT_SWEEP))
def test_a_moved_orbit_state_fails_named_claims_in_every_section(state, e, monkeypatch, tmp_path, capsys):
    # states 0 and 7 lie in SIC 1, 133 in SIC 9 and 200 in SIC 13
    _corrupt_orbit_state(monkeypatch, state, e)
    try:
        rc, report = _json_run(["all"], tmp_path, capsys)
    finally:
        _clear_family_caches()
    failed = {r["claim_id"] for r in report["claims"] if not r["pass"]}
    assert len(report["claims"]) == 75 and failed == _FAULT_SWEEP[state, e]
    assert rc == (1 if failed else 0)


def test_a_wrong_dprime_literal_fails_named_claims(monkeypatch, tmp_path, capsys):
    # Z' written as the shift X: the literal check, the commutation, the
    # literal group's covariance of the new SICs and both identifications
    # of D' fail by name, and no section ends in an .error row
    import sic4.regrouping
    from sic4.weyl_heisenberg import displacement

    def clear():
        sic4.regrouping._covariance_references.cache_clear()

    monkeypatch.setattr(sic4.regrouping, "Z_PRIME_MATRIX", displacement(1, 0, 4))
    clear()
    try:
        rc, report = _json_run(["all"], tmp_path, capsys)
    finally:
        monkeypatch.undo()
        clear()
    failed = {r["claim_id"] for r in report["claims"] if not r["pass"]}
    assert rc == 1 and len(report["claims"]) == 75
    assert failed == {
        "reconstruct.regrouped_family",
        "regroup.generators_match_parametrization",
        "regroup.commutation_projective",
        "regroup.covariance",
        "regroup.equivalence_conjugates_group",
    }


@pytest.mark.parametrize("basis", ["product", "bell"])
def test_concurrence_payload_keys_equal_the_rounded_census(basis, tmp_path, capsys):
    # the payload renders each class center to 9 decimals, the key the
    # rounded census gave each SIC's concurrences
    rc, report = _json_run(["twoqubit", "--basis", basis], tmp_path, capsys)
    want = {str(n): {str(c): k for c, k in concurrence_census(sic_states(n), basis).items()} for n in range(1, 17)}
    assert rc == 0 and report["payload"]["concurrence"] == want


def test_all_rejects_basis(capsys):
    with pytest.raises(SystemExit) as e:
        main(["all", "--basis", "bell"])
    assert e.value.code == 2
    assert "--basis" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["all", "triples"])
def test_all_turns_a_raising_section_into_a_fail_row(subcommand, monkeypatch, tmp_path, capsys):
    def boom(cfg, claims):
        raise RuntimeError("boom")

    monkeypatch.setattr(sic4.cli, "run_triples", boom)
    out = tmp_path / "report.json"
    assert main([subcommand, "--format", "json", "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    rows = report["claims"]
    failed = [r for r in rows if not r["pass"]]
    assert [(r["claim_id"], r["observed"]) for r in failed] == [("triples.error", "RuntimeError: boom")]
    if subcommand == "all":
        assert len(rows) == 75 - 9 + 1  # the other sections still ran
        assert rows[-1]["claim_id"].startswith("twoqubit.bell_")
    else:
        assert len(rows) == 1 and report["payload"] == {}


def test_only_a_printed_payload_is_built(monkeypatch, tmp_path, capsys):
    # all prints no payload in any format, nor does a text report, so no
    # runner's payload builder is called; a json or tsv report of one
    # section calls its own once
    built = []
    for name in ("run_orbit", "run_symmetry", "run_triples", "run_reconstruct", "run_regroup", "run_twoqubit"):

        def spy(*args, run=getattr(sic4.cli, name), name=name, **kwargs):
            build = run(*args, **kwargs)
            return lambda: built.append(name) or build()

        monkeypatch.setattr(sic4.cli, name, spy)
    for argv in (["all", "--format", "json"], ["all", "--format", "tsv"], ["all"], ["regroup"]):
        assert main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert built == []
    report = _json_run(["regroup"], tmp_path, capsys)[1]
    assert built == ["run_regroup"] and len(report["payload"]["regrouped_sics"]) == 16
    assert main(["twoqubit", "--format", "tsv", "--out", str(tmp_path / "r")]) == 0
    assert built == ["run_regroup", "run_twoqubit"]
    capsys.readouterr()


def test_symmetry_matches_ignore_a_loose_tolerance(tmp_path, capsys):
    # stabilizer and symmetry matches use MATCH_TOL, not --tol: at --tol 0.3
    # the stabilizer stays of order 6 and the symmetry section runs through
    rc, report = _json_run(["orbit", "--tol", "0.3"], tmp_path, capsys)
    assert rc == 0 and (report["passed"], report["failed"]) == (11, 0)
    rc, report = _json_run(["symmetry", "--tol", "0.3"], tmp_path, capsys)
    assert not [r for r in report["claims"] if r["claim_id"].endswith(".error")]
    assert rc == 0


def test_orbit_and_symmetry_read_orbit_states_as_integers(monkeypatch, tmp_path, capsys):
    # stabilizers, symmetry groups and label permutations are lookups in
    # orbit_action, never numeric matches of orbit states
    import sic4.orbits

    def boom(*args, **kwargs):
        raise AssertionError("state_permutations called")

    monkeypatch.setattr(sic4.orbits, "state_permutations", boom)
    for section, n in (("orbit", 11), ("symmetry", 12)):
        rc, report = _json_run([section], tmp_path, capsys)
        assert rc == 0 and (report["passed"], report["failed"]) == (n, 0), section


def test_an_equivalence_unitary_off_the_orbit_fails_one_named_claim(monkeypatch, tmp_path, capsys):
    # rho + i (1 - rho) is unitary and fixes the fiducial rho, but it does
    # not permute the orbit: the family claim reads 0 and the claims after
    # it still run
    import sic4.regrouping
    from sic4.orbits import fiducial_projector

    rho = fiducial_projector()
    monkeypatch.setattr(sic4.regrouping, "EQUIVALENCE_MATRIX", rho + 1j * (np.eye(4) - rho))
    rc, report = _json_run(["regroup"], tmp_path, capsys)
    rows = {r["claim_id"]: r for r in report["claims"]}
    assert rc == 1 and len(rows) == 13 and "regroup.error" not in rows
    family = rows["regroup.equivalence_maps_family"]
    assert family["observed"] == 0 and not family["pass"]
    assert rows["regroup.census_total"]["pass"] and list(rows)[-1] == "regroup.census_normal_identified"


def test_a_non_unitary_equivalence_matrix_fails_the_claims_that_read_it(monkeypatch, tmp_path, capsys):
    # equivalence_unitary refuses the scaled matrix; the section puts the
    # zero matrix in its place, so exactly the three claims that read u fail
    # and the census claims after them still run
    import sic4.regrouping

    monkeypatch.setattr(sic4.regrouping, "EQUIVALENCE_MATRIX", 1.001 * sic4.regrouping.EQUIVALENCE_MATRIX)
    rc, report = _json_run(["regroup"], tmp_path, capsys)
    rows = {r["claim_id"]: r for r in report["claims"]}
    assert rc == 1 and len(rows) == 13 and "regroup.error" not in rows
    assert {k for k, r in rows.items() if not r["pass"]} == {
        "regroup.equivalence_conjugates_group",
        "regroup.equivalence_maps_family",
        "regroup.clifford_index_two",
    }
    assert list(rows)[-1] == "regroup.census_normal_identified"


def test_all_passes_at_a_loose_tolerance(tmp_path, capsys):
    # the fidelity-1/5 graph decides at FIDELITY_TOL, not --tol: at --tol 0.3
    # each block still has one partner, and every section runs through
    rc, report = _json_run(["all", "--tol", "0.3"], tmp_path, capsys)
    assert not [r["claim_id"] for r in report["claims"] if r["claim_id"].endswith(".error")]
    assert rc == 0 and report["passed"] == 75


def test_a_raising_single_section_exits_1_with_an_error_row(monkeypatch, tmp_path, capsys):
    # a library call that raises inside reconstruct, run alone
    import sic4.regrouping

    def boom(tol):
        raise ValueError("boom")

    monkeypatch.setattr(sic4.regrouping, "sic_family", boom)
    rc, report = _json_run(["reconstruct"], tmp_path, capsys)
    assert rc == 1
    (error,) = [r for r in report["claims"] if not r["pass"]]
    assert error["claim_id"] == "reconstruct.error" and error["observed"].startswith("ValueError: ")


def test_a_family_without_certified_sics_fails_named_claims(tmp_path, capsys):
    # at --tol 1e-30 no SIC certifies: reconstruct fails its three family
    # claims by name instead of raising, and its other claims pass
    rc, report = _json_run(["reconstruct", "--tol", "1e-30"], tmp_path, capsys)
    failed = {r["claim_id"]: r["observed"] for r in report["claims"] if not r["pass"]}
    assert rc == 1 and len(report["claims"]) == 7
    assert failed == {"reconstruct.original_family": 0, "reconstruct.regrouped_family": 0, "reconstruct.uniqueness": 0}


def test_no_module_but_clifford_reads_enumerated_elements():
    # the group is indexed through its arrays; only clifford builds elements
    # from them, and nothing walks the group element by element
    patterns = (r"\.op\.matrix", r"\.source\b", r"for \w+ in (els|group)\b", r"in enumerate_projective_clifford\(")
    for path in sorted((ROOT / "src" / "sic4").glob("*.py")):
        if path.name == "clifford.py":
            continue
        source = path.read_text()
        for pattern in patterns:
            assert not re.search(pattern, source), (path.name, pattern)


def _perfbench_cli_imports() -> str:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_IMPORTS


def test_regroup_does_not_import_networkx(tmp_path):
    code = "; ".join(
        [
            _perfbench_cli_imports(),
            "import sys",
            "rc = sic4.cli.main(['regroup', '--out', sys.argv[1]])",
            "assert 'networkx' not in sys.modules, 'networkx was imported'",
            "sys.exit(rc)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.txt")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_passing_all_does_not_import_logging(tmp_path):
    # logging serves only a section that raises
    code = "; ".join(
        [
            _perfbench_cli_imports(),
            "import sys",
            "rc = sic4.cli.main(['all', '--out', sys.argv[1]])",
            "assert 'logging' not in sys.modules, 'logging was imported'",
            "sys.exit(rc)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.txt")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_raising_sections_leave_stderr_empty(tmp_path):
    # two sections made to raise, the others failing claims at --tol 1e-30;
    # the tracebacks are logged at DEBUG, which no handler shows by default
    code = "; ".join(
        [
            "import sys, sic4.cli",
            "sic4.cli.run_reconstruct = sic4.cli.run_regroup = lambda cfg, claims: 1 / 0",
            "sys.exit(sic4.cli.main(['all', '--tol', '1e-30', '--format', 'json', '--out', sys.argv[1]]))",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1 and proc.stderr == ""
    errors = [r["claim_id"] for r in json.loads(out.read_text())["claims"] if r["claim_id"].endswith(".error")]
    assert errors == ["reconstruct.error", "regroup.error"]


def test_a_raising_section_logs_its_traceback_at_debug(monkeypatch, tmp_path, caplog):
    def boom(cfg, claims):
        raise RuntimeError("boom")

    monkeypatch.setattr(sic4.cli, "run_triples", boom)
    caplog.set_level(logging.DEBUG, logger="sic4.cli")
    assert main(["triples", "--out", str(tmp_path / "r.txt")]) == 1
    (record,) = [r for r in caplog.records if r.name == "sic4.cli"]
    assert record.levelno == logging.DEBUG and record.exc_info[1].args == ("boom",)


def test_passing_all_does_not_import_dataclasses(tmp_path):
    # sic4's records are plain classes and named tuples: defining them
    # generates no code at import
    code = "; ".join(
        [
            _perfbench_cli_imports(),
            "import sys",
            "rc = sic4.cli.main(['all', '--out', sys.argv[1]])",
            "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'",
            "sys.exit(rc)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.txt")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_build_no_tables():
    # the cached tables, every object with cache_info in a loaded sic4
    # module, are built on first use, never at import
    code = "; ".join(
        [
            _perfbench_cli_imports(),
            "import sys",
            "mods = [m for name, m in list(sys.modules.items()) if name.startswith('sic4.')]",
            "fns = [f for m in mods for f in vars(m).values() if hasattr(f, 'cache_info')]",
            "sizes = {f.__module__ + '.' + f.__name__: f.cache_info().currsize for f in fns}",
            "assert len(sizes) >= 16 and not any(sizes.values()), sizes",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_holds_no_linear_algebra():
    # the claim tables read library results; the mathematics stays there
    source = (ROOT / "src" / "sic4" / "cli.py").read_text()
    for word in ("einsum", "linalg", "matrix_power", "default_rng", "bincount", "cumsum", "dstack", "column_stack"):
        assert word not in source, word


def test_cli_imports_no_private_library_name():
    # the claim tables read the public library; a private helper they need
    # belongs behind a public kernel
    import ast

    tree = ast.parse((ROOT / "src" / "sic4" / "cli.py").read_text())
    private = [
        "%s.%s" % (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "sic4")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_library_name_has_a_library_caller():
    # a public function or class, or a method, that no code in src/ refers to
    # outside its own definition, and that sic4 does not export, is dead
    # weight or belongs in the tests
    import ast

    refs = {}  # name -> sets of the definitions enclosing each reference

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, (ast.Name, ast.Attribute)):
            refs.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    defs = []
    # every tree stays alive until the walk ends: refs holds id()s of nodes,
    # which the nodes of a later tree could reuse once an earlier one is freed
    trees = []
    for path in sorted((ROOT / "src" / "sic4").glob("*.py")):
        tree = ast.parse(path.read_text())
        trees.append(tree)
        walk(tree, frozenset())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((path.stem, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    ("%s.%s" % (path.stem, node.name), m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    dead = [
        "%s.%s" % (owner, node.name)
        for owner, node in defs
        if node.name not in sic4.__all__ and all(id(node) in inside for inside in refs.get(node.name, []))
    ]
    assert dead == []


@pytest.mark.parametrize("out", [False, True])
def test_a_reader_closing_the_pipe_ends_the_run_quietly_with_exit_1(out, tmp_path):
    # the child prints only once stdin is closed, after both ends of its
    # stdout pipe are closed here, so its report, or with --out its one
    # summary line, meets a pipe with no reader
    argv = ["twoqubit", "--format", "tsv"] + (["--out", str(tmp_path / "r.tsv")] if out else [])
    code = "import sys; sys.stdin.read(); from sic4.cli import main; sys.exit(main(%r))" % argv
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=write_end, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write_end)
        os.close(read_end)
    _, err = proc.communicate(b"", timeout=300)
    assert (proc.returncode, err.decode()) == (1, "")


@pytest.mark.parametrize("full_scan", [[], ["--full-scan"]])
def test_regroup_builds_the_256_vertex_fidelity_graph_once(full_scan, monkeypatch, capsys):
    # both clique scans read blocks of the one 256-vertex graph that the
    # regularity claim reads too
    import sic4.regrouping

    sizes, fidelity_adjacency = [], sic4.regrouping.fidelity_adjacency

    def spy(orbit, vertices):
        sizes.append(len(vertices))
        return fidelity_adjacency(orbit, vertices)

    monkeypatch.setattr(sic4.regrouping, "fidelity_adjacency", spy)
    sic4.regrouping.fidelity_graph.cache_clear()
    assert main(["regroup"] + full_scan) == 0
    capsys.readouterr()
    assert sizes == [256]


def test_only_the_command_freezes_the_heap_and_its_claims_are_the_in_process_ones(tmp_path, capsys):
    # main() run as the command turns the collector off for its run and
    # freezes the heap once its report is out, so that interpreter shutdown
    # does not collect it; main(argv) leaves the collector as it was
    import gc

    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["all", "--format", "json", "--out", str(tmp_path / "in-process.json")]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen and gc.isenabled() == enabled
    code = (
        "import gc, sys; from sic4.cli import main; rc = main(); assert not gc.isenabled(); "
        "print(gc.get_freeze_count(), file=sys.stderr); sys.exit(rc)"
    )
    out = tmp_path / "command.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, "all", "--format", "json", "--out", str(out)],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0 and int(proc.stderr) > 0
    claims = [json.loads(p.read_text())["claims"] for p in (tmp_path / "in-process.json", out)]
    assert claims[0] == claims[1]
