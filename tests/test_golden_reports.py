"""The reports of sic4 pinned to a golden file.

``golden_reports.json`` holds, for each pinned invocation, its exit code,
its claim rows (claim_id, expected, observed, pass) and its payload.  The
test reruns each invocation in-process and compares floats within
GOLDEN_FLOAT_TOL absolute and every other value exactly; keys that the
file lacks (the anchors, the regrouped SICs' matrices) are not compared.
The regrouped SICs' matrices are checked instead against the orbit
projectors that the pinned ``matching`` indexes.

After a deliberate change to a report, rewrite the file with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

from sic4.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_reports.json")
GOLDEN_FLOAT_TOL = 1e-12

RUNS = (
    ["all"],
    ["all", "--full-scan"],
    ["all", "--tol", "1e-12"],
    ["all", "--tol", "0.3"],
    ["all", "--tol", "1e-30"],
    ["orbit"],
    ["symmetry"],
    ["triples"],
    ["reconstruct"],
    ["regroup"],
    ["twoqubit", "--basis", "product"],
    ["twoqubit", "--basis", "bell"],
)


def _run(argv, out: Path) -> tuple:
    """Exit code and parsed JSON report of one in-process invocation."""
    rc = main(list(argv) + ["--format", "json", "--out", str(out)])
    return rc, json.loads(out.read_text())


def _pinned(rc: int, report: dict) -> dict:
    """The part of a report that the golden file keeps."""
    payload = {k: v for k, v in report["payload"].items() if k != "regrouped_sics"}
    claims = [{k: row[k] for k in ("claim_id", "expected", "observed", "pass")} for row in report["claims"]]
    return {"exit": rc, "claims": claims, "payload": payload}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def mismatches(want, got, path: str = "") -> list:
    """Where got departs from want: floats beyond GOLDEN_FLOAT_TOL, any
    other value unequal; keys of got that want lacks are ignored."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [path]
        found = []
        for k, v in want.items():
            found += mismatches(v, got[k], path + "/" + k) if k in got else [path + "/" + k]
        return found
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [m for i, (w, g) in enumerate(zip(want, got)) for m in mismatches(w, g, "%s[%d]" % (path, i))]
    if isinstance(want, float) or isinstance(got, float):
        ok = _is_number(want) and _is_number(got) and abs(want - got) <= GOLDEN_FLOAT_TOL
    else:
        ok = type(want) is type(got) and want == got
    return [] if ok else [path]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_report_equals_the_golden_file(argv, golden, tmp_path, capsys):
    rc, report = _run(argv, tmp_path / "r.json")
    capsys.readouterr()
    assert mismatches(golden[" ".join(argv)], _pinned(rc, report)) == []
    if argv == ["regroup"]:  # each regrouped SIC holds the orbit states its matching row names
        from sic4.numerics import matrix_to_json
        from sic4.orbits import enumerate_orbit

        projectors = enumerate_orbit().projectors
        sics = report["payload"]["regrouped_sics"]
        matching = golden["regroup"]["payload"]["matching"]
        rows = [[k for block in blocks for k in block["members"]] for blocks in matching]
        want = [{"label": "sic-%d" % n, "states": matrix_to_json(projectors[row])} for n, row in enumerate(rows, 17)]
        assert mismatches(want, sics) == []


def test_a_planted_change_to_one_observed_value_is_a_mismatch(golden):
    pinned = golden["all"]
    changed = json.loads(json.dumps(pinned))
    row = next(r for r in changed["claims"] if isinstance(r["observed"], float))
    row["observed"] += 1e-9
    assert mismatches(pinned, changed) == ["/claims[%d]/observed" % changed["claims"].index(row)]
    changed = json.loads(json.dumps(pinned))
    changed["claims"][0]["observed"] = "changed"
    assert mismatches(pinned, changed) == ["/claims[0]/observed"]


def test_readme_claim_counts_match_the_reports(golden):
    readme = (ROOT / "README.md").read_text()
    counts = {
        "all": re.search(r"sic4 all +#.*\((\d+) claims", readme),
        "all --full-scan": re.search(r"`all --full-scan` emits (\d+)", readme),
        "all --tol 0.3": re.search(r"`sic4 all --tol 0\.3` passes all (\d+) claims", readme),
    }
    for run, match in counts.items():
        assert match, run
        assert int(match.group(1)) == len(golden[run]["claims"]), run
    assert golden["all --tol 0.3"]["exit"] == 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {" ".join(argv): _pinned(*_run(argv, Path(tmp) / "r.json")) for argv in RUNS}
    GOLDEN.write_text(json.dumps(pinned, separators=(",", ":")) + "\n")
    print("wrote %s (%d bytes)" % (GOLDEN, GOLDEN.stat().st_size), file=sys.stderr)
