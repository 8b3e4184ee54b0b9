"""The benchmark's own checks must fail on wrong survey output.

    python3 -m pytest perfbench/test_checks.py

Each test runs the survey scans at a tiny bound against a copy of the
shipped tables (or an empty cache), then hands the output to
checks.check_round as a benchmark round would.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from capitula import cli, quadforms  # noqa: E402
from checks import check_round  # noqa: E402
from run import shipped_tables  # noqa: E402
from workloads import Scan, Workload  # noqa: E402

TINY_REPLAY = Workload(True, (Scan("quad", 3, 2100), Scan("cubic", 2, 400)))
TINY_COLD = Workload(False, (Scan("quad", 3, 1200),))


def quad_part(ell, p):
    return quadforms.p_part(quadforms.class_group(ell), p)


def run_round(workload, cache, tables):
    for name, text in tables.items():
        (cache / name).write_text(text, encoding="utf-8")
    records = []
    for scan in workload.scans:
        if scan.kind == "quad":
            records += cli.scan_quadratic(scan.p, 1, 12, scan.bound,
                                          cache=str(cache))
        else:
            records += cli.scan_cubic(scan.p, scan.bound, cache=str(cache))
    return {"records": [dataclasses.asdict(r) for r in records],
            "tables": {p.name: p.read_text(encoding="utf-8")
                       for p in sorted(cache.glob("*.txt"))}}


@pytest.fixture(scope="module")
def shipped():
    return shipped_tables()


@pytest.fixture(scope="module")
def replay(shipped, tmp_path_factory):
    return run_round(TINY_REPLAY, tmp_path_factory.mktemp("replay"), shipped)


def tampered(shipped, name, old, new):
    assert old in shipped[name]
    return {**shipped, name: shipped[name].replace(old, new)}


def test_replay_passes(replay, shipped):
    assert check_round(TINY_REPLAY, replay, shipped, quad_part) == []


def test_cold_survey_passes(shipped, tmp_path):
    out = run_round(TINY_COLD, tmp_path, {})
    assert out["tables"]  # the survey wrote its Fitting records
    assert check_round(TINY_COLD, out, shipped, quad_part) == []


def test_tampered_fitting_table_fails(shipped, tmp_path):
    # (T-3, 81) keeps the class part (3) of 229 but capitulates nothing
    tables = tampered(shipped, "fitting_p3_chi2.txt",
                      "ell=229 p=3 chi=2 n=1 prec=4 gens=[T,3]",
                      "ell=229 p=3 chi=2 n=1 prec=4 gens=[T-3,81]")
    out = run_round(TINY_REPLAY, tmp_path, tables)
    failures = check_round(TINY_REPLAY, out, shipped, quad_part)
    assert any("changed its tables" in f for f in failures)
    assert any("ell=229: recorded" in f for f in failures)


def test_cold_survey_with_wrong_ideal_fails(shipped, tmp_path):
    out = run_round(TINY_COLD, tmp_path, {})
    name = "fitting_p3_chi2.txt"
    assert "ell=1129 p=3 chi=2 n=1 prec=4 gens=[T,9]" in out["tables"][name]
    out["tables"][name] = out["tables"][name].replace(
        "ell=1129 p=3 chi=2 n=1 prec=4 gens=[T,9]",
        "ell=1129 p=3 chi=2 n=1 prec=4 gens=[T,3]")
    failures = check_round(TINY_COLD, out, shipped, quad_part)
    assert any("ell=1129 chi_id=1: ideal differs" in f for f in failures)
    assert any("ell=1129: |R/(I+(T))| has invariants (3,), form class group "
               "3-part (9,)" in f for f in failures)


@pytest.mark.parametrize("edit", ["drop", "duplicate", "flip"])
def test_verdict_count_off_by_one_fails(replay, shipped, edit):
    records = [dict(r) for r in replay["records"]]
    full = next(i for i, r in enumerate(records) if r["status"] == "full")
    if edit == "drop":
        del records[full]
    elif edit == "duplicate":
        records.append(records[full])
    else:
        records[full]["status"] = "partial"
    out = {**replay, "records": records}
    assert check_round(TINY_REPLAY, out, shipped, quad_part)

