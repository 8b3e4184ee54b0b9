"""Correctness checks on one round of a workload.

Every verdict is recomputed by oracle.py from the Fitting table the scan
used: the tables the round wrote for a cold survey, the shipped tables for
the replay.  A cold survey's tables must also hold the same ideals as the
shipped .scan_cache/ tables, and for quadratic fields the eigenspace class
part must equal the 3-part of the binary-quadratic-form class group.
"""

from collections import defaultdict

from oracle import (Ideal, conductors, expected_verdict, observed_verdict,
                    parse_table, table_name)

KIND = {"quad": "quadratic-real", "cubic": "cyclic-cubic"}

# verdicts from the paper, as pinned in tests/test_acceptance.py, for the
# conductors inside the benchmark's bounds: (status, kernel, class part)
ANCHORS = {
    ("quad", 3, 2089): ("none", 1, (3,)),
    ("cubic", 2, 163): ("none", 1, (2, 2)),
}


def _tables(texts, p, chi, chi_ids):
    """{chi_id: {ell: [records]}} from {file name: text}."""
    out = {}
    for cid in chi_ids:
        by_ell = defaultdict(list)
        for rec in parse_table(texts.get(table_name(p, chi, cid), "")):
            by_ell[rec.ell].append(rec)
        out[cid] = by_ell
    return out


def check_scan(scan, records, texts, shipped, cold, quad_part):
    """Failures of one scan's records against the tables it read.

    texts and shipped map table file names to their text; quad_part(ell, p)
    gives the p-part invariants of the form class group of Q(sqrt(ell))."""
    quad = scan.kind == "quad"
    chi, degree = (2, 2) if quad else (3, 3)
    chi_ids = (1, 2) if not quad and scan.p % 3 == 1 else (1,)
    used = _tables(texts, scan.p, chi, chi_ids)
    ref = _tables(shipped, scan.p, chi, chi_ids)
    failures = []
    expected, sampled = {}, set()
    for ell in conductors(scan.kind, scan.bound):
        inv = tuple(quad_part(ell, scan.p)) if quad else None
        if quad and not inv:
            continue
        sampled.add(ell)
        parts = []
        for cid in chi_ids:
            found = used[cid].get(ell, [])
            if len(found) != 1:
                failures.append(f"ell={ell} chi_id={cid}: {len(found)} "
                                f"Fitting records, expected 1")
                break
            ideal = Ideal(found[0])
            cls = ideal.class_invariants()
            if quad and cls != inv:
                failures.append(f"ell={ell}: |R/(I+(T))| has invariants "
                                f"{cls}, form class group 3-part {inv}")
            if cold and not (ref[cid].get(ell) and ideal.same_ideal(
                    Ideal(ref[cid][ell][-1]))):
                failures.append(f"ell={ell} chi_id={cid}: ideal differs "
                                f"from the shipped table")
            if cls:
                parts.append((cls, ideal.kernel_order()))
        else:
            if parts:
                expected[ell] = expected_verdict(ell, scan.p, degree, parts)
    if cold:
        for cid in chi_ids:
            extra = set(used[cid]) - sampled
            if extra:
                failures.append(f"chi_id={cid}: Fitting records for "
                                f"conductors not sampled: {sorted(extra)}")

    observed = {}
    for rec in records:
        if rec["ell"] in observed:
            failures.append(f"ell={rec['ell']}: more than one record")
        observed[rec["ell"]] = observed_verdict(rec)
        order = 1
        for d in rec["class_part"]:
            order *= d
        if rec["status"] == "error" or order % rec["kernel"]:
            failures.append(f"ell={rec['ell']}: {rec['status']} with kernel "
                            f"{rec['kernel']} in class part "
                            f"{rec['class_part']}")
    for ell in sorted(set(expected) | set(observed)):
        if expected.get(ell) != observed.get(ell):
            failures.append(f"{scan.kind} p={scan.p} ell={ell}: recorded "
                            f"{observed.get(ell)}, recomputed "
                            f"{expected.get(ell)}")
    if (scan.kind, scan.p) == ("cubic", 7):
        # the paper's p = 7 table: a 7-part capitulates maximally exactly
        # when ell = 1 (mod 7), and cannot capitulate otherwise
        for ell, v in observed.items():
            if (v.status, v.maximal) != (("full", True) if ell % 7 == 1
                                         else ("no-potential", False)):
                failures.append(f"cubic p=7 ell={ell}: recorded {v}")
    for (kind, p, ell), (status, kernel, part) in ANCHORS.items():
        if (kind, p) == (scan.kind, scan.p) and ell < scan.bound:
            v = observed.get(ell)
            if v is None or (v.status, v.kernel, v.class_part) != (
                    status, kernel, part):
                failures.append(f"{kind} p={p} ell={ell}: recorded {v}, the "
                                f"paper has {status} {kernel} {part}")
    return failures


def check_round(workload, out, shipped, quad_part):
    """Failures of one worker round's output."""
    failures = []
    if workload.replay and out["tables"] != shipped:
        failures.append("the replay changed its tables: a Fitting ideal was "
                        "computed instead of read")
    texts = shipped if workload.replay else out["tables"]
    for scan in workload.scans:
        records = [r for r in out["records"]
                   if (r["kind"], r["p"]) == (KIND[scan.kind], scan.p)]
        failures += check_scan(scan, records, texts, shipped,
                               not workload.replay, quad_part)
    return failures
