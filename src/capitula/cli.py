"""Command-line driver: survey scans, persistence, and report generation.

Scans walk the fields of prime conductor in a range and send each one down
one path, _scan_one: its cached Fitting records, or else those sampled for
it, give its ideals, which the criteria engine reads only when the cheap
rules cannot certify a verdict.  A scan emits one SurveyRecord per field
with a nontrivial p-class part.  Failed conductors become first-class
status=error rows so aggregate counts stay auditable.  Reports are
byte-deterministic for identical record lists.
"""

import argparse
import concurrent.futures
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass

from . import cycunits, fields, quadforms
from . import criteria as cr
from .arith import is_prime
from .errors import CapitulaError, ChiOrderNotCoprime, RingMismatch

CSV_COLUMNS = ("ell", "kind", "p", "class_part", "status", "kernel",
               "certificates", "timing_ms", "provenance")


@dataclass(frozen=True)
class SurveyRecord:
    ell: int
    kind: str
    p: object  # prime or "all"
    class_part: tuple
    status: str
    kernel: object  # int or (lo, hi)
    certificates: tuple  # rule names
    timing_ms: int
    provenance: str  # rules | eigenspace | fixture | error

    def row(self):
        part = "x".join(str(d) for d in self.class_part)
        kernel = ("%d-%d" % self.kernel if isinstance(self.kernel, tuple)
                  else str(self.kernel))
        return (str(self.ell), self.kind, str(self.p), part, self.status,
                kernel, ";".join(self.certificates), str(self.timing_ms),
                self.provenance)

    @staticmethod
    def from_row(row):
        ell, kind, p, part, status, kernel, certs, ms, prov = row
        return SurveyRecord(
            ell=int(ell), kind=kind, p=int(p) if p != "all" else p,
            class_part=tuple(int(x) for x in part.split("x") if x),
            status=status,
            kernel=(tuple(int(x) for x in kernel.split("-"))
                    if "-" in kernel else int(kernel)),
            certificates=tuple(c for c in certs.split(";") if c),
            timing_ms=int(ms), provenance=prov,
        )


def _provenance(verdict):
    names = [c[0] for c in verdict.certificates]
    if "fixture" in names:
        return "fixture"
    if any(n.startswith("eigenspace") for n in names):
        return "eigenspace"
    return "rules"


def _record(ell, kind, p, verdict, started, class_part):
    return SurveyRecord(
        ell=ell, kind=kind, p=p, class_part=tuple(class_part),
        status=verdict.status, kernel=verdict.kernel_order,
        certificates=tuple(c[0] for c in verdict.certificates),
        timing_ms=int((time.monotonic() - started) * 1000),
        provenance=_provenance(verdict),
    )


def _error_record(ell, kind, p, exc, started):
    return SurveyRecord(
        ell=ell, kind=kind, p=p, class_part=(), status="error",
        kernel=0, certificates=(type(exc).__name__,),
        timing_ms=int((time.monotonic() - started) * 1000),
        provenance="error",
    )


# ---------------------------------------------------------------------------
# fitting-record cache (append-only, cycunits table format)


def _cache_path(cache_dir, p, chi_order, chi_id=1):
    suffix = "" if chi_id == 1 else f"_id{chi_id}"
    return os.path.join(cache_dir, f"fitting_p{p}_chi{chi_order}{suffix}.txt")


def _cache_load(cache_dir, p, chi_order, chi_id=1):
    if not cache_dir:
        return {}
    path = _cache_path(cache_dir, p, chi_order, chi_id)
    if not os.path.exists(path):
        return {}
    records = cycunits.ingest_table(path, chi_id)
    for rec in records:
        if (rec.p, rec.chi_order) != (p, chi_order):
            raise RingMismatch(
                f"{path}: the line for ell={rec.ell} has p={rec.p} "
                f"chi={rec.chi_order}, but the table holds p={p} "
                f"chi={chi_order}")
    return {rec.ell: rec for rec in records}


def _cache_append(cache_dir, records):
    """Append each record to the table of its p, chi order and chi id.
    Only the parent process calls this: scan workers return their records."""
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    for rec in records:
        path = _cache_path(cache_dir, rec.p, rec.chi_order, rec.chi_id)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(cycunits.table_line(rec))


def _fitting_records(ell, p, chi_order, cached):
    """The Fitting records of ell, one for each chi id of cached ({chi id:
    the cache's record or None}) and in its order, with the misses sampled
    in one run; and the newly sampled records, for the caller to store."""
    missing = [cid for cid, hit in cached.items() if hit is None]
    fresh = (cycunits.compute_fitting_ideals(ell, p, chi_order, missing)
             if missing else [])
    computed = {rec.chi_id: rec for rec in fresh}
    return [hit if hit is not None else computed[cid]
            for cid, hit in cached.items()], fresh


def _fitting_cached(cache_dir, ell, p, chi_order, chi_id=1):
    """The Fitting record of ell from the cache table, or else computed and
    appended to it: the one cache path of the single-conductor commands."""
    (rec,), fresh = _fitting_records(
        ell, p, chi_order,
        {chi_id: _cache_load(cache_dir, p, chi_order, chi_id).get(ell)})
    _cache_append(cache_dir, fresh)
    return rec


# ---------------------------------------------------------------------------
# scans


def _scan_one(task):
    """The survey record of one field (None when its p-class part is
    trivial) and the Fitting records sampled for it, which the caller
    stores.  cached holds the cache's record, or None, for each chi id.
    The class part of a real quadratic field comes from its forms, that of
    any other field from its ideals, which are built at most once and only
    when needed."""
    field, p, cached = task
    ell = field.conductor
    started = time.monotonic()
    fresh = []

    @functools.cache
    def ideals():
        records, new = _fitting_records(ell, p, field.degree, cached)
        fresh.extend(new)
        return [rec.ideal() for rec in records]

    try:
        if field.kind == "quadratic-real":
            part = tuple(quadforms.p_part(quadforms.class_group(ell), p))
        else:
            part = cr.eigenspace_class_part(ideals())
        if not part:
            return None, fresh
        verdict = cr.classify(field, p, class_invariants=part, ideals=ideals)
        return _record(ell, field.kind, p, verdict, started, part), fresh
    except CapitulaError as exc:
        return _error_record(ell, field.kind, p, exc, started), fresh


def _scan(fields, p, chi_order, jobs, cache):
    """The survey records of the fields, in order.  Each cache table is read
    once, and each task carries its field and its own records.  Workers
    only compute; this process appends each task's new Fitting records to
    the cache as its result arrives, so no two processes write one table
    and an interrupted scan keeps its finished work."""
    # p = 1 (mod 3): the two conjugate cubic characters give distinct
    # p-adic eigenspaces, and the class part is their direct sum
    chi_ids = (1, 2) if chi_order == 3 and p % 3 == 1 else (1,)
    tables = {cid: _cache_load(cache, p, chi_order, cid) for cid in chi_ids}
    tasks = [(field, p, {cid: t.get(field.conductor)
                         for cid, t in tables.items()})
             for field in fields]
    records = []

    def collect(results):
        for record, fresh in results:
            _cache_append(cache, fresh)
            if record is not None:
                records.append(record)

    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            collect(ex.map(_scan_one, tasks, chunksize=4))
    else:
        collect(map(_scan_one, tasks))
    return records


def scan_quadratic(p, residue, modulus, ell_max, jobs=1, cache=None):
    """Records for primes ell = residue (mod modulus), ell < ell_max, whose
    real quadratic field Q(sqrt(ell)) has a nontrivial p-class part."""
    fields = [cr.quadratic_real_field(ell)
              for ell in range(residue, ell_max, modulus)
              if ell > 4 and is_prime(ell)]
    return _scan(fields, p, 2, jobs, cache)


def scan_cubic(p, ell_max, jobs=1, cache=None):
    """Records for cubic fields of prime conductor ell = 1 (mod 3),
    ell < ell_max, with nontrivial p-part of the chi-eigenspace."""
    fields = [cr.cyclic_cubic_field(ell)
              for ell in range(7, ell_max, 3) if is_prime(ell)]
    return _scan(fields, p, 3, jobs, cache)


def survey_imaginary(bound=100):
    """One record per fundamental discriminant -bound < d < 0, verdicts for
    capitulation of the full class group in Q(zeta_|d|)."""
    out = []
    for d in range(-3, -bound, -1):
        if not quadforms.is_fundamental(d):
            continue
        started = time.monotonic()
        group = quadforms.class_group(d)
        verdict = cr.classify(cr.quadratic_imaginary_field(d), "all",
                              class_invariants=group.invariants)
        out.append(_record(-d, "quadratic-imaginary", "all", verdict,
                           started, group.invariants))
    return out


# ---------------------------------------------------------------------------
# reports


def _aggregate(records):
    counts = {}
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
    maximal = sum(1 for r in records if "maximal_capitulation" in r.certificates)
    return counts, maximal


def report(records, fmt, path=None):
    """Render records (sorted by ell) as csv, json, or md-table; byte-
    deterministic for identical inputs."""
    records = sorted(records, key=lambda r: (r.ell, str(r.p), r.kind))
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            buf.write(",".join(r.row()) + "\n")
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(
            [dict(zip(CSV_COLUMNS, r.row())) for r in records], indent=0
        ) + "\n"
    elif fmt == "md-table":
        counts, maximal = _aggregate(records)
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
                 "|" + "---|" * len(CSV_COLUMNS)]
        for r in records:
            lines.append("| " + " | ".join(r.row()) + " |")
        lines.append("")
        lines.append(f"nontrivial: {len(records)}")
        for status in sorted(counts):
            lines.append(f"{status}: {counts[status]}")
        lines.append(f"maximal: {maximal}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format: {fmt}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def ingest_report(path):
    """Inverse of report(..., "csv"/"json")."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        rows = [[doc[c] for c in CSV_COLUMNS] for doc in json.loads(text)]
    else:
        lines = [ln for ln in text.splitlines() if ln]
        rows = [ln.split(",") for ln in lines[1:]]
    return [SurveyRecord.from_row(r) for r in rows]


# ---------------------------------------------------------------------------
# argument parsing and subcommands


def _residue_class(text):
    """The pair (a, m) of "a:m", for ell = a (mod m) with m >= 1."""
    try:
        a, m = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:m, got {text!r}") from None
    if m < 1:
        raise argparse.ArgumentTypeError(f"modulus {m} must be at least 1")
    return a, m


def _prime(text):
    """The prime p of --p."""
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text!r} is not prime")
    return p


def _real_quadratic_conductor(text):
    """The prime ell of capitulation --ell: Q(sqrt(ell)) has conductor ell
    exactly when ell = 1 (mod 4)."""
    ell = _prime(text)
    if ell % 4 != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not 1 (mod 4)")
    return ell


def _build_parser():
    top = argparse.ArgumentParser(prog="capitula")
    top.add_argument("--format", default="csv",
                     choices=("csv", "json", "md-table"))
    top.add_argument("--cache", default=None)
    top.add_argument("--jobs", type=int, default=1)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup")
    p.add_argument("--disc", type=int, required=True)
    p = sub.add_parser("unit")
    p.add_argument("--disc", type=int, required=True)
    p = sub.add_parser("visible")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p = sub.add_parser("fitting")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--chi-id", type=int, default=1)
    p = sub.add_parser("capitulation")
    p.add_argument("--ell", type=_real_quadratic_conductor, required=True)
    p.add_argument("--p", type=_prime, required=True)
    p = sub.add_parser("period")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p = sub.add_parser("scan")
    p.add_argument("--kind", choices=("quad", "cubic"), required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--max", type=int, default=10000)
    p.add_argument("--mod", type=_residue_class, default=(1, 4),
                   help="a:m for ell = a (mod m)")
    p.add_argument("--long-run", action="store_true")
    p = sub.add_parser("ingest")
    p.add_argument("--file", required=True)
    p = sub.add_parser("export")
    p.add_argument("--file", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--chi-id", type=int, default=1)
    return top


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    cache = args.cache or cycunits.cache_dir()

    if args.command in ("fitting", "export"):
        try:
            cycunits.check_characters(args.ell, args.p, args.chi,
                                      (args.chi_id,))
        except (ValueError, ChiOrderNotCoprime) as exc:
            parser.error(str(exc))
    if args.command == "scan" and args.kind == "cubic" and args.p == 3:
        parser.error("a cubic scan needs p other than 3: the cubic "
                     "character's order must be prime to p")
    if args.command == "scan" and args.kind == "quad" and (
            args.mod[1] % 4 or args.mod[0] % 4 != 1):
        parser.error("--mod a:m needs 4 | m and a = 1 (mod 4): Q(sqrt(ell)) "
                     "has conductor ell only for ell = 1 (mod 4)")

    if args.command == "classgroup":
        g = quadforms.class_group(args.disc)
        out.write(f"discriminant={g.discriminant} h={g.h} "
                  f"invariants={list(g.invariants)}\n")
    elif args.command == "unit":
        u = quadforms.fundamental_unit(args.disc)
        out.write(f"d={u.d1} x={u.x} y={u.y} norm={u.norm}\n")
    elif args.command == "visible":
        cls, order = quadforms.visible_class(args.disc, args.d1)
        out.write(f"class=({cls.a},{cls.b},{cls.c}) order={order}\n")
    elif args.command == "fitting":
        rec = _fitting_cached(cache, args.ell, args.p, args.chi, args.chi_id)
        out.write(cycunits.table_line(rec))
    elif args.command == "capitulation":
        ell, p = args.ell, args.p
        inv = tuple(quadforms.p_part(quadforms.class_group(ell), p))
        verdict = cr.classify(
            cr.quadratic_real_field(ell), p, class_invariants=inv,
            ideals=lambda: [_fitting_cached(cache, ell, p, 2).ideal()])
        out.write(verdict.to_json() + "\n")
    elif args.command == "period":
        poly = fields.period_polynomial(args.ell, args.deg)
        out.write(f"ell={poly.ell} m={poly.m} "
                  f"coefficients={list(poly.coefficients)}\n")
    elif args.command == "scan":
        if args.max > 10000 and not args.long_run:
            raise SystemExit("bounds above 10000 require --long-run")
        if args.kind == "quad":
            residue, modulus = args.mod
            records = scan_quadratic(args.p, residue, modulus, args.max,
                                     jobs=args.jobs, cache=cache)
        else:
            records = scan_cubic(args.p, args.max, jobs=args.jobs,
                                 cache=cache)
        out.write(report(records, args.format))
    elif args.command == "ingest":
        records = cycunits.ingest_table(args.file)
        out.write(f"ingested {len(records)} records\n")
    elif args.command == "export":
        rec = _fitting_cached(cache, args.ell, args.p, args.chi, args.chi_id)
        cycunits.export_table([rec], args.file)
        out.write(f"exported 1 record to {args.file}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
