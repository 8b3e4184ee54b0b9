import io
import os
import shutil
from pathlib import Path

import pytest

from capitula import cli, criteria, cycunits
from capitula.errors import PrecisionTooLow, RingMismatch

SHIPPED = Path(__file__).resolve().parent.parent / ".scan_cache"


def run_cli(*argv):
    out = io.StringIO()
    cli.main(list(argv), out=out)
    return out.getvalue()


def shipped_cache(tmp_path, *names):
    """A cache directory holding copies of the named shipped tables (all of
    them when none is named)."""
    cache = tmp_path / "cache"
    cache.mkdir()
    for path in sorted(SHIPPED.glob("*.txt")):
        if not names or path.name in names:
            shutil.copy(path, cache)
    return str(cache)


class TestSubcommands:
    def test_classgroup(self):
        text = run_cli("classgroup", "--disc", "-39")
        assert "h=4" in text and "invariants=[4]" in text

    def test_unit(self):
        text = run_cli("unit", "--disc", "12")
        assert "x=4 y=1 norm=1" in text

    def test_visible(self):
        text = run_cli("visible", "--disc", "60", "--d1", "12")
        assert "order=2" in text

    def test_fitting(self):
        text = run_cli("fitting", "--ell", "2089", "--p", "3", "--chi", "2")
        assert text.startswith("ell=2089 p=3 chi=2 n=2 prec=5")

    def test_capitulation(self):
        text = run_cli("capitulation", "--ell", "7873", "--p", "3")
        assert '"status": "partial"' in text
        assert '"order": 3' in text

    def test_period(self):
        text = run_cli("period", "--ell", "7", "--deg", "3")
        assert "coefficients=[-1, -2, 1, 1]" in text

    def test_scan_small(self):
        text = run_cli("--format", "csv", "scan", "--kind", "quad",
                       "--p", "3", "--max", "100", "--mod", "1:12")
        assert text.splitlines() == [",".join(cli.CSV_COLUMNS)]

    @pytest.mark.parametrize("mod", ["1:0", "12", "x:12", "1:-4", "1:2:3"])
    def test_scan_rejects_malformed_mod(self, mod, capsys):
        # a usage error (exit code 2), not a traceback from range() or int()
        with pytest.raises(SystemExit) as exc:
            run_cli("scan", "--kind", "quad", "--p", "3", "--max", "100",
                    "--mod", mod)
        assert exc.value.code == 2
        assert "--mod" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("fitting", "--ell", "2", "--p", "3", "--chi", "2"), "odd prime"),
        (("fitting", "--ell", "13", "--p", "3", "--chi", "1"), "chi order"),
        (("fitting", "--ell", "13", "--p", "4", "--chi", "3"), "--p"),
        (("export", "--file", "out.txt", "--ell", "13", "--p", "9", "--chi",
          "2"), "--p"),
        (("capitulation", "--ell", "229", "--p", "9"), "--p"),
        (("scan", "--kind", "quad", "--p", "9", "--max", "100", "--mod",
          "1:12"), "--p"),
        (("scan", "--kind", "cubic", "--p", "3", "--max", "100"), "p other"),
        (("capitulation", "--ell", "469", "--p", "3"), "--ell"),
        (("capitulation", "--ell", "7", "--p", "3"), "--ell"),
        (("capitulation", "--ell", "15", "--p", "3"), "--ell"),
        (("capitulation", "--ell", "85", "--p", "3"), "--ell"),
        (("scan", "--kind", "quad", "--p", "3", "--max", "400", "--mod",
          "3:4"), "--mod"),
        (("scan", "--kind", "quad", "--p", "3", "--max", "400", "--mod",
          "1:2"), "--mod"),
    ])
    def test_rejects_inputs_without_an_answer(self, tmp_path, monkeypatch,
                                              capsys, argv, flag):
        # ell = 2, the trivial character, a composite p, a capitulation
        # conductor that is not a prime = 1 (mod 4), a quadratic scan over
        # a class holding primes = 3 (mod 4) and a cubic scan at p = 3 can
        # never give a correct answer: a usage error (exit code 2) before
        # any aux prime is drawn or file written
        def no_stream(*args):
            raise AssertionError("an aux prime was drawn")

        monkeypatch.setattr(cycunits, "_aux_prime_stream", no_stream)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("--cache", str(tmp_path / "cache"), *argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scan_rejects_long_without_flag(self):
        with pytest.raises(SystemExit):
            run_cli("scan", "--kind", "quad", "--p", "3", "--max", "20001")

    def test_fitting_cache_keeps_chi_ids_apart(self, tmp_path):
        # the conjugate character's ideal must not be served for chi id 1
        cache = str(tmp_path)
        args = ("--cache", cache, "fitting", "--ell", "7489", "--p", "2",
                "--chi", "3", "--chi-id")
        first = run_cli(*args, "2")
        assert "gens=[2+T+z*T^2,8]" in first
        second = run_cli(*args, "1")
        assert "gens=[2+T+T^2+z*T^2,8]" in second
        with open(cli._cache_path(cache, 2, 3, 2), encoding="utf-8") as fh:
            assert fh.read() == first
        assert run_cli(*args, "2") == first

    def test_export_chi_id(self, tmp_path):
        # ell = 313: the chi-id-2 ideal is (7), the chi-id-1 ideal is (1)
        cache = shipped_cache(tmp_path, "fitting_p7_chi3_id2.txt")
        path = tmp_path / "out.txt"
        run_cli("--cache", cache, "export", "--file", str(path),
                "--ell", "313", "--p", "7", "--chi", "3", "--chi-id", "2")
        (got,) = cycunits.ingest_table(path, chi_id=2)
        want = cli._cache_load(cache, 7, 3, 2)[313]
        assert got.ideal() == want.ideal()
        assert want.generators == ("7",)

    @pytest.mark.parametrize("command, extra", [
        ("fitting", ()), ("export", ("--file", "out.txt"))])
    @pytest.mark.parametrize("p, chi, chi_id", [
        ("3", "2", "2"), ("2", "3", "0"), ("2", "3", "3")])
    def test_chi_id_not_prime_to_the_order(self, tmp_path, monkeypatch,
                                           capsys, command, extra, p, chi,
                                           chi_id):
        # chi id 2 of a quadratic chi is the trivial character: a usage
        # error (exit code 2) before any aux prime is drawn, and no cache
        # table or output file is written
        def no_stream(*args):
            raise AssertionError("an aux prime was drawn")

        monkeypatch.setattr(cycunits, "_aux_prime_stream", no_stream)
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            run_cli("--cache", str(cache), command, *extra, "--ell", "2089",
                    "--p", p, "--chi", chi, "--chi-id", chi_id)
        assert exc.value.code == 2
        assert "chi id" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_export_fills_empty_cache(self, tmp_path):
        # a computed record is stored, as by fitting and capitulation
        cache = tmp_path / "cache"
        cache.mkdir()
        path = tmp_path / "out.txt"
        run_cli("--cache", str(cache), "export", "--file", str(path),
                "--ell", "229", "--p", "3", "--chi", "2")
        with open(cli._cache_path(str(cache), 3, 2), encoding="utf-8") as fh:
            assert fh.read() == path.read_text(encoding="utf-8")

    def test_ingest_export_roundtrip(self, tmp_path):
        path = tmp_path / "t.txt"
        run_cli("export", "--file", str(path), "--ell", "2089",
                "--p", "3", "--chi", "2")
        text = run_cli("ingest", "--file", str(path))
        assert "ingested 1 records" in text


class TestScans:
    def test_quadratic_small_range(self):
        recs = cli.scan_quadratic(3, 1, 12, 1200)
        assert [r.ell for r in recs] == [229, 733, 1129]
        assert all(r.status in ("full", "partial") for r in recs)
        assert all("maximal_capitulation" in r.certificates for r in recs)
        by_ell = {r.ell: r for r in recs}
        assert by_ell[1129].class_part == (9,)
        assert by_ell[1129].kernel == 3

    def test_no_potential_range(self):
        recs = cli.scan_quadratic(3, 5, 12, 600)
        assert all(r.status == "no-potential" for r in recs)
        assert all(r.provenance == "rules" for r in recs)
        assert {r.ell for r in recs} == {257}

    def test_cubic_small_range(self):
        recs = cli.scan_cubic(2, 500)
        assert all(r.kind == "cyclic-cubic" for r in recs)
        assert all(len(r.class_part) % 2 == 0 for r in recs)  # even 2-rank
        for r in recs:
            assert r.status in ("full", "partial", "none", "no-potential")

    def test_jobs_parallel_matches_serial(self):
        a = cli.scan_quadratic(3, 1, 12, 1200, jobs=1)
        b = cli.scan_quadratic(3, 1, 12, 1200, jobs=2)
        strip = lambda rs: [r.row()[:7] + r.row()[8:] for r in rs]
        assert strip(a) == strip(b)

    def test_only_the_parent_writes_the_cache(self, tmp_path, monkeypatch):
        # fork-started workers inherit this patch: a worker that appends
        # to a table fails its task
        parent = os.getpid()
        append = cli._cache_append

        def parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a scan worker wrote the cache")
            return append(*args, **kwargs)

        monkeypatch.setattr(cli, "_cache_append", parent_only)
        tables = []
        for jobs in (1, 2):
            cache = str(tmp_path / f"jobs{jobs}")
            cli.scan_quadratic(3, 1, 12, 1200, jobs=jobs, cache=cache)
            with open(cli._cache_path(cache, 3, 2), encoding="utf-8") as fh:
                tables.append(fh.read().splitlines())
        assert tables[0] == tables[1]
        assert [line.split()[0] for line in tables[0]] == [
            "ell=229", "ell=733", "ell=1129"]

    def test_cache_resume(self, tmp_path):
        cache = str(tmp_path)
        a = cli.scan_quadratic(3, 1, 12, 1200, cache=cache)
        assert os.path.exists(cli._cache_path(cache, 3, 2))
        cached = cli._cache_load(cache, 3, 2)
        assert set(cached) == {229, 733, 1129}
        b = cli.scan_quadratic(3, 1, 12, 1200, cache=cache)
        strip = lambda rs: [r.row()[:7] + r.row()[8:] for r in rs]
        assert strip(a) == strip(b)

    def test_cached_record_reused(self, tmp_path, monkeypatch):
        cache = str(tmp_path)
        cli.scan_quadratic(3, 1, 12, 300, cache=cache)

        def boom(*a, **kw):
            raise AssertionError("should have used the cache")

        # every sampling run draws its aux primes from this stream
        monkeypatch.setattr(cycunits, "_aux_prime_stream", boom)
        recs = cli.scan_quadratic(3, 1, 12, 300, cache=cache)
        assert [r.ell for r in recs] == [229]

    @pytest.mark.parametrize("scan, table, ell", [
        (lambda cache: cli.scan_quadratic(3, 1, 12, 300, cache=cache),
         (3, 2), 229),
        (lambda cache: cli.scan_cubic(2, 300, cache=cache), (2, 3), 277),
    ], ids=["quad", "cubic"])
    def test_failed_verdict_keeps_sampled_records(self, tmp_path,
                                                  monkeypatch, scan, table,
                                                  ell):
        # the verdict of ell fails after its ideal was sampled: its row is
        # an error, and the cache still gets every sampled record
        clean = str(tmp_path / "clean")
        want = scan(clean)

        def fail(ideal):
            raise PrecisionTooLow("injected")

        monkeypatch.setattr(criteria, "capitulation_module", fail)
        failed = str(tmp_path / "failed")
        got = scan(failed)
        assert [(r.ell, r.status) for r in got] == [
            (r.ell, "error" if r.ell == ell else r.status) for r in want]
        tables = [Path(cli._cache_path(d, *table)).read_text(encoding="utf-8")
                  for d in (clean, failed)]
        assert tables[0] == tables[1]

    def test_cache_load_stamps_chi_id(self, tmp_path):
        cache = shipped_cache(tmp_path, "fitting_p7_chi3_id2.txt")
        recs = cli._cache_load(cache, 7, 3, 2)
        assert len(recs) == 611
        assert all(r.chi_id == 2 for r in recs.values())

    @pytest.mark.parametrize("line", [
        "ell=2089 p=5 chi=2 n=0 prec=3 gens=[1]",
        "ell=2089 p=3 chi=4 n=2 prec=5 gens=[1]"], ids=["p5", "chi4"])
    def test_cache_rejects_line_of_another_table(self, tmp_path, line):
        # classify would read the record in its own ring: the p = 5 line
        # for 2089 in the p = 3 table is classified at p = 5
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "fitting_p3_chi2.txt").write_text(line + "\n")
        with pytest.raises(RingMismatch, match="ell=2089"):
            cli.scan_quadratic(3, 2089, 12, 2090, cache=str(cache))

    def test_warm_scan_reads_each_table_once(self, tmp_path, monkeypatch):
        cache = shipped_cache(tmp_path)
        calls = []
        ingest = cycunits.ingest_table

        def counting(path, *args, **kwargs):
            calls.append(os.path.basename(path))
            return ingest(path, *args, **kwargs)

        monkeypatch.setattr(cycunits, "ingest_table", counting)
        cli.scan_cubic(7, 200, cache=cache)
        assert sorted(calls) == ["fitting_p7_chi3.txt",
                                 "fitting_p7_chi3_id2.txt"]
        calls.clear()
        cli.scan_quadratic(3, 1, 12, 800, cache=cache)
        assert calls == ["fitting_p3_chi2.txt"]

    def test_warm_scan_jobs_match(self, tmp_path):
        cache = shipped_cache(tmp_path)
        strip = lambda rs: [r.row()[:7] + r.row()[8:] for r in rs]
        # below 200 no p = 7 class part is nontrivial; 313 and 877 are
        serial = cli.scan_cubic(7, 1000, cache=cache)
        assert [r.ell for r in serial] == [313, 877]
        assert strip(cli.scan_cubic(7, 1000, jobs=2, cache=cache)) \
            == strip(serial)

    def test_imaginary_survey(self):
        # all 31 fundamental discriminants |d| < 100 produce records;
        # the 8 trivial class groups have empty class_part
        recs = cli.survey_imaginary(100)
        assert len(recs) == 31
        assert sum(1 for r in recs if r.class_part == ()) == 8


class TestReports:
    def test_csv_empty(self):
        assert cli.report([], "csv") == ",".join(cli.CSV_COLUMNS) + "\n"

    def test_csv_roundtrip(self, tmp_path):
        recs = cli.scan_quadratic(3, 1, 12, 1200)
        path = tmp_path / "r.csv"
        cli.report(recs, "csv", path)
        assert cli.ingest_report(path) == sorted(
            recs, key=lambda r: (r.ell, str(r.p), r.kind))

    def test_json_roundtrip(self, tmp_path):
        recs = cli.scan_quadratic(3, 1, 12, 1200)
        path = tmp_path / "r.json"
        cli.report(recs, "json", path)
        assert cli.ingest_report(path) == recs

    def test_md_table_aggregates(self):
        recs = cli.scan_quadratic(3, 1, 12, 1200)
        text = cli.report(recs, "md-table")
        assert "nontrivial: 3" in text
        assert "maximal: 3" in text

    def test_byte_determinism(self):
        recs = cli.scan_quadratic(3, 1, 12, 1200)
        assert cli.report(recs, "csv") == cli.report(list(recs), "csv")
        assert cli.report(recs, "json") == cli.report(list(recs), "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            cli.report([], "xml")
