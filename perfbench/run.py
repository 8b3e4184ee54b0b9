"""Survey benchmark for capitula.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh interpreter
(perfbench/worker.py), until S seconds have passed; checks every round's
verdicts apart from the program (checks.py); and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, taken from the
rounds by trimmed_mean; with --trace 1 the rounds alternate untraced and
traced, and the metrics are the per-module split of the traced rounds plus
the tracing overhead.  Every time is divided by its round's slowdown (see
slowdown), so that it reads as seconds on the reference machine under its
typical load.  The line before the result records the run's environment; a
copy of both goes to .perfbench_results/.

The workloads take no seed: their conductor ranges and aux-prime streams are
deterministic.  --seed is recorded and changes nothing.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
from checks import check_round
from oracle import conductors
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 170

END_TO_END = {"survey_s": "s", "verdict_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def git_sha(root):
    """HEAD of the checkout's own .git, or "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def shipped_tables():
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((ROOT / ".scan_cache").glob("*.txt"))}


def run_probes():
    """Times of two calibration probes, in a process of their own."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")],
                          capture_output=True, text=True, check=True,
                          timeout=ROUND_TIMEOUT_S)
    return json.loads(proc.stdout)


def run_round(workload, traced, tmp):
    """One round in a fresh worker, with the calibration probes timed just
    before and just after it."""
    env = {k: v for k, v in os.environ.items() if k != "CAPITULA_CACHE"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--trace", str(int(traced)), "--tmp", str(tmp)]
    probe_s = run_probes()
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready_wall"] - spawned
    out["probe_s"] = probe_s + run_probes()
    return out


def verdict_key(records):
    return [{k: v for k, v in r.items() if k != "timing_ms"}
            for r in records]


def slowdown(out):
    """How much slower than the reference machine this round's machine ran:
    the mean time of the round's calibration probes over REFERENCE_S.
    Other tenants' load on a shared host slows whole rounds, and runs, by up
    to 1.7x; the probe slows with it and independently of capitula."""
    return statistics.fmean(out["probe_s"]) / calibrate.REFERENCE_S


def trimmed_mean(values):
    """Mean of values without the smallest and the largest, once there are
    three or more.  Dividing by the slowdown takes out the load that lasts
    through a round; a burst shorter than a round still lands on one."""
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return sum(values) / len(values)


def survey_s(rounds):
    """trimmed_mean over rounds of the workload's scan time, each divided
    by its round's slowdown."""
    return trimmed_mean([sum(out["scan_s"]) / slowdown(out)
                         for out in rounds])


def end_to_end(rounds):
    """survey_s as above; verdict_s_p50 is the median over records of each
    record's trimmed_mean timing_ms; setup_s is the trimmed_mean set-up
    time and peak_rss_mb the median peak.  Times are divided by their
    round's slowdown."""
    timings = {}
    for out in rounds:
        for r in out["records"]:
            timings.setdefault((r["kind"], r["p"], r["ell"]), []).append(
                r["timing_ms"] / slowdown(out))
    return {
        "survey_s": survey_s(rounds),
        "verdict_s_p50": statistics.median(
            trimmed_mean(ms) for ms in timings.values()) / 1000,
        "setup_s": trimmed_mean([out["setup_s"] / slowdown(out)
                                 for out in rounds]),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"]
                                         for out in rounds),
    }


# per-module metric: (span, field), unit; "field" is calls, outer_calls,
# total_s, self_s or a key of the span's counts
PER_LAYER = {
    "cycunits.fitting_calls": (("cycunits.compute_fitting_ideal",
                                "outer_calls"), "count"),
    "cycunits.fitting_self_s": (("cycunits.compute_fitting_ideal", "self_s"),
                                "s"),
    "cycunits.aux_primes": (("cycunits.compute_fitting_ideal", "aux_primes"),
                            "count"),
    "cycunits.batches": (("cycunits.compute_fitting_ideal", "batches"),
                         "count"),
    "arith.howell_calls": (("arith.howell_array", "calls"), "count"),
    "arith.howell_rows_in": (("arith.howell_array", "rows_in"), "count"),
    "arith.howell_s": (("arith.howell_array", "total_s"), "s"),
    "arith.smith_calls": (("arith.smith_diagonalize", "calls"), "count"),
    "arith.smith_s": (("arith.smith_diagonalize", "total_s"), "s"),
    "iwasawa.class_invariants_s": (("iwasawa.eigenspace_class_invariants",
                                    "total_s"), "s"),
    "iwasawa.capitulation_module_calls": (("iwasawa.capitulation_module",
                                           "calls"), "count"),
    "iwasawa.capitulation_module_self_s": (("iwasawa.capitulation_module",
                                            "self_s"), "s"),
    "iwasawa.ideal_make_s": (("iwasawa.ideal_make", "total_s"), "s"),
    "cycunits.ingest_calls": (("cycunits.ingest_table", "calls"), "count"),
    "cycunits.ingest_lines": (("cycunits.ingest_table", "lines"), "count"),
    "cycunits.ingest_self_s": (("cycunits.ingest_table", "self_s"), "s"),
    "iwasawa.ring_make_calls": (("iwasawa.ring_make", "calls"), "count"),
    "iwasawa.ring_make_s": (("iwasawa.ring_make", "total_s"), "s"),
    "quadforms.class_group_calls": (("quadforms.class_group", "calls"),
                                    "count"),
    "quadforms.class_group_s": (("quadforms.class_group", "total_s"), "s"),
    "criteria.classify_calls": (("criteria.classify", "calls"), "count"),
    "criteria.classify_self_s": (("criteria.classify", "self_s"), "s"),
}


def _span_value(spans, name, field):
    stats = spans.get(name)
    if stats is None:
        return 0
    return stats[field] if field in stats else stats["counts"].get(field, 0)


def per_layer(traced, untraced):
    """Medians over the traced rounds; times are divided by their round's
    slowdown, as the end-to-end ones are."""
    units = {name: unit for name, (_, unit) in PER_LAYER.items()}
    units.update({"cycunits.changing_batch_ratio": "ratio",
                  "cli.scan_self_s": "s", "cli.records": "count"})
    values = {name: [] for name in units}
    for out in traced:
        spans = out["spans"]
        row = {name: _span_value(spans, span, field)
               for name, ((span, field), _) in PER_LAYER.items()}
        batches = row["cycunits.batches"]
        changing = _span_value(spans, "cycunits.compute_fitting_ideal",
                               "changing_batches")
        row["cycunits.changing_batch_ratio"] = (changing / batches
                                                if batches else 0.0)
        row["cli.scan_self_s"] = sum(
            _span_value(spans, f"cli.{s}", "self_s")
            for s in ("scan_quadratic", "scan_cubic"))
        row["cli.records"] = len(out["records"])
        for name, value in row.items():
            values[name].append(value / slowdown(out) if units[name] == "s"
                                else value)
    units["trace.overhead_s"] = "s"
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["trace.overhead_s"] = survey_s(traced) - survey_s(untraced)
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(metrics)}


def _terminate(signum, frame):
    # unwind through the finally blocks: subprocess.run kills and reaps the
    # worker, and the run's temporary directory is removed
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "capitula", ROOT / ".scan_cache"):
        if not needed.is_dir():
            print(f"missing {needed.relative_to(ROOT)}: run from a checkout "
                  f"of the repository", file=sys.stderr)
            return 2

    sys.path.insert(0, str(ROOT / "src"))
    from capitula import quadforms

    def quad_part(ell, p):
        return quadforms.p_part(quadforms.class_group(ell), p)

    env = environment(args)
    shipped = shipped_tables()
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(untraced) < 2:
            untraced.append(run_round(args.workload, False, tmp))
            if args.trace:
                traced.append(run_round(args.workload, True, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    rounds = untraced + traced
    failures = check_round(workload, rounds[0], shipped, quad_part)
    for out in rounds[1:]:
        if (verdict_key(out["records"]) != verdict_key(rounds[0]["records"])
                or out["tables"] != rounds[0]["tables"]):
            failures.append("rounds disagree on records or tables")
            break
    for out in traced:
        fitting = out["spans"].get("cycunits.compute_fitting_ideal")
        if workload.replay and fitting and fitting["calls"]:
            failures.append("the replay computed Fitting ideals")
            break
    if shipped_tables() != shipped:
        failures.append("the shipped .scan_cache/ tables changed")
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    per_round = sum(len(conductors(s.kind, s.bound)) for s in workload.scans)
    result = {
        "correct": not failures,
        "attempted": per_round * len(rounds),
        "failed": sum(r["status"] == "error" for out in rounds
                      for r in out["records"]),
        "metrics": (per_layer(traced, untraced) if args.trace else
                    {name: {"value": value, "unit": END_TO_END[name]}
                     for name, value in end_to_end(untraced).items()}),
    }
    env["rounds"] = len(rounds)
    env["scan_s"] = [out["scan_s"] for out in untraced]
    env["slowdown"] = [slowdown(out) for out in rounds]
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-trace{args.trace}-{stamp}-{os.getpid()}"
     ".json").write_text(json.dumps({"environment": env, "result": result},
                                    indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
