"""One round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --trace 0|1 --tmp DIR

Imports capitula from the checkout's src/, prepares a cache directory under
DIR (empty, or a copy of the shipped .scan_cache/ tables), runs the
workload's scans with jobs=1, and prints one JSON object: the wall-clock
time at which set-up ended, each scan's time, the records, the tables the
cache directory holds afterwards, the peak resident memory and, with
--trace 1, the per-module spans.  The cache directory is removed.
"""

import argparse
import dataclasses
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    import capitula
    from capitula import cli

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, capitula)
    cache = tempfile.mkdtemp(prefix="cache-", dir=args.tmp)
    try:
        if workload.replay:
            for table in sorted((ROOT / ".scan_cache").glob("*.txt")):
                shutil.copy(table, cache)
        ready_wall = time.time()

        records, scan_s = [], []
        for scan in workload.scans:
            start = time.perf_counter()
            if scan.kind == "quad":
                records += cli.scan_quadratic(scan.p, 1, 12, scan.bound,
                                              jobs=1, cache=cache)
            else:
                records += cli.scan_cubic(scan.p, scan.bound, jobs=1,
                                          cache=cache)
            scan_s.append(time.perf_counter() - start)

        tables = {path.name: path.read_text(encoding="utf-8")
                  for path in sorted(Path(cache).glob("*.txt"))}
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    out = {
        "ready_wall": ready_wall,
        "scan_s": scan_s,
        "records": [dataclasses.asdict(r) for r in records],
        "tables": tables,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        out["spans"] = {name: dataclasses.asdict(s)
                        for name, s in tracer.stats.items()}
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
