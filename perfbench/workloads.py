"""What each workload scans, and from which cache.

The bounds are fixed, not drawn from a seed: conductor ranges and the
aux-prime streams are deterministic, so the same bounds are the same work.
They keep a round to one to three seconds, so that a run repeats it many
times: the paper's bound of 10^4 does not fit a run at all, because
ell = 2917 alone (n = 6, ring rank 729) takes about three minutes cold and
twenty seconds warm.
"""

from dataclasses import dataclass

QUAD_BOUND = 2917  # every ell = 1 (mod 12) below the first n = 6 tower
CUBIC7_BOUND = 320  # three conductors ell = 1 (mod 21), n = 1; ell = 313
# the replay has 2 quadratic and 4 cubic records, so that its median latency
# falls among the cubic ones, each of which re-ingests a 611-line table
REPLAY_QUAD_BOUND = 800
REPLAY_CUBIC2_BOUND = 500
REPLAY_CUBIC7_BOUND = 60  # each conductor ingests both 611-line tables


@dataclass(frozen=True)
class Scan:
    kind: str  # "quad": scan_quadratic(p, 1, 12, bound); "cubic": scan_cubic
    p: int
    bound: int


@dataclass(frozen=True)
class Workload:
    replay: bool  # start from a copy of the shipped tables, not empty
    scans: tuple


WORKLOADS = {
    "quad3-survey": Workload(False, (Scan("quad", 3, QUAD_BOUND),)),
    "cubic7-survey": Workload(False, (Scan("cubic", 7, CUBIC7_BOUND),)),
    "table-replay": Workload(True, (
        Scan("quad", 3, REPLAY_QUAD_BOUND),
        Scan("cubic", 2, REPLAY_CUBIC2_BOUND),
        Scan("cubic", 7, REPLAY_CUBIC7_BOUND),
    )),
}
