"""Seeded op lists for the benchmark workloads.

A workload is an endless sequence of passes; `passes(workload, seed)`
yields one list of ops per pass. The workload seed picks the inputs;
the program only ever sees the generated argv or arguments.

Inputs whose cost matters are stratified rather than drawn freely, so
that every seed, and every pass, has about the same cost mix: in
`exact-large`, each op's k sits in a fixed one of eight strata spread
over [n/20, n] and the seed moves it within the stratum (by -n/50, 0 or
+n/50); for k = 2^r the exponents are fixed and the seed picks deck
sizes and measures of about equal cost. That keeps the run-to-run
spread small and independent of how many passes fit in a run, and keeps
the set of possible ops finite (`exact_large_slots`), so the stdout
digests of its `dist` and `eulerian` ops, and the ops that fail, can be
recorded (`digests.json`, made by `record_digests.py`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

WORKLOADS = ("exact-large", "exact-grid", "sample")

# The tail latency is read at a fixed percentile per workload, so that it
# compares across commits whose runs fit different numbers of passes. Each
# had at least ten samples beyond it when the benchmark was defined, and
# each falls inside a cluster of ops of similar cost rather than between
# two: the heaviest ~20 % of exact-large ops, the grid's n = 200..400 tv
# rows (p99.9 there sat on the few run_all and PairLaw calls and moved
# with every stall of the machine), and sample's single cluster.
TAIL_PERCENTILE = {"exact-large": 85.0, "exact-grid": 99.0, "sample": 75.0}


@dataclass(frozen=True)
class Op:
    """One call into the program.

    `target` is "module.attr" (resolved at call time, so a tracing
    wrapper installed on the attribute is used) or "cli" for
    `cli.main(argv)` with stdout captured.
    """

    label: str
    target: str
    args: tuple = ()
    argv: tuple = ()
    meta: dict = field(default_factory=dict, compare=False)
    draws: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _cli(label: str, argv: list, **meta) -> Op:
    return Op(label, "cli", argv=tuple(str(a) for a in argv), meta=meta, draws=meta.get("count", 0))


# -- exact-large ---------------------------------------------------------

N_LADDER = (250, 500, 750, 1000)
K_STRATA = 8
K_JITTER = (-1, 0, 1)  # in steps of n/50
SLICE_A = ("dist-R-d", "dist-C-d", "dist-C-c", "dist-parsimony", "tv", "moments", "eulerian")
PARSIMONY_N = 200
PARSIMONY_R = (38, 44, 50, 56)
MOMENTS_2R = (("C", "c", 14), ("R", "d", 17), ("C", "c", 20))
TV_R = 17
OVERSIZE_N = 400
_PAIRS = (("R", "d"), ("C", "c"), ("C", "d"))
_TV_STATS = ("Cd", "Cc", "R")


def k_value(n: int, j: int, jitter: int) -> int:
    """Midpoint of stratum j of [n/20, n], moved by jitter * n/50."""
    lo = n / 20
    return round(lo + (n - lo) * (j + 0.5) / K_STRATA) + jitter * (n // 50)


def oversize_exponent(n: int) -> int:
    """Smallest r with (2^r)^n at 4400 decimal digits or more (the limit is 4300)."""
    return math.ceil(4400 / (n * math.log10(2)))


def _slice_a_op(name: str, n: int, k: int, rot: int) -> Op:
    if name == "dist-R-d":
        return _cli(name, ["dist", "--measure", "R", "--stat", "d", "--k", k, "--n", n],
                    measure="R", stat="d", k=k, n=n, fmt="json")
    if name == "dist-C-d":
        return _cli(name, ["dist", "--measure", "C", "--stat", "d", "--k", k, "--n", n,
                           "--format", "csv"], measure="C", stat="d", k=k, n=n, fmt="csv")
    if name == "dist-C-c":
        return _cli(name, ["dist", "--measure", "C", "--stat", "c", "--k", k, "--n", n],
                    measure="C", stat="c", k=k, n=n, fmt="json")
    if name == "dist-parsimony":
        measure, fmt = (("R", "json"), ("C", "csv"))[rot % 2]
        return _cli(name, ["dist", "--measure", measure, "--stat", "parsimony", "--k", k,
                           "--n", n, "--format", fmt],
                    measure=measure, stat="parsimony", k=k, n=n, fmt=fmt)
    if name == "tv":
        stat = _TV_STATS[rot % 3]
        return _cli(name, ["tv", "--statistic", stat, "--k", k, "--n", n])
    if name == "moments":
        measure, stat = _PAIRS[rot % 3]
        return _cli(name, ["moments", "--measure", measure, "--stat", stat, "--k", k, "--n", n,
                           "--asymptotic"], measure=measure, stat=stat, k=k, n=n)
    if name == "eulerian":
        extra = ["--cyclic"] if rot % 2 else []
        return _cli(name, ["eulerian", "--n", n] + extra, n=n)
    raise ValueError(name)


def _parsimony_2r(measure: str, r: int, n: int) -> Op:
    return _cli("dist-parsimony-2r", ["dist", "--measure", measure, "--stat", "parsimony",
                                      "--k", 1 << r, "--n", n],
                measure=measure, stat="parsimony", k=1 << r, n=n, fmt="json")


def exact_large_slots() -> list[list[Op]]:
    """The ops of one exact-large pass, as one list of alternatives per slot.

    A pass takes one op from every slot, so every pass runs the same op
    templates at the same k strata and any number of passes has the same
    cost mix; the seed picks within a slot, among ops of about equal
    cost. The slots also list every op the workload can run, which is
    what `record_digests.py` records.
    """
    slots = []
    # Slice (a). n rises, and each n starts with an R-law op, so the shared
    # Eulerian triangle grows 250 -> 500 -> 1000 and stops there. Within
    # one n the seven templates take seven different strata; the seed
    # moves k within its stratum.
    for i, n in enumerate(N_LADDER):
        for t, name in enumerate(SLICE_A):
            j = (t + 3 * i) % K_STRATA
            slots.append([_slice_a_op(name, n, k_value(n, j, jitter), i + t)
                          for jitter in K_JITTER])
    # Slice (b): k = 2^r far above n, at n <= 500.
    slots.append([_parsimony_2r(measure, r, PARSIMONY_N)
                  for measure in "RC" for r in PARSIMONY_R])
    for measure, stat, r in MOMENTS_2R:
        slots.append([_cli("moments-2r", ["moments", "--measure", measure, "--stat", stat,
                                          "--k", 1 << r, "--n", n],
                           measure=measure, stat=stat, k=1 << r, n=n)
                      for n in (8, 9)])
    slots.append([_cli("tv-R-2r", ["tv", "--statistic", "R", "--k", 1 << TV_R, "--n", n])
                  for n in range(8, 13)])
    # One dist whose k^n has more than 4300 digits. At the commit that
    # defined this benchmark the CLI raises ValueError on it (Python's
    # int-to-str limit); it stays in the mix and counts as a failure.
    n, r = OVERSIZE_N, oversize_exponent(OVERSIZE_N)
    slots.append([_cli("dist-oversize", ["dist", "--measure", measure, "--stat", stat,
                                         "--k", 1 << r, "--n", n],
                       measure=measure, stat=stat, k=1 << r, n=n, fmt="json")
                  for measure, stat in (("R", "d"), ("C", "c"))])
    return slots


def exact_large_pass(p: int, seed: int) -> list[Op]:
    rng = random.Random(f"exact-large:{seed}:{p}")
    return [rng.choice(slot) for slot in exact_large_slots()]


# -- exact-grid ------------------------------------------------------------

CERT_N = (20, 50, 100, 200, 400)
CERT_K_POINTS = 20
CERT_STATS = ("Cd", "Cc", "R")
_PMF_PAIRS = (("R", "d"), ("R", "parsimony"), ("C", "d"), ("C", "c"), ("C", "parsimony"))


def sweep_k_values(n: int, points: int) -> list[int]:
    """The k values of the default certification grid at deck size n.

    A copy of the program's rule, so that a change to the program's sweep
    does not change this workload."""
    k_top = n // 4
    raw = {1 + round(i * (k_top - 1) / max(1, points - 1)) for i in range(points)}
    return sorted(min(v, k_top) for v in raw)


def exact_grid_pass(p: int, rng_seed: int) -> list[Op]:
    rng = random.Random(rng_seed * 1_000_003 + p)
    ops = [
        Op("tv_report", "stein.tv_report", (k, n, stat))
        for n in CERT_N
        for k in sweep_k_values(n, CERT_K_POINTS)
        for stat in CERT_STATS
    ]
    for _ in range(1000):  # drawn as in the c05 acceptance test
        lam = 10 ** rng.uniform(-2.0, 1.5)
        j_max = rng.randint(5, 40)
        target = frozenset(j for j in range(j_max + 1) if rng.random() < 0.35)
        ops.append(Op("solve_stein", "stein.solve_stein", (lam, target, j_max)))
    for _ in range(600):
        measure, stat = rng.choice(_PMF_PAIRS)
        ops.append(Op("exact_statistic_pmf", "sampler.exact_statistic_pmf",
                      (measure, rng.randint(1, 60), rng.randint(2, 60), stat)))
    for i in range(600):
        name = ("moments_c_C", "moments_d_R")[i % 2]
        ops.append(Op(name, f"moments.{name}", (rng.randint(1, 60), rng.randint(2, 60))))
    for n in (10, 15, 20, 25, 30, 35):
        k = rng.choice((None, rng.randint(2, 40)))
        ops.append(Op("PairLaw.build", "pair.PairLaw.build", (n, k)))
    ops.append(Op("nogood_diagnostic", "pair.nogood_diagnostic", (4, 14)))
    ops.append(Op("run_all", "verify.run_all"))
    return ops


# -- sample ------------------------------------------------------------------

STREAMS = 2


def sample_pass(p: int, rng_seed: int) -> list[Op]:
    def seed(t: int) -> int:
        return (rng_seed * 1_000_003 + p * 97 + t) % (1 << 64)

    def sample(t, measure, stat, k, n, count):
        argv = ["sample", "--measure", measure, "--stat", stat, "--k", k, "--n", n,
                "--count", count, "--seed", seed(t), "--streams", STREAMS]
        return _cli(f"sample-{measure}-{stat}", argv, count=count, n=n)

    # Draw counts give every op about the same cost (0.35-0.45 s on a
    # 2-vCPU machine), so the latency percentiles sit inside one cluster.
    pars = "RC"[p % 2]
    return [
        sample(0, "R", "d", 4, 6, 600_000),
        sample(1, "C", "c", 50, 200, 2_000),
        sample(2, "C", "d", 10, 52, 20_000),
        sample(3, pars, "parsimony", 8, 8, 400_000),
        _cli("riffle", ["riffle", "--n", 52, "--rounds", 7, "--count", 35_000, "--seed", seed(4)],
             count=35_000, n=52),
    ]


# -- reference rows (ungated, one shot) -------------------------------------

REFERENCE_ROWS = {
    "d_pmf_C(1000,1000)": Op("d_pmf_C", "measures.d_pmf_C", (1000, 1000)),
    "tv_report(500,2000,Cd)": Op("tv_report", "stein.tv_report", (500, 2000, "Cd")),
    "moments_c_C(5000,5000)": Op("moments_c_C", "moments.moments_c_C", (5000, 5000)),
    "sample C/c k=50 n=200 10^5 draws 2 streams": _cli(
        "sample-C-c",
        ["sample", "--measure", "C", "--stat", "c", "--k", 50, "--n", 200,
         "--count", 100_000, "--seed", 20260816, "--streams", 2],
        count=100_000, n=200,
    ),
}


def passes(workload: str, seed: int) -> Iterator[list[Op]]:
    if workload.startswith("reference:"):
        yield [REFERENCE_ROWS[workload.split(":", 1)[1]]]
        return
    make = {"exact-large": exact_large_pass, "exact-grid": exact_grid_pass,
            "sample": sample_pass}[workload]
    p = 0
    while True:
        yield make(p, seed)
        p += 1
