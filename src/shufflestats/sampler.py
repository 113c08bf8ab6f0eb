"""Random generation of shuffled permutations, with exact reference checks.

Two independent samplers live here, each one vectorised kernel over a
batch of words. The first grows a permutation one symbol at a time
through weighted insertions; after n-1 steps the result carries the
k-shuffle law exactly, with no rejection and no enumeration. The second
simulates the physical riffle (binomial cut, uniformly random
interleave) and exists to cross-validate the first.

No row builds the insertion words; the word sampler that does is the
walks' reference in tests/test_sampler.py. R/d, C/c and both parsimony
rows read only the descent count d and whether the last symbol exceeds
the first (c = d + [last > first]), so they walk those two per row,
O(n) per draw, drawing the very random numbers the word sampler draws.
The d of a C/d word cut after it is drawn depends on where its descents
sit, so that walk also keeps a descent bitmap, O(n) per row and step.

Empirical output is summarized against the exact pmfs from
:mod:`shufflestats.measures` via a Pearson chi-square test with
tail-bin merging plus per-bin binomial z-scores, computed once and kept
on the summary.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream_id)``. Each stream draws a fixed, precomputed number of
samples and the per-stream histograms are merged in stream-id order, so
aggregate output is reproducible no matter how the threads are scheduled
or how many run (at most one per CPU).
Where a draw must hit an exact rational probability, the rational is
converted to an integer threshold out of 2**53 and compared against a
uniform 53-bit integer; the per-draw bias is below 2**-53.

numpy and mpmath are imported at their first use and the thread pool
when the streams run, so importing this module loads none of them;
only sampling does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .errors import CertificationError, UserInputError, _LazyModule
from .measures import (
    ExactPmf,
    d_pmf_R,
    parsimony_distance,
    riffle_piles,
    statistic_law,
)
from .permutations import descent_count, insert_symbol

np = _LazyModule("numpy", "np", globals())
mp = _LazyModule("mpmath", "mp", globals())

_THRESHOLD_BITS = 53
_SCALE = 1 << _THRESHOLD_BITS
_MIN_EXPECTED = 5.0
_TREE_CAP = 8
_NORMALIZATION_MAX = 50  # largest n and k of the insertion normalization sweep
DEFAULT_STREAMS = 8


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of one sampling run.

    The triple (seed, streams, count) pins the output exactly: the same
    config always produces the same SampleSummary, byte for byte.
    """

    k: int
    n: int
    count: int
    seed: int
    streams: int = DEFAULT_STREAMS

    def __post_init__(self) -> None:
        if self.k < 1:
            raise UserInputError(f"k must be a positive integer, got {self.k}")
        if self.n < 1:
            raise UserInputError(f"n must be a positive integer, got {self.n}")
        if self.count < 1:
            raise UserInputError(f"count must be positive, got {self.count}")
        if self.streams < 1:
            raise UserInputError(f"streams must be positive, got {self.streams}")
        if not 0 <= self.seed < 2**64:
            raise UserInputError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SampleSummary:
    """Histogram of a sampled statistic plus its fit against the exact pmf.

    The histogram is keyed by the support of exact_pmf, the reference
    law of the fit (bins with zero observations are present).
    chi_square and p_value come from the merged-bin Pearson test; bin_z
    holds the per-bin binomial z-scores before any merging.
    """

    histogram: dict[int, int]
    chi_square: float
    p_value: float
    exact_pmf: ExactPmf
    bin_z: dict[int, float]

    @property
    def max_bin_z(self) -> float:
        """Largest absolute per-bin z-score."""
        return max(abs(z) for z in self.bin_z.values())


def _stream_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for one stream, keyed by (seed, stream_id)."""
    # A uint64 array: numpy reads a plain list of ints >= 2**63 as float64.
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_counts(count: int, streams: int) -> list[int]:
    """Fixed per-stream sample counts; the remainder goes to the low ids.

    >>> _stream_counts(10, 4)
    [3, 3, 2, 2]
    """
    base, extra = divmod(count, streams)
    return [base + (sid < extra) for sid in range(streams)]


def _case_thresholds(k: int, m: int) -> np.ndarray:
    """53-bit thresholds for drawing a case-1 insertion at deck size m.

    Entry d is floor(2**53 * (d+1)(m+k-d) / (k(m+1))), the total case-1
    probability for a permutation of m symbols with d descents. States
    with d >= k are unreachable and get the always-accept threshold.
    """
    out = np.full(m, _SCALE, dtype=np.uint64)
    den = k * (m + 1)
    for d in range(min(m, k)):
        out[d] = min(((d + 1) * (m + k - d) << _THRESHOLD_BITS) // den, _SCALE)
    return out


def _insertion_case(
    k: int, m: int, d: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw each row's insertion case and its slot rank at deck size m.

    d holds the rows' descent counts (int64). Returns (case1, t): case1
    is True where the case keeps d, and t is a uniform rank among the
    d+1 (case 1) or m-d (case 2) qualifying slots. Both samplers draw
    through here, so they read the stream identically.
    """
    u = rng.integers(0, _SCALE, size=d.shape[0], dtype=np.uint64)
    case1 = u < _case_thresholds(k, m)[d]
    # int64 bounds: their dtype picks numpy's bounded-draw algorithm.
    hi = m - d
    np.copyto(hi, d + 1, where=case1)
    t = rng.integers(0, hi)
    return case1, t


def _slot_count_dtype(n: int) -> np.dtype:
    return np.min_scalar_type(n + 1)  # holds a running count of up to n+1 slots


def _insertion_walk(
    k: int, n: int, count: int, rng: np.random.Generator, desc: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(d, last > first) of `count` insertion words, without the words.

    Draws exactly what the word sampler _insertion_words(k, n, count, rng)
    in tests/test_sampler.py draws, and the tests hold the two to it. Slot 0
    is taken exactly when the case is 2 and t == 0, which puts the new
    maximum first; slot m exactly when the case is 1 and t == d, which
    puts it last. So the descent count and whether the last symbol
    exceeds the first follow in O(n) per row.

    A zeroed (n+1, count) bool `desc` gets desc[s, row] = word[s-1] > word[s]
    for each inner slot s, with slot 0 an ascent and slot m a descent, so
    case 1 takes a descent slot and case 2 an ascent slot. Taking slot j
    moves the slots past j down one row; then j ascends and j+1 descends.
    """
    d = np.zeros(count, dtype=np.int64)
    wrap = np.zeros(count, dtype=bool)
    if desc is not None:
        desc[1] = True
        flat, cols = desc.reshape(-1), np.arange(count)
        slots = np.empty((n, count), dtype=_slot_count_dtype(n))
    for m in range(1, n):
        case1, t = _insertion_case(k, m, d, rng)
        wrap &= case1 | (t != 0)
        wrap |= case1 & (t == d)
        d += ~case1
        if desc is None:
            continue
        # Running count of qualifying slots, row by row: a cumsum along
        # axis 0 is many times slower. Slot j is the (t+1)-th to qualify.
        q = np.equal(desc[: m + 1], case1, out=slots[: m + 1])
        for i in range(1, m + 1):
            np.add(q[i], q[i - 1], out=q[i])
        before = q <= t.astype(q.dtype)
        moved = desc[1 : m + 2] ^ desc[: m + 1]
        np.greater(moved, before, out=moved)
        desc[1 : m + 2] ^= moved
        # Summed in the slot dtype; count_nonzero accumulates in intp, several times slower.
        at = np.add.reduce(before, axis=0, dtype=q.dtype).astype(np.int64) * count + cols
        flat[at] = False
        flat[at + count] = True
    return d, wrap


def _cut_descents(k: int, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """d of `count` insertion words, each cut before a uniform position s drawn after it.

    The cut turns the pair across slot s into the wrap (at s = 0, the wrap itself).
    """
    desc = np.zeros((n + 1, count), dtype=bool)
    d, wrap = _insertion_walk(k, n, count, rng, desc)
    shift = rng.integers(0, n, size=count)
    desc[0] = wrap
    return d + wrap - desc[shift, np.arange(count)]


def _gsr_words(n: int, rounds: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized r-round riffle of `count` sorted decks.

    The physical riffle cuts at a Binomial(n, 1/2) position, then drops
    cards from the bottoms of the two packets with probability
    proportional to the packets' current sizes. Any one interleaving of
    packets of sizes a and b then has probability a! b! / (a+b)!, the
    product of those drop chances, so all interleavings are equally
    likely (Bayer and Diaconis 1992). Each round therefore places the
    top packet's cards at a uniformly random size-`cut` subset of
    positions and fills both packets in order.

    The top positions are those of a row's `cut` lowest uniforms in
    argsort order. Unless the cut-th and next-lowest uniforms tie, they
    are exactly the uniforms at or below the cut-th lowest, so only a
    tied row needs the argsort to break its tie.
    """
    words = np.tile(np.arange(1, n + 1, dtype=np.int32), count)
    rows = np.arange(count)
    for _ in range(rounds):
        cut = rng.binomial(n, 0.5, size=count)
        u = rng.random((count, n))
        s = np.sort(u, axis=1)
        # Uniforms lie in [0, 1), so a cut of 0 takes no position.
        lo = np.where(cut > 0, s[rows, cut - 1], -1.0)
        top = u <= lo[:, None]
        first = np.arange(n) < cut[:, None]
        tied = np.flatnonzero((cut < n) & (lo == s[rows, np.minimum(cut, n - 1)]))
        if tied.size:
            ranked = np.empty((tied.size, n), dtype=bool)
            np.put_along_axis(ranked, np.argsort(u[tied], axis=1), first[tied], axis=1)
            top[tied] = ranked
        # Each packet's cards fill its positions in order, deck by deck.
        out = np.empty_like(words)
        out[np.flatnonzero(top)] = words[np.flatnonzero(first)]
        out[np.flatnonzero(~top)] = words[np.flatnonzero(~first)]
        words = out
    return words.reshape(count, n)


def _descents_per_row(words: np.ndarray) -> np.ndarray:
    return (words[:, :-1] > words[:, 1:]).sum(axis=1)


def _inverse_descents(words: np.ndarray) -> np.ndarray:
    """Descent count of the inverse of each row."""
    n = words.shape[1]
    inv = np.empty_like(words)
    np.put_along_axis(inv, words - 1, np.arange(1, n + 1, dtype=words.dtype)[None, :], axis=1)
    return _descents_per_row(inv)


def exact_statistic_pmf(measure: str, k: int, n: int, statistic: str) -> ExactPmf:
    """statistic_law(measure, statistic).pmf(k, n), kept as the benchmark's entry point."""
    return statistic_law(measure, statistic).pmf(k, n)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_streams(
    config: SamplerConfig, width: int, draw: Callable[[np.random.Generator, int], np.ndarray]
) -> np.ndarray:
    """Bincount each stream's drawn statistic values and merge them in id order.

    Streams are the logical split of the sample; at most one thread per
    CPU runs them, which changes no draw.
    """
    chunks = _stream_counts(config.count, config.streams)

    def run(sid: int) -> np.ndarray:
        if chunks[sid] == 0:
            return np.zeros(width, dtype=np.int64)
        values = draw(_stream_generator(config.seed, sid), chunks[sid])
        return np.bincount(values, minlength=width)

    from concurrent.futures import ThreadPoolExecutor

    workers = min(config.streams, _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run, range(config.streams)))
    merged = np.zeros(max(part.shape[0] for part in parts), dtype=np.int64)
    for part in parts:
        merged[: part.shape[0]] += part
    return merged


def _on_support(
    histogram: Mapping[int, int], exact: ExactPmf
) -> tuple[dict[int, int], dict[int, int]]:
    """Counts over the exact support (zeros present) and the stray counts off it."""
    observed = {v: histogram.get(v, 0) for v in exact.support}
    stray = {v: c for v, c in histogram.items() if c and v not in observed}
    return observed, stray


def _fit(
    observed: Mapping[int, int], exact: ExactPmf, count: int
) -> tuple[float, float, dict[int, float]]:
    """Pearson chi-square with tail merging, plus the per-bin z-scores.

    Bins are merged (smallest expected count into its smaller neighbor)
    until every expected count reaches 5; degrees of freedom are the
    merged bin count minus one. The z-scores are computed on the
    original, unmerged bins. A point-mass reference needs no test and
    scores chi_square 0, p_value 1.
    """
    support = exact.support
    if len(support) == 1:
        return 0.0, 1.0, per_bin_z(observed, exact, count)
    probs = {v: float(exact.prob(v)) for v in support}
    bins = [[float(observed[v]), count * probs[v]] for v in support]
    while len(bins) > 1 and min(exp for _, exp in bins) < _MIN_EXPECTED:
        i = min(range(len(bins)), key=lambda idx: bins[idx][1])
        if i == 0:
            j = 1
        elif i == len(bins) - 1:
            j = i - 1
        else:
            j = i - 1 if bins[i - 1][1] <= bins[i + 1][1] else i + 1
        bins[j][0] += bins[i][0]
        bins[j][1] += bins[i][1]
        del bins[i]
    if len(bins) < 2:
        raise UserInputError(
            f"undersized sample: {count} draws cannot give every merged bin "
            f"an expected count of {_MIN_EXPECTED}"
        )
    chi_square = sum((obs - exp) ** 2 / exp for obs, exp in bins)
    # Upper regularized incomplete gamma Q(df/2, x/2) (A&S 26.4.19),
    # evaluated well past double precision so the result is rounded once.
    df = len(bins) - 1
    with mp.workdps(30):
        p_value = float(mp.gammainc(df / 2, chi_square / 2, mp.inf, regularized=True))
    return chi_square, p_value, per_bin_z(observed, exact, count)


def _summarize(bin_counts: np.ndarray, exact: ExactPmf, count: int) -> SampleSummary:
    """Build a SampleSummary from raw bincounts, policing the support.

    A sample landing outside the exact support has probability zero, so
    its appearance means the sampler itself is wrong; that raises
    CertificationError rather than feeding the fit.
    """
    observed, stray = _on_support(dict(enumerate(bin_counts.tolist())), exact)
    if stray:
        raise CertificationError(f"samples outside the exact support: {stray}")
    total = sum(observed.values())
    if total != count:
        raise CertificationError(f"histogram totals {total}, expected {count}")
    chi_square, p_value, z = _fit(observed, exact, count)
    return SampleSummary(
        histogram=observed,
        chi_square=chi_square,
        p_value=p_value,
        exact_pmf=exact,
        bin_z=z,
    )


def per_bin_z(histogram: Mapping[int, int], exact: ExactPmf, count: int) -> dict[int, float]:
    """Binomial z-score of each support bin, keyed by statistic value.

    A mass too small for a float variance (P(d = 199) = 200^-200 under
    R(200, 200) is 0.0 as a float) is scored from its exact value.
    """
    out: dict[int, float] = {}
    for v, mass in exact.items():
        p = float(mass)
        var = count * p * (1.0 - p)
        if p >= 1.0:
            out[v] = 0.0
        elif var > 0.0:
            out[v] = (histogram.get(v, 0) - count * p) / math.sqrt(var)
        else:
            dev = histogram.get(v, 0) - count * mass
            z2 = dev * dev / (count * mass * (1 - mass))
            out[v] = math.copysign(float(mp.sqrt(mp.mpf(z2.numerator) / z2.denominator)), dev)
    return out


def sample_statistic(measure: str, statistic: str, config: SamplerConfig) -> SampleSummary:
    """Sample a statistic under a measure and summarize against its exact pmf."""
    law = statistic_law(measure, statistic)
    k, n = config.k, config.n
    exact = law.pmf(k, n)
    if law.flavor is not None:
        # Parsimony distance of each read value; slot 0 is 0 (c is never 0).
        distance = np.array(
            [parsimony_distance(s, law.flavor) if s else 0 for s in range(n)],
            dtype=np.int64,
        )

    def draw(rng: np.random.Generator, chunk: int) -> np.ndarray:
        if measure == "C" and law.reads == "d":
            values = _cut_descents(k, n, chunk, rng)
        else:
            # c is rotation invariant and the cut is the stream's last draw,
            # so the cut is left undrawn and c = d + [last > first].
            values, wrap = _insertion_walk(k, n, chunk, rng)
            if law.reads == "c":
                values += wrap
        return values if law.flavor is None else distance[values]

    return _summarize(_run_streams(config, exact.support[-1] + 1, draw), exact, config.count)


def riffle_summary(n: int, rounds: int, count: int, seed: int) -> SampleSummary:
    """Riffle sorted decks `rounds` times and fit inverse descent counts.

    This is the physical-simulation counterpart of sample_statistic: the
    decks are riffled, each result is inverted, and the inverse descent
    histogram is tested against d_pmf_R(2**rounds, n). The draws run in
    SamplerConfig's default 8 streams, so the seed alone fixes them.
    """
    config = SamplerConfig(k=riffle_piles(rounds), n=n, count=count, seed=seed)
    exact = d_pmf_R(config.k, n)

    def draw(rng: np.random.Generator, chunk: int) -> np.ndarray:
        return _inverse_descents(_gsr_words(n, rounds, chunk, rng))

    return _summarize(_run_streams(config, exact.support[-1] + 1, draw), exact, config.count)


def decision_tree_distribution(k: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exhaustive expansion of the insertion chain, no randomness involved.

    Returns the exact law on permutations of n symbols after n-1
    insertion steps, as a dict from one-line tuples to rational masses.
    Intended for small n; the expansion is capped at n = 8.
    """
    if k < 1 or n < 1:
        raise UserInputError(f"k and n must be positive, got k={k}, n={n}")
    if n > _TREE_CAP:
        raise UserInputError(f"decision-tree expansion is capped at n = {_TREE_CAP}")
    dist = {(1,): Fraction(1)}
    for m in range(1, n):
        grown: dict[tuple[int, ...], Fraction] = {}
        for p, mass in dist.items():
            d = descent_count(p)
            case1 = Fraction(m + k - d, k * (m + 1))
            case2 = Fraction(k - d - 1, k * (m + 1))
            for j in range(m + 1):
                if j == m or (j > 0 and p[j - 1] > p[j]):
                    step = case1
                else:
                    step = case2
                if step == 0:
                    continue
                tau = insert_symbol(p, j)
                grown[tau] = grown.get(tau, Fraction(0)) + mass * step
        dist = grown
    return dist


def insertion_normalization() -> int:
    """Verify the two-case probabilities sum to one over reachable states.

    Checks (d+1)(n+k-d) + (n-d)(k-d-1) = k(n+1) in exact integers for
    every state with d <= min(n-1, k-1) and n, k <= _NORMALIZATION_MAX
    (50). Returns the number of states verified; raises
    CertificationError on failure.
    """
    checked = 0
    for n in range(1, _NORMALIZATION_MAX + 1):
        for k in range(1, _NORMALIZATION_MAX + 1):
            for d in range(min(n - 1, k - 1) + 1):
                total = (d + 1) * (n + k - d) + (n - d) * (k - d - 1)
                if total != k * (n + 1):
                    raise CertificationError(
                        f"insertion probabilities sum to {Fraction(total, k * (n + 1))} "
                        f"at n={n}, k={k}, d={d}"
                    )
                checked += 1
    return checked
