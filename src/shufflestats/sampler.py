"""Random generation of shuffled permutations, with exact reference checks.

Two independent samplers live here, each one vectorised kernel over a
batch of words. The first grows a permutation one symbol at a time
through weighted insertions; after n-1 steps the result carries the
k-shuffle law exactly, with no rejection and no enumeration. The second
simulates the physical riffle, one fair bit a card and round, and exists
to cross-validate the first.

No row builds the insertion words; the word sampler that does is the
walks' reference in tests/test_sampler.py. R/d, C/c and both parsimony
rows read only the descent count d and whether the last symbol exceeds
the first (c = d + [last > first]), so they walk those two per row,
O(n) per draw, reading the very words the word sampler reads. The d of
a C/d word cut after it is drawn depends on where its descents sit, so
that walk keeps each row's descent slots too, O(n min(n, k)) a draw.

A run cuts its rows into blocks of about _BLOCK_BYTES of temporaries
(see _blocks). A kernel call draws every step of one block, whose
histogram is then taken, so a run holds a few blocks at a time,
whatever its count.

Empirical output is summarized against the exact pmfs from
:mod:`shufflestats.measures` via a Pearson chi-square test with
tail-bin merging plus per-bin binomial z-scores, computed once and kept
on the summary.

Each block draws from a counter-based Philox generator keyed by
``(seed, block)`` (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011), and its rows depend only on the count and n. So the
seed and the count alone fix the output, the block size being part of
that contract; the threads that add the blocks' histograms do not.
Every kernel reads raw Philox words, so the bytes rest on Philox alone,
not on numpy's Generator algorithms (NEP 19). A draw among m+1 outcomes of exact
rational masses takes the top 53 bits of a word, u, in regions as wide
as the masses times 2**53, rounded down, the last region taking the rest:
each outcome is within 2**-53 of its mass, the last within (m+2) 2**-53.

numpy and mpmath are imported at their first use and the thread pool
when the blocks run, so importing this module loads none of them;
only sampling does.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from fractions import Fraction
from typing import Callable, Mapping

from .errors import CertificationError, UserInputError, _LazyModule, _Record
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
# Bytes of a block's temporaries; they set its rows, and so the output.
_BLOCK_BYTES = 1 << 21
_ROW_BYTES = 48  # temporaries of a row in a per-row pass: draws, bounds, masks, bincount
_GSR_CARD_BYTES = 24  # temporaries of a card in a riffle round: its bit, masks, packet indices
DEFAULT_STREAMS = 8
_WORKER = threading.local()  # .arrays: those a run's worker thread reuses (see _reused)


class SamplerConfig(_Record):
    """Parameters of one sampling run.

    The seed and the count pin the draws: the same k, n, seed and count
    always produce the same SampleSummary, byte for byte. streams only
    caps the worker threads, which changes no draw.
    """

    k: int
    n: int
    count: int
    seed: int
    streams: int = DEFAULT_STREAMS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.k < 1:
            raise UserInputError(f"k must be a positive integer, got {self.k}")
        if self.n < 1:
            raise UserInputError(f"n must be a positive integer, got {self.n}")
        if self.count < 1:
            raise UserInputError(f"count must be positive, got {self.count}")
        if self.count >= 2**63:  # an input bound, exit 2; arrays are sized by block, not by count
            raise UserInputError(f"count must be below 2**63, got {self.count}")
        if self.streams < 1:
            raise UserInputError(f"streams must be positive, got {self.streams}")
        if not 0 <= self.seed < 2**64:
            raise UserInputError("seed must fit in an unsigned 64-bit integer")


class SampleSummary(_Record):
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


def _stream_generator(seed: int, block: int) -> np.random.Generator:
    """Philox generator of one block, keyed by (seed, block)."""
    # A uint64 array: numpy reads a plain list of ints >= 2**63 as float64.
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(count: int, row_bytes: int) -> list[slice]:
    """The row blocks of `count` rows for a kernel whose temporaries take `row_bytes` a row.

    A block's temporaries take at most about _BLOCK_BYTES; the blocks share
    the rows evenly, the first ones largest, so a run reuses memory of one
    size from block to block. Block b draws from its own generator (see
    the module docstring), so these rows are part of the output's contract.
    """
    blocks = -(-count // max(1, _BLOCK_BYTES // row_bytes))
    base, extra = divmod(count, blocks)
    starts = itertools.accumulate((base + (b < extra) for b in range(blocks)), initial=0)
    return [slice(a, b) for a, b in itertools.pairwise(starts)]


def _threshold_tables(k: int, n: int) -> list[np.ndarray]:
    """Region bounds of the walk's steps m = 1 .. n-1, built once per run.

    At deck size m with d descents and K = k(m+1), each of the m-d case-2
    slots is a = floor((k-d-1) 2**53 / K) values of u wide, each of the d+1
    case-1 slots w = floor((m+k-d) 2**53 / K). Step m's table has rows
    (a, (m-d)a, (m-d)a + dw, w), the last two where case 1 and slot m
    start, and a column per reachable d < min(m, k). As floor(x 2**53 / K)
    = floor(floor(x 2**53 / k) / (m+1)), only 2n inner floors take big
    integers; w's, J 2**53 + g with g < 2**53, divide in 64 bits as
    Jq + (Jr + g) // (m+1), where 2**53 = q(m+1) + r.
    """
    sizes = [min(m, k) for m in range(1, n)]
    ends = list(itertools.accumulate(sizes, initial=0))
    d = np.arange(ends[-1], dtype=np.uint64) - np.repeat(np.array(ends[:-1], np.uint64), sizes)
    step = np.repeat(np.arange(2, n + 1, dtype=np.uint64), sizes)  # m+1
    ascents = step - 1 - d  # m-d
    a = np.array([(k - 1 - e) * _SCALE // k for e in range(min(n - 1, k))], np.uint64)[d] // step
    j, g = np.array([(1 + e // k, e % k * _SCALE // k) for e in range(n)], np.uint64)[ascents].T
    w = j * (_SCALE // step) + (j * (_SCALE % step) + g) // step
    table = np.stack([a, ascents * a, ascents * a + d * w, w])
    return [table[:, lo:hi] for lo, hi in zip(ends, ends[1:])]


def _reused(name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of this shape, whose memory a run's worker keeps under `name`.

    A worker counts each block before it draws the next, the first the largest, so its
    blocks share arrays: made afresh each block, they were paged in anew (R/d: 4x the faults).
    """
    work = getattr(_WORKER, "arrays", None)
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def _insertion_walk(
    tables: list[np.ndarray],
    n: int,
    rows: int,
    rng: np.random.Generator,
    lists: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(d, last > first) of a block of `rows` insertion words, without the words.

    tables is _threshold_tables(k, n). Draws exactly what the word sampler
    _insertion_words(k, n, rows, rng) in tests/test_sampler.py draws, and
    the tests hold the two to it. At deck size m each row reads one raw
    word, u = word >> 11: case-2 rank r (an ascent slot, slot 0 first)
    covers [ra, (r+1)a), case-1 rank r (a descent slot, slot m last) starts
    at (m-d)a + rw, and slot m takes the rest up to 2**53. So u < a puts
    the new maximum first, u < (m-d)a raises d and u >= (m-d)a + dw puts
    it last: three comparisons a row and step follow d and whether the
    last symbol exceeds the first. A row keeps d, in the smallest unsigned
    dtype that holds n, and the wrap (see _reused).

    A (min(n-1, k-1), rows) `lists` of n+1, its dtype holding 2n, gets each
    row's inner descent slots P[0] < ... < P[d-1] (word[s-1] > word[s]) as
    Q[i] = P[i] - i, the ascent slots before P[i], and n+1 past them. The
    slot taken has rank t: u // a in case 2, min((u - (m-d)a) // w, d) in
    case 1. Case 2 adds a descent after the ascent slot of rank t: Q' =
    max(min(Q, t+1), Q one entry down). Case 1 moves P[t] and the later
    descents up a slot (rank d is slot m): Q'[i] = Q[i] + [i >= t], unused
    entries too, up to 2n. Step m touches min(m, width) entries.
    """
    dtypes = dict(d=np.min_scalar_type(n), wrap=bool, index=np.intp, bound=np.uint64, hit=bool)
    d, wrap, index, bound, hit = (_reused(name, (rows,), t) for name, t in dtypes.items())
    d[:], wrap[:] = 0, False
    if lists is not None:
        width, kind = lists.shape[0], lists.dtype
        t, cap, lo = _reused("rank", (3, rows), kind)
        ranks = np.arange(width, dtype=kind)[:, None]
        q, spare = lists, _reused("spare", lists.shape, kind)
        spare[...] = n + 1
    for m, table in enumerate(tables, start=1):
        low, case1_start, last, _ = table
        u = rng.bit_generator.random_raw(rows)
        u >>= 64 - _THRESHOLD_BITS
        np.copyto(index, d)
        wrap &= np.greater_equal(u, low.take(index, out=bound, mode="clip"), out=hit)
        wrap |= np.greater_equal(u, last.take(index, out=bound, mode="clip"), out=hit)
        if lists is not None:
            np.minimum(u, bound, out=u)  # slot m's values all read as its start, rank d
        case1 = np.greater_equal(u, case1_start.take(index, out=bound, mode="clip"), out=hit)
        d += ~case1
        if lists is None:
            continue
        u -= np.multiply(bound, case1, out=bound)  # bound held where case 1 starts
        # bound's memory, free again, holds each row's column of widths, then its width.
        index += np.multiply(case1, low.shape[0], out=bound.view(np.intp))
        widths = table[[0, 3]].reshape(-1).astype(np.float64)  # each d's a, then its w
        ratio = widths.take(index, out=bound.view(np.float64), mode="clip")
        # Below 2**53 every u and width is a double, and the rounded quotient floors exactly.
        np.copyto(t, np.divide(u.view(np.int64), ratio, out=ratio), casting="unsafe")
        # Case 2 caps Q at t+1 and steps no entry up; case 1 keeps Q and steps i >= t up.
        np.maximum(np.add(t, 1, out=cap), np.multiply(case1, kind.type(n + 1), out=lo), out=cap)
        np.maximum(np.multiply(~case1, kind.type(width), out=lo), t, out=lo)
        h = min(m, width)
        new = np.minimum(q[:h], cap, out=spare[:h])
        np.maximum(new[1:], q[: h - 1], out=new[1:])
        new += np.greater_equal(ranks[:h], lo, out=q[:h])
        q, spare = spare, q
    if lists is not None:
        np.minimum(q, n + 1, out=lists)  # case 1 stepped up the unused entries too
    return d, wrap


def _cut_descents(
    tables: list[np.ndarray], n: int, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """d of a block of `rows` insertion words, each cut before a uniform position s drawn after it.

    The cut turns the pair across slot s into the wrap: at s = 0 the wrap
    itself, else a descent iff some P[i] = Q[i] + i is s. Once the walk is
    done, s reads one raw word a row: each s < n-1 covers floor(2**53 / n)
    values of u = word >> 11 and s = n-1 the rest.
    """
    # min(n-1, k-1): the last table's columns, less its last where that is d = k-1 (a = 0).
    width = 0 if n < 2 else tables[-1].shape[1] - int(tables[-1][0, -1] == 0)
    kind = np.min_scalar_type(2 * n)
    lists = _reused("lists", (width, rows), kind)
    lists[...] = n + 1
    d, wrap = _insertion_walk(tables, n, rows, rng, lists)
    u = rng.bit_generator.random_raw(rows) >> (64 - _THRESHOLD_BITS)
    shift = np.minimum(u // (_SCALE // n), n - 1).astype(kind)
    hits = np.add(lists, np.arange(width, dtype=kind)[:, None], out=lists)
    hits = np.equal(hits, shift, out=hits)
    d += wrap & (shift != 0)
    d -= np.maximum.reduce(hits, axis=0, initial=0)
    return d


def _gsr_words(n: int, rounds: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized r-round riffle of a block of `rows` sorted decks.

    The physical (Gilbert-Shannon-Reeds) riffle cuts at a Binomial(n, 1/2)
    position, then drops cards from the bottoms of the two packets with
    probability proportional to the packets' current sizes, so every
    (cut, interleaving) pair has probability 2^-n (Bayer and Diaconis
    1992). n fair bits a deck draw exactly that: bit i set sends position
    i the next card of the bottom packet. The zero bits count
    Binomial(n, 1/2), and given their count every set of top positions
    is equally likely.

    The bits are raw Philox words, ceil(n/64) a row and round: position i
    reads bit i mod 64 of the row's word i // 64, by value, so the bytes
    rest on the Philox stream alone, not on numpy's Generator algorithms
    or the machine's byte order. A row keeps only its word, in the
    smallest dtype that holds n (see _reused).
    """
    words = _reused("words", (rows, n), np.min_scalar_type(n))
    words[...] = np.arange(1, n + 1)
    per_row = -(-n // 64)
    cards = np.arange(n, dtype=words.dtype)
    flat = words.reshape(-1)
    for _ in range(rounds):
        raw = rng.bit_generator.random_raw(rows * per_row)
        # As little-endian bytes, bit i of a deck's bits is bit i % 8 of its byte i // 8.
        octets = raw.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8 * per_row)
        bottom = np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)
        tops = (n - np.count_nonzero(bottom, axis=1)).astype(words.dtype)
        first = cards < tops[:, None]  # the top packet
        # Each packet's cards fill its positions in order, deck by deck.
        bottom, first = bottom.reshape(-1), first.reshape(-1)
        top_cards, bottom_cards = flat[first], flat[~first]
        # Masks gather, but index arrays scatter: masked assignment ran 2-3x slower at n = 52.
        flat[np.flatnonzero(~bottom)], flat[np.flatnonzero(bottom)] = top_cards, bottom_cards
    return words


def _descents_per_row(words: np.ndarray) -> np.ndarray:
    return (words[:, :-1] > words[:, 1:]).sum(axis=1)


def _inverse_descents(words: np.ndarray) -> np.ndarray:
    """Descent count of the inverse of each row."""
    n = words.shape[1]
    inv = np.empty_like(words)
    np.put_along_axis(inv, words - 1, np.arange(1, n + 1, dtype=words.dtype)[None, :], axis=1)
    return _descents_per_row(inv)


def _added(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Sum of two histograms of possibly differing lengths, in the longer one."""
    if total.shape[0] < part.shape[0]:
        total, part = part, total
    total[: part.shape[0]] += part
    return total


def exact_statistic_pmf(measure: str, k: int, n: int, statistic: str) -> ExactPmf:
    """statistic_law(measure, statistic).pmf(k, n), kept as the benchmark's entry point."""
    return statistic_law(measure, statistic).pmf(k, n)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(
    config: SamplerConfig, draw: Callable[..., np.ndarray], row_bytes: int
) -> np.ndarray:
    """Sum of the histograms that draw(rng, rows) gives for each block of the run.

    Block b of _blocks(count, row_bytes) draws from _stream_generator(seed, b).
    Thread t of min(streams, CPUs, blocks) runs the blocks b = t modulo their
    number; integer histograms add in any order, so the threads change no byte.
    """
    blocks = _blocks(config.count, row_bytes)
    workers = min(config.streams, _usable_cpus(), len(blocks))

    def run(first: int) -> np.ndarray:
        _WORKER.arrays = {}  # freed with the pool's thread, at the end of the run
        parts = (
            draw(_stream_generator(config.seed, b), blocks[b].stop - blocks[b].start)
            for b in range(first, len(blocks), workers)
        )
        return functools.reduce(_added, parts)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return functools.reduce(_added, pool.map(run, range(workers)))


def _check_memory(count: int, row_bytes: int) -> None:
    """Refuse rows past physical memory; skipped where os.sysconf cannot report it.

    A run holds only a few blocks, so this stands in for the work budget on --count
    that ROADMAP item 1 plans: such a count would take practically forever to draw.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if count * row_bytes > memory:
        raise UserInputError(
            f"--count {count} needs {count * row_bytes} bytes of sampler state, "
            f"more than the {memory} bytes of physical memory"
        )


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
    den = exact.den
    bins = [[float(observed[v]), count * (a / den)] for v, a in zip(support, exact.nums)]
    while len(bins) > 1 and min(exp for _, exp in bins) < _MIN_EXPECTED:
        i = min(range(len(bins)), key=lambda idx: bins[idx][1])
        # The smaller neighbour; the left one on a tie.
        j = min((j for j in (i - 1, i + 1) if 0 <= j < len(bins)), key=lambda j: bins[j][1])
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
    histogram = dict(enumerate(bin_counts.tolist()))
    observed = {v: histogram.pop(v, 0) for v in exact.support}
    stray = {v: c for v, c in histogram.items() if c}
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
    cut_walk = measure == "C" and law.reads == "d"
    exact = law.pmf(k, n)
    tables = _threshold_tables(k, n)
    if law.flavor is not None:
        # Parsimony distance of each read value; slot 0 is 0 (c is never 0).
        distance = np.array(
            [parsimony_distance(s, law.flavor) if s else 0 for s in range(n)],
            dtype=np.int64,
        )

    def draw(rng: np.random.Generator, rows: int) -> np.ndarray:
        if cut_walk:
            d = _cut_descents(tables, n, rows, rng)
        else:
            # c is rotation invariant and the cut is the block's last draw,
            # so the cut is left undrawn and c = d + [last > first].
            d, wrap = _insertion_walk(tables, n, rows, rng)
            if law.reads == "c":
                d += wrap
        return np.bincount(d if law.flavor is None else distance[d])

    # C/d's n + 1 is the size of a descent bitmap the walk no longer keeps (no
    # row state outlives its block); it holds the exit-2 count threshold where it was.
    _check_memory(config.count, np.min_scalar_type(n).itemsize + 1 + cut_walk * (n + 1))
    row_bytes = _ROW_BYTES + cut_walk * 2 * (n + 1)  # C/d: sets its rows, not its memory
    return _summarize(_run_blocks(config, draw, row_bytes), exact, config.count)


def riffle_summary(n: int, rounds: int, count: int, seed: int) -> SampleSummary:
    """Riffle sorted decks `rounds` times and fit inverse descent counts.

    This is the physical-simulation counterpart of sample_statistic: the
    decks are riffled, each result is inverted, and the inverse descent
    histogram is tested against d_pmf_R(2**rounds, n). As there, the
    seed and the count alone fix the draws, on up to SamplerConfig's
    default of 8 threads; the rounds read raw Philox words, so the bytes
    rest on Philox alone, not on numpy's Generator algorithms (NEP 19).
    """
    config = SamplerConfig(k=riffle_piles(rounds), n=n, count=count, seed=seed)
    exact = d_pmf_R(config.k, n)

    def draw(rng: np.random.Generator, rows: int) -> np.ndarray:
        return np.bincount(_inverse_descents(_gsr_words(n, rounds, rows, rng)))

    _check_memory(count, n * np.min_scalar_type(n).itemsize)  # a deck's word
    return _summarize(_run_blocks(config, draw, _GSR_CARD_BYTES * n), exact, count)


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
