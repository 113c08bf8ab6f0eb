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
that walk also keeps a descent bitmap, O(n) per row and step.

Every kernel runs its rows in fixed blocks whose temporaries take about
_BLOCK_BYTES, and histograms its values block by block, so a drawn row
costs only the state it carries from step to step: 2 bytes in a walk (d
and the wrap), n+3 in the C/d walk (its (n+1)-byte descent bitmap
besides) and n in the riffle (its word), while a byte holds n; rows that
physical memory cannot hold are refused before any draw. Philox hands
out the same words whether one call draws a batch or consecutive calls
draw it piece by piece, and each kernel draws its blocks in row order,
so a block boundary changes no draw.

Empirical output is summarized against the exact pmfs from
:mod:`shufflestats.measures` via a Pearson chi-square test with
tail-bin merging plus per-bin binomial z-scores, computed once and kept
on the summary.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream_id)``. Each stream draws a fixed, precomputed number of
samples and the per-stream histograms are merged in stream-id order, so
aggregate output is reproducible no matter how the threads are scheduled
or how many run (at most one per CPU; see _THREAD_CELLS). Every kernel
reads raw Philox words, so the bytes rest on Philox alone, not on numpy's
Generator algorithms (NEP 19). A draw among m+1 outcomes of exact
rational masses takes the top 53 bits of a word, u, in regions as wide
as the masses times 2**53, rounded down, the last region taking the rest:
each outcome is within 2**-53 of its mass, the last within (m+2) 2**-53.

numpy and mpmath are imported at their first use and the thread pool
when the streams run, so importing this module loads none of them;
only sampling does.
"""

from __future__ import annotations

import itertools
import math
import os
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
# A kernel block's temporaries take about 4 MiB: the C/d walk makes m numpy calls per
# block and step, so its blocks need thousands of rows to keep up with one whole batch.
_BLOCK_BYTES = 1 << 22
_ROW_BYTES = 48  # temporaries of a row in a per-row pass: draws, bounds, masks, bincount
_GSR_CARD_BYTES = 24  # temporaries of a card in a riffle round: its bit, masks, packet indices
# One thread runs every stream while a stream's numpy calls cover fewer values than this:
# their overhead, which holds the GIL, outweighs their work, and a second thread only contends.
_THREAD_CELLS = 8192
DEFAULT_STREAMS = 8


class SamplerConfig(_Record):
    """Parameters of one sampling run.

    The triple (seed, streams, count) pins the output exactly: the same
    config always produces the same SampleSummary, byte for byte.
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
        if self.count >= 2**63:  # numpy sizes arrays with signed 64-bit ints
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


def _blocks(count: int, row_bytes: int) -> list[slice]:
    """The row blocks of `count` rows for a pass whose temporaries take `row_bytes` a row.

    A block's temporaries take at most about _BLOCK_BYTES; the blocks share
    the rows evenly, the first ones largest, so a pass reuses memory of one
    size from block to block. A block boundary changes no draw (see the
    module docstring), so the block size is not part of the output's contract.
    """
    sizes = _stream_counts(count, -(-count // max(1, _BLOCK_BYTES // row_bytes)))
    starts = itertools.accumulate(sizes, initial=0)
    return [slice(a, a + size) for a, size in zip(starts, sizes)]


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


def _slot_count_dtype(n: int) -> np.dtype:
    return np.min_scalar_type(n + 1)  # holds a running count of up to n+1 slots


def _insertion_walk(
    tables: list[np.ndarray],
    n: int,
    count: int,
    rng: np.random.Generator,
    desc: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(d, last > first) of `count` insertion words, without the words.

    tables is _threshold_tables(k, n). Draws exactly what the word sampler
    _insertion_words(k, n, count, rng) in tests/test_sampler.py draws, and
    the tests hold the two to it. At deck size m each row reads one raw
    word, u = word >> 11: case-2 rank r (an ascent slot, slot 0 first)
    covers [ra, (r+1)a), case-1 rank r (a descent slot, slot m last) starts
    at (m-d)a + rw, and slot m takes the rest up to 2**53. So u < a puts
    the new maximum first, u < (m-d)a raises d and u >= (m-d)a + dw puts
    it last: three comparisons a row and step follow d and whether the
    last symbol exceeds the first.

    Rows run in blocks (see _blocks); each step draws its blocks' words in
    row order. A row keeps d (in the smallest unsigned dtype that holds n)
    and the wrap.

    A zeroed (n+1, count) bool `desc` gets desc[s, row] = word[s-1] > word[s]
    for each inner slot s, with slot 0 an ascent and slot m a descent. The
    slot taken is the ascent slot of rank u // a in case 2, the descent slot
    of rank min((u - (m-d)a) // w, d) in case 1. Taking slot j moves the
    slots past j down one row; then j ascends and j+1 descends.
    """
    d = np.zeros(count, dtype=np.min_scalar_type(n))
    wrap = np.zeros(count, dtype=bool)
    blocks = _blocks(count, _ROW_BYTES if desc is None else _ROW_BYTES + 2 * (n + 1))
    index, bound, hit = (np.empty(blocks[0].stop, dtype=t) for t in (np.intp, np.uint64, bool))
    if desc is not None:
        desc[1] = True
        flat = desc.reshape(-1)
        # Per block: running slot counts, then the slots that shift.
        counts = np.empty((n, blocks[0].stop), dtype=_slot_count_dtype(n))
        shifts = np.empty((n, blocks[0].stop), dtype=bool)
    for m, table in enumerate(tables, start=1):
        low, case1_start, last, _ = table
        widths = table[[0, 3]].reshape(-1)  # a then w, each d's case-2 and case-1 widths
        for blk in blocks:
            rows = blk.stop - blk.start
            d_blk, wrap_blk, i, b, h = d[blk], wrap[blk], index[:rows], bound[:rows], hit[:rows]
            u = rng.bit_generator.random_raw(rows)
            u >>= 64 - _THRESHOLD_BITS
            np.copyto(i, d_blk)
            wrap_blk &= np.greater_equal(u, low.take(i, out=b, mode="clip"), out=h)
            wrap_blk |= np.greater_equal(u, last.take(i, out=b, mode="clip"), out=h)
            if desc is not None:
                np.minimum(u, b, out=u)  # slot m's values all read as its start, rank d
            case1 = np.greater_equal(u, case1_start.take(i, out=b, mode="clip"), out=h)
            d_blk += ~case1
            if desc is None:
                continue
            u -= b * case1  # b holds where case 1 starts
            u //= widths.take(i + low.shape[0] * case1, out=b, mode="clip")
            # Running count of qualifying slots, row by row: a cumsum along
            # axis 0 is many times slower. Slot j is the (t+1)-th to qualify.
            q = np.equal(desc[: m + 1, blk], case1, out=counts[: m + 1, :rows])
            prev = q[0]
            for cur in q[1:]:
                np.add(cur, prev, out=cur)
                prev = cur
            before = np.less_equal(q, u.astype(q.dtype), out=q)  # 1 on the slots before j
            slot, next_slot = desc[: m + 1, blk], desc[1 : m + 2, blk]
            moved = np.not_equal(next_slot, slot, out=shifts[: m + 1, :rows])
            np.greater(moved, before, out=moved)
            np.bitwise_xor(next_slot, moved, out=next_slot)
            # Summed in the slot dtype; count_nonzero accumulates in intp, several times slower.
            at = np.add.reduce(before, axis=0, dtype=q.dtype).astype(np.int64) * count
            at += np.arange(blk.start, blk.stop)
            flat[at] = False
            flat[at + count] = True
    return d, wrap


def _cut_descents(
    tables: list[np.ndarray], n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """d of `count` insertion words, each cut before a uniform position s drawn after it.

    The cut turns the pair across slot s into the wrap (at s = 0, the wrap
    itself). Once the walk is done, s reads one raw word a row: each s < n-1
    covers floor(2**53 / n) values of u = word >> 11 and s = n-1 the rest.
    """
    desc = np.zeros((n + 1, count), dtype=bool)
    d, wrap = _insertion_walk(tables, n, count, rng, desc)
    desc[0] = wrap
    for blk in _blocks(count, _ROW_BYTES):
        u = rng.bit_generator.random_raw(blk.stop - blk.start) >> (64 - _THRESHOLD_BITS)
        shift = np.minimum(u // (_SCALE // n), n - 1)
        d[blk] += wrap[blk]
        d[blk] -= desc[shift, np.arange(blk.start, blk.stop)]
    return d


def _gsr_words(n: int, rounds: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized r-round riffle of `count` sorted decks.

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
    or the machine's byte order. A round draws its blocks' words in row
    order, as one call per round would. A row keeps only its word, in the
    smallest dtype that holds n.
    """
    words = np.tile(np.arange(1, n + 1, dtype=np.min_scalar_type(n)), (count, 1))
    per_row = -(-n // 64)
    cards = np.arange(n, dtype=words.dtype)
    for _ in range(rounds):
        for blk in _blocks(count, _GSR_CARD_BYTES * n):
            raw = rng.bit_generator.random_raw((blk.stop - blk.start) * per_row)
            # As little-endian bytes, bit i of a deck's bits is bit i % 8 of its byte i // 8.
            octets = raw.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8 * per_row)
            bottom = np.unpackbits(octets, axis=1, count=n, bitorder="little").view(bool)
            tops = (n - np.count_nonzero(bottom, axis=1)).astype(words.dtype)
            first = cards < tops[:, None]  # the top packet
            # Each packet's cards fill its positions in order, deck by deck.
            bottom, first, word = bottom.reshape(-1), first.reshape(-1), words[blk].reshape(-1)
            top_cards, bottom_cards = word[first], word[~first]
            # Masks gather, but index arrays scatter: masked assignment ran 2-3x slower at n = 52.
            word[np.flatnonzero(~bottom)], word[np.flatnonzero(bottom)] = top_cards, bottom_cards
    return words


def _descents_per_row(words: np.ndarray) -> np.ndarray:
    return (words[:, :-1] > words[:, 1:]).sum(axis=1)


def _inverse_descents(words: np.ndarray) -> np.ndarray:
    """Descent count of the inverse of each row."""
    n = words.shape[1]
    inv = np.empty_like(words)
    np.put_along_axis(inv, words - 1, np.arange(1, n + 1, dtype=words.dtype)[None, :], axis=1)
    return _descents_per_row(inv)


def _merged(parts: list[np.ndarray]) -> np.ndarray:
    """Sum of histograms of differing lengths."""
    merged = np.zeros(max(part.shape[0] for part in parts), dtype=np.int64)
    for part in parts:
        merged[: part.shape[0]] += part
    return merged


def _tally(count: int, row_bytes: int, values: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Histogram of values(block) over the row blocks of `count` rows."""
    return _merged([np.bincount(values(blk)) for blk in _blocks(count, row_bytes)])


def exact_statistic_pmf(measure: str, k: int, n: int, statistic: str) -> ExactPmf:
    """statistic_law(measure, statistic).pmf(k, n), kept as the benchmark's entry point."""
    return statistic_law(measure, statistic).pmf(k, n)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_streams(
    config: SamplerConfig,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    row_bytes: int,
    row_cells: int = 1,
) -> np.ndarray:
    """Merge the streams' histograms of drawn statistic values in id order.

    Streams are the logical split of the sample; at most one thread per
    CPU runs them, which changes no draw. Streams with id >= count get
    no draws, so they are not run. A drawn row carries row_bytes (see
    _check_memory) and row_cells values, which a kernel's numpy calls
    cover for each row of a stream (see _THREAD_CELLS).
    """
    _check_memory(config.count, row_bytes)
    chunks = _stream_counts(config.count, min(config.streams, config.count))

    def run(sid: int) -> np.ndarray:
        return draw(_stream_generator(config.seed, sid), chunks[sid])

    from concurrent.futures import ThreadPoolExecutor

    workers = min(len(chunks), _usable_cpus()) if chunks[0] * row_cells >= _THREAD_CELLS else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _merged(list(pool.map(run, range(len(chunks)))))


def _check_memory(count: int, row_bytes: int) -> None:
    """Refuse rows past physical memory; skipped where os.sysconf cannot report it."""
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

    def draw(rng: np.random.Generator, chunk: int) -> np.ndarray:
        if cut_walk:
            d = _cut_descents(tables, n, chunk, rng)
        else:
            # c is rotation invariant and the cut is the stream's last draw,
            # so the cut is left undrawn and c = d + [last > first].
            d, wrap = _insertion_walk(tables, n, chunk, rng)

        def values(blk: slice) -> np.ndarray:
            read = d[blk] + wrap[blk] if law.reads == "c" else d[blk]
            return read if law.flavor is None else distance[read]

        return _tally(chunk, _ROW_BYTES, values)

    carried = np.min_scalar_type(n).itemsize + 1 + cut_walk * (n + 1)  # d, wrap, bitmap
    return _summarize(_run_streams(config, draw, carried), exact, config.count)


def riffle_summary(n: int, rounds: int, count: int, seed: int) -> SampleSummary:
    """Riffle sorted decks `rounds` times and fit inverse descent counts.

    This is the physical-simulation counterpart of sample_statistic: the
    decks are riffled, each result is inverted, and the inverse descent
    histogram is tested against d_pmf_R(2**rounds, n). The draws run in
    SamplerConfig's default 8 streams, so the seed alone fixes them; the
    rounds read raw Philox words, so the bytes rest on Philox alone, not
    on numpy's Generator algorithms (NEP 19).
    """
    config = SamplerConfig(k=riffle_piles(rounds), n=n, count=count, seed=seed)
    exact = d_pmf_R(config.k, n)

    def draw(rng: np.random.Generator, chunk: int) -> np.ndarray:
        words = _gsr_words(n, rounds, chunk, rng)
        return _tally(chunk, _GSR_CARD_BYTES * n, lambda blk: _inverse_descents(words[blk]))

    carried = n * np.min_scalar_type(n).itemsize  # a deck's word
    return _summarize(_run_streams(config, draw, carried, row_cells=n), exact, config.count)


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
