"""Photon-stream analysis: reconstruction, rate estimation, detection.

Classifying each photon as its pair's first or second emission turns a
stream back into populations, with no reference to the generating rates:

    n(t)   = n0 - N1_or(t) - N1_pa(t)
    n_h(t) = N1_H(t) - N2_h(t)          (H = companion of h)
    N_h(t) = N1_h(t) + N2_h(t)

where N1/N2 are cumulative first/second counts by species.  On exact data
these invert the histogram identically, integer for integer.

Rates come from maximum likelihood on exponential samples: the first-emission
times estimate the disentangling rate gamma_t, and the delays between a
second emission and its pair's first estimate the free rate of the surviving
species, each with standard error rate / sqrt(count).

Detection asks whether a stream of photon counts could have come from a
never-entangled (product) preparation.  A single species' cumulative curve
is useless for this at W = 0: n(t) + n_h(t) = n0 exp(-gamma_h t) holds
exactly there, so each species' photon record matches the product model even
though the pair is entangled.  What a product preparation cannot do is emit
both species: it decays n0 atoms of one species only.  The detector
therefore scores the stream against each one-species product hypothesis by
the worse of two sup-norm distances, the same-species gap to
n0 (1 - exp(-gamma_s t)) and the companion-species photon mass, and takes
the best (smallest) hypothesis score as its statistic.  Product data fits
its own hypothesis at fluctuation scale 1/sqrt(n0); entangled data puts
half its photons in the companion species of every hypothesis, pinning the
statistic near one.  The verdict bands the statistic against a threshold,
by default three times the 95% Kolmogorov fluctuation scale 1.36/sqrt(n0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from ._rules import _Lookup, _exact, _instance, _integer, _quote, _real, _validate_grid
from .errors import (
    DataError,
    DomainError,
    InsufficientDataError,
    UnclassifiableError,
)
from .kinetics import PopulationCurve, _model
from .montecarlo import (
    FIRST_CODE,
    PA_CODE,
    SECOND_CODE,
    SPECIES_CODE,
    UNKNOWN_CODE,
    UNKNOWN_PAIR,
    EventStream,
    _blocks,
    _nondecreasing,
    _time_order,
)
from .rates import RateSet, Species

__all__ = [
    "MIN_PAIRS_DEFAULT",
    "KS_COEFF",
    "THRESHOLD_SAFETY",
    "ClassifiedCounts",
    "RateEstimates",
    "Verdict",
    "DetectionVerdict",
    "classify",
    "reconstruct",
    "erase_identities",
    "estimate_rates",
    "default_threshold",
    "product_model_distance",
    "detect",
]

MIN_PAIRS_DEFAULT = 100

# 95% two-sided Kolmogorov fluctuation coefficient, and the safety factor
# that separates the verdict bands from ordinary statistical noise
KS_COEFF = 1.36
THRESHOLD_SAFETY = 3.0

# rows per detect segment: the unit whose gap is bounded from its first and
# last rows, and read only when the bound can reach the supremum
_SEGMENT = 128
# rows per chunk of refined segments in detect and of segments read by
# classify: 256 KB of float64
_CHUNK = 1 << 15
# the slack by which a segment's bound may fall short of an exact gap and
# the segment still be read: far above the few ulps by which rounding can
# move a computed model value
_MARGIN = 1e-9


@dataclass(frozen=True)
class ClassifiedCounts:
    """Cumulative first/second emission counts by species on a time grid."""

    grid: np.ndarray
    n1_or: np.ndarray
    n1_pa: np.ndarray
    n2_or: np.ndarray
    n2_pa: np.ndarray
    n0: int

    def __post_init__(self) -> None:
        grid = _validate_grid(self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "n0", _integer(self.n0, "n0", 1, bits=63))
        for name in ("n1_or", "n1_pa", "n2_or", "n2_pa"):
            arr = _exact(getattr(self, name), np.int64, name)
            if arr.shape != grid.shape:
                raise DomainError(f"{name} must match the grid shape")
            if arr[0] < 0 or np.any(np.diff(arr) < 0):
                raise DomainError(f"{name} must be non-negative and non-decreasing")
            object.__setattr__(self, name, arr)
        if np.any(self.n1_or + self.n1_pa > self.n0):
            raise DomainError("more first emissions than pairs")

    def photons(self, h: Species) -> np.ndarray:
        """Cumulative species-h photons, first plus second emissions."""
        if _instance(h, Species, "h") is Species.OR:
            return self.n1_or + self.n2_or
        return self.n1_pa + self.n2_pa


def _ordered(events: EventStream) -> tuple:
    """The stream's (time, species, order) columns in time order (its own when
    its time never decreases, else _time_order's key sort and gathers, 10
    B/row with the time column in the sort's own key buffer), then the first
    time of each _SEGMENT-row segment followed by the last time, and the
    prefix table: read-only int64, one row per species code, holding that
    species' rows before each segment, then in all.  Found once per stream
    and kept in its __dict__, as the pair join is, so no later detect gathers
    or counts a segment to bound it."""
    memo = vars(events)
    if "_ordered" not in memo:
        time, species, order = events.time, events.species, events.order
        if not _nondecreasing(time):
            # an erased order column, one value at stride 0, comes back as it is
            time, species, order = _time_order(time, (species, order))
        pa = _prefix_sums(species)
        # rows OR_CODE (0) and PA_CODE (1): the rows that are not pa are or
        prefix = np.stack((np.minimum(np.arange(pa.size) * _SEGMENT, time.size) - pa, pa))
        prefix.flags.writeable = False
        memo["_ordered"] = time, species, order, np.append(time[::_SEGMENT], time[-1:]), prefix
    return memo["_ordered"]


def _prefix_sums(codes: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The 0/1 codes, ANDed with mask's when it is given, summed before each
    _SEGMENT-row segment, then in all: read-only int64, one longer than the
    segments.  One np.add.reduceat per _CHUNK rows sums their segments,
    exact in uint8, so the AND needs no temporary longer than a block."""
    prefix = np.zeros(-(-codes.size // _SEGMENT) + 1, dtype=np.int64)
    for lo in range(0, codes.size, _CHUNK):
        block = codes[lo : lo + _CHUNK]
        if mask is not None:
            block = block & mask[lo : lo + _CHUNK]
        firsts = np.arange(0, block.size, _SEGMENT)
        k = 1 + lo // _SEGMENT
        np.add.reduceat(block, firsts, dtype=np.uint8, out=prefix[k : k + firsts.size])
    np.cumsum(prefix, out=prefix)
    prefix.flags.writeable = False
    return prefix


def _tallies(events: EventStream) -> tuple:
    """The pa row of the view's prefix table, then _prefix_sums of the
    second rows and the second pa rows of the stream's time-ordered view:
    with the segments' first rows they count every category before each
    segment.  Found on the stream's first classify and kept in its __dict__
    beside the view, so a caller that only detects never pays for them."""
    memo = vars(events)
    if "_tallies" not in memo:
        _, species, order, _, prefix = _ordered(events)
        memo["_tallies"] = prefix[PA_CODE], _prefix_sums(order), _prefix_sums(species, order)
    return memo["_tallies"]


def _pair_join(events: EventStream, n0: int) -> list:
    """The pair checks, then the first-emission count and time sum and, per
    survivor species (or, pa), the second-emission count and delay sum.

    The one owner of the pair checks, in this order: intact identities, a
    positive integer n0, pair ids inside [0, n0), no pair with two firsts or
    two seconds, a first for every second, of the companion species and not
    later than the second.  The join does not depend on n0: it is computed
    once per stream and kept in its __dict__ as scalars (the pair-id count,
    then its first error or its sums), or as None when identities are erased,
    which its read-only columns keep valid.
    """
    memo = vars(_instance(events, EventStream, "events"))
    if "_pair_join" not in memo:
        memo["_pair_join"] = _join(events) if events.has_identities else None
    if memo["_pair_join"] is None:
        raise UnclassifiableError("stream has erased pair identities")
    n0 = _integer(n0, "n0", 1, bits=63)
    n_ids, error, *sums = memo["_pair_join"]
    if n_ids > n0:
        raise DataError("pair ids must lie in [0, n0)")
    if error is not None:
        raise DataError(error)
    return sums


@np.errstate(over="ignore")  # a sum past the float range is inf; estimate_rates refuses it
def _join(events: EventStream) -> tuple:
    # (pair-id count, first structural error or None, then _pair_join's
    # sums).  Two passes over _BLOCK-row blocks: the first scatters each
    # pair's first row and gathers the first times, the second gathers each
    # second's first and its delay.  Each check is tallied over every block
    # and the first failed one in check order is reported.  A sum is taken
    # over one contiguous array of its terms in row order, the bits of the
    # whole-stream sum, not pairwise sums of per-block sums.  Gathers by rows
    # that flatnonzero found take mode="clip", which skips a buffered copy.
    # Beyond a block the tables below hold about 7.5 B/row at 1e6 pairs, and
    # 6 on a product stream, whose time column already is its first times.
    pid, species, time, order = events.pair_id, events.species, events.time, events.order
    n = pid.size
    n_ids = int(pid.max(initial=UNKNOWN_PAIR)) + 1
    if n_ids > n:
        # sparse ids, relabelled 0..k-1 so that the tables below are bounded
        # by the stream however large the ids are
        pid = np.unique(pid, return_inverse=True)[1]
    # each pair's first-emission row, -1 where it has none; sized by the
    # stream, not by n0, so a short stream needs no n0-long scratch array,
    # and int32 while rows fit, which halves the scatter's and gather's bytes
    first_row = np.full(min(n_ids, n), -1, dtype=np.int32 if n < 2**31 else np.intp)
    n_second = int(np.count_nonzero(order))  # FIRST_CODE is 0, SECOND_CODE 1
    # every row of a stream without seconds is a first, in row order
    first_time = time if not n_second else np.empty(n - n_second)
    n_pa = f = 0
    for s in _blocks(n):
        o = order[s]
        r1 = np.flatnonzero(o == FIRST_CODE)
        if n_second:
            np.take(time[s], r1, out=first_time[f : f + r1.size], mode="clip")
            f += r1.size
            n_pa += int(np.count_nonzero(o & species[s]))  # PA_CODE is 1
        np.put(first_row, pid[s].take(r1), r1 + s.start)
    if np.count_nonzero(first_row >= 0) != first_time.size:
        return n_ids, "a pair carries two first emissions"
    firsts = first_time.size, float(first_time.sum())
    del first_time
    # a 1 B/pair table of the pairs seen in a second emission
    seen = np.zeros(first_row.size, dtype=bool)
    delays = np.empty(n_second - n_pa), np.empty(n_pa)  # or, pa; row order
    filled = [0, 0]
    orphan = same = early = False
    # a stream without seconds has no block to read here
    for s in _blocks(n if n_second else 0):
        o, sp = order[s], species[s]
        # the second or rows, then the second pa rows, of the block
        for code, rows in enumerate((np.flatnonzero(o > sp), np.flatnonzero((o & sp).view(bool)))):
            pid2 = pid[s].take(rows)
            seen[pid2] = True
            j = first_row.take(pid2)
            orphan = orphan or j.min(initial=0) < 0
            same = same or bool(np.any(species.take(j) == code))
            d = delays[code][filled[code] : filled[code] + rows.size]
            filled[code] += rows.size
            np.take(time[s], rows, out=d, mode="clip")
            d -= time.take(j)
            early = early or d.min(initial=0.0) < 0.0
    if np.count_nonzero(seen) != n_second:
        return n_ids, "a pair carries two second emissions"
    for failed, message in (
        (orphan, "a second emission has no matching first"),
        (same, "a pair emitted the same species twice"),
        (early, "a second emission precedes its first"),
    ):
        if failed:
            return n_ids, message
    return n_ids, None, *firsts, tuple((d.size, float(d.sum())) for d in delays)


def classify(events: EventStream, grid, n0: int) -> ClassifiedCounts:
    """Tag and tally every photon by species and emission order.

    Runs the pair checks shared with estimate_rates: identities must be
    intact, pair ids must fit inside [0, n0), no pair may emit two firsts or
    two seconds, and a second must follow a first of the companion species.
    The counts come from the prefixes kept on the stream's time-ordered view
    and the rows of the segments that grid points fall in.
    """
    _pair_join(events, n0)
    grid = _validate_grid(grid)
    return ClassifiedCounts(grid, *_tally_counts(events, grid), n0=n0)


def _tally_counts(events: EventStream, grid: np.ndarray) -> tuple:
    """Rows of each category (first or, first pa, second or, second pa) at
    or before each grid point, from the kept prefixes.

    A grid point's edge e counts the rows of the time-ordered view at or
    before it.  Below the row count it lies in segment s = e // _SEGMENT:
    the kept prefixes give the rows before s, and the r = e % _SEGMENT rows
    of s before e are the even sums of one np.add.reduceat per code over
    interleaved (start, start + r) rows gathered by _segment_rows, exact in
    uint8 and all inside the gathered rows; reduceat reads a[start] where
    r = 0, so nothing is added there.  Each distinct segment is gathered
    once, _CHUNK // _SEGMENT of them at a time, so no temporary has more
    than a few words per grid point or row gathered.
    """
    time, species, order, *_ = _ordered(events)
    edges = np.searchsorted(time, grid, side="right")
    tallies = _tallies(events)
    # pa, second and second pa rows, each at its total until a segment is read
    counts = np.stack([np.full(grid.size, prefix[-1]) for prefix in tallies])
    # the grid ascends, and so do the segments of the points before the last row
    seg = edges[: np.searchsorted(edges, time.size)] // _SEGMENT
    # the distinct segments, by a mask, not np.unique's sorted copy
    new = np.ones(seg.size, dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=new[1:])
    distinct = seg[new]
    step = _CHUNK // _SEGMENT
    for c in range(0, distinct.size, step):
        segs = distinct[c : c + step]
        p0 = np.searchsorted(seg, segs[0], side="left")
        p1 = np.searchsorted(seg, segs[-1], side="right")
        # each point's segment's first gathered row, and its rows before its edge
        start, r = np.searchsorted(segs, seg[p0:p1]) * _SEGMENT, edges[p0:p1] % _SEGMENT
        pairs = np.column_stack((start, start + r)).ravel()
        sp, od = _segment_rows(species, segs), _segment_rows(order, segs)
        for row, codes, prefix in zip(counts[:, p0:p1], (sp, od, sp & od), tallies):
            np.take(prefix, seg[p0:p1], out=row)
            np.add(row, np.add.reduceat(codes, pairs, dtype=np.uint8)[::2], out=row, where=r > 0)
    pa, second, both = counts
    pa -= both  # first pa
    second -= both  # second or
    edges -= pa + second + both  # first or, what is left of the rows
    return edges, pa, second, both


def reconstruct(counts: ClassifiedCounts) -> PopulationCurve:
    """Invert classified counts into populations, integer for integer.

    Raises DataError if the counts imply a negative population anywhere,
    which means the stream violated the pair structure upstream.
    """
    n0 = _instance(counts, ClassifiedCounts, "counts").n0
    n = n0 - counts.n1_or - counts.n1_pa
    n_or = counts.n1_pa - counts.n2_or
    n_pa = counts.n1_or - counts.n2_pa
    if np.any(n_or < 0) or np.any(n_pa < 0):
        raise DataError("second emissions outnumber their feeding firsts")
    return PopulationCurve(counts.grid, n, n_or, n_pa, *map(counts.photons, Species), n0)


def erase_identities(events: EventStream) -> EventStream:
    """Strip pair ids and order tags, keeping times, species, and sides.

    Models a detector that sees photons but cannot attribute them to pairs;
    the result supports detection but not classification.  It shares the
    stream's read-only time, species and side columns and its kept
    time-ordered view; its pair-id and order columns are read-only
    zero-stride views of UNKNOWN_PAIR and UNKNOWN_CODE, and no column is
    checked again, so erasure costs the same at any length.
    """
    m = len(_instance(events, EventStream, "events"))
    erased = EventStream._unchecked(
        pair_id=np.broadcast_to(np.int64(UNKNOWN_PAIR), (m,)),
        time=events.time,
        species=events.species,
        side=events.side,
        order=np.broadcast_to(np.uint8(UNKNOWN_CODE), (m,)),
    )
    # the same time and species columns: the same time-ordered view; its
    # order column is never read for it, since classify stops at the erased
    # identities first
    if "_ordered" in vars(events):
        vars(erased)["_ordered"] = vars(events)["_ordered"]
    return erased


@dataclass(frozen=True)
class RateEstimates:
    """Maximum-likelihood rates from an identified stream.

    gamma_t_est comes from all first-emission times; the per-species
    estimates come from second-minus-first delays of pairs whose survivor
    had that species, and are NaN when no such seconds exist (for example
    in product mode).  Standard errors are rate / sqrt(count).
    """

    gamma_t_est: float
    gamma_t_se: float
    n_pairs: int
    gamma_or_est: float
    gamma_or_se: float
    n_second_or: int
    gamma_pa_est: float
    gamma_pa_se: float
    n_second_pa: int


def estimate_rates(
    events: EventStream, n0: int, min_pairs: int = MIN_PAIRS_DEFAULT
) -> RateEstimates:
    """Estimate the disentangling and free rates from one stream.

    Runs classify's pair checks first, so it rejects every stream that
    classify rejects, with the same error.
    """
    min_pairs = _integer(min_pairs, "min_pairs")  # 0 asks for no minimum
    n_pairs, first_sum, seconds = _pair_join(events, n0)
    if n_pairs < min_pairs:
        raise InsufficientDataError(
            f"{n_pairs} first emissions, need at least {_quote(min_pairs)}"
        )
    fits = _rate(n_pairs, first_sum, "first-emission times")
    for h, (k, total) in zip(Species, seconds):
        fits += _rate(k, total, f"{h.value} second-emission delays") if k else [math.nan, math.nan, 0]
    return RateEstimates(*fits)


def _rate(k: int, total: float, terms: str) -> list:
    """The rate, standard error and count of k terms summing to total, as
    RateEstimates holds them; a DataError naming the terms' sum when it is
    zero or gives no finite nonzero rate."""
    if total <= 0.0:
        raise DataError(f"{terms} sum to zero")
    rate = k / total
    if not 0.0 < rate < math.inf:  # an inf sum gives 0, a sum below k / 1.8e308 inf
        raise DataError(f"{terms} sum to {total!r}, which gives no finite nonzero rate")
    return [rate, rate / math.sqrt(k), k]


class Verdict(Enum, metaclass=_Lookup):
    ENTANGLED = "entangled"
    PRODUCT = "product"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of the product-hypothesis test.

    statistic is the best (smallest) hypothesis score; distances holds the
    per-hypothesis scores and their shape/mass components; fitted_rates
    carries rate estimates when the source allowed them.  The verdict does
    not depend on them, so the fit is computed when fitted_rates is first
    read and then kept; the verdict holds a reference to the stream for it.
    A DataError from an inconsistent stream surfaces on that read.
    """

    verdict: Verdict
    statistic: float
    threshold: float
    distances: dict[str, float]
    reason: str = ""
    # (stream, n0, min_pairs) for estimate_rates, set by detect for a stream
    # source; None when no fit applies
    fit_args: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def fitted_rates(self) -> RateEstimates | None:
        if self.fit_args is None:
            return None
        try:
            return estimate_rates(*self.fit_args)
        except (UnclassifiableError, InsufficientDataError):
            return None


def default_threshold(n0: float) -> float:
    """Detection threshold 3 * 1.36 / sqrt(n0)."""
    return THRESHOLD_SAFETY * KS_COEFF / math.sqrt(_real(n0, "n0"))


def _sup_distance(time, species, code, ends, prefix, n0: float, gamma: float) -> float:
    """sup over t of |count(<= t)/n0 - (1 - exp(-gamma t))|, counting the
    rows of a kept view's time column whose species is code.  ends and
    prefix are the view's segment ends and code's row of its prefix table.

    The supremum is taken at the jump points from both sides plus the
    t -> infinity tail.  Inside a segment the model lies between its values
    at the segment's two ends, and the levels between the counts before and
    after the segment, which bounds every gap in it.  Segments
    are read, a chunk at a time, only while their bound reaches the largest
    exact gap found, less _MARGIN; those gaps run the same ufuncs on the same
    operands as a full evaluation, and max is exact, so no bit moves.
    """
    k = int(prefix[-1])
    # a Python 0.0 seed would turn an all-zero distance into a float
    before = after = np.float64(0.0)
    tail = abs(k / n0 - 1.0)
    if k:
        # the levels before and after each segment; the cast is exact below 2**53
        levels = prefix / n0
        model = _model(ends, gamma)
        bound = model[1:] - levels[:-1]
        np.subtract(levels[1:], model[:-1], out=model[:-1])
        np.maximum(bound, model[:-1], out=bound)
        bound[prefix[1:] == prefix[:-1]] = -np.inf
        best = tail
        todo = np.array([np.argmax(bound)])
        while todo.size:
            gaps = _segment_gaps(time, todo, prefix, n0, gamma, species, code)
            before, after = np.maximum(before, gaps[0]), np.maximum(after, gaps[1])
            best = max(best, *gaps)
            bound[todo] = -np.inf
            # a gap that can reach the supremum is at least best and at most
            # a few ulps above its segment's bound, so that segment is read;
            # the others' gaps are below best, so the max is unchanged
            todo = np.flatnonzero(bound >= best - _MARGIN)[: _CHUNK // _SEGMENT]
    # with no times the tail, 1.0, is the distance
    return max(before, after, tail)


def _segment_gaps(time, seg, prefix, n0, gamma, species, code) -> tuple:
    """The largest gaps left and right of the jumps in segments seg."""
    t = np.compress(_segment_rows(species, seg) == code, _segment_rows(time, seg))
    c = prefix[seg + 1] - prefix[seg]
    # a row's level is the counted rows before it: those before its segment,
    # then its rank inside the segment
    levels = np.repeat((prefix[seg] - (np.cumsum(c) - c)).astype(float), c)
    levels += np.arange(t.size)
    m = _model(t, gamma)
    gap = m - levels / n0
    before = np.abs(gap, out=gap).max()
    levels += 1.0
    np.subtract(levels / n0, m, out=gap)
    return before, np.abs(gap, out=gap).max()


def _segment_rows(a: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The rows of a in the ascending segments seg, in order."""
    whole = a.size // _SEGMENT
    short = seg[-1] == whole  # the last segment, shorter than _SEGMENT
    rows = a[: whole * _SEGMENT].reshape(whole, _SEGMENT)[seg[:-1] if short else seg].ravel()
    return np.concatenate([rows, a[whole * _SEGMENT :]]) if short else rows


@np.errstate(over="ignore")  # t * -gamma past the float range is -inf; expm1(-inf) = -1 is exact
def product_model_distance(source, n0: float, h: Species, gamma: float) -> float:
    """Sup-norm distance of the species-h photon record from the one-species
    product model n0 (1 - exp(-gamma t)).

    For streams the supremum is exact, taken over the stream's time-ordered
    view; for gridded sources it is taken over the grid points.
    """
    _real(n0, "n0")
    gamma = _real(gamma, "gamma")
    _instance(source, (EventStream, ClassifiedCounts, PopulationCurve), "source")
    code = SPECIES_CODE[_instance(h, Species, "h")]
    if isinstance(source, EventStream):
        time, species, _, ends, prefix = _ordered(source)
        return _sup_distance(time, species, code, ends, prefix[code], n0, gamma)
    photons = np.asarray(source.photons(h), dtype=float)
    return float(np.max(np.abs(photons / n0 - _model(source.grid, gamma))))


def _companion_mass(source, h: Species, n0: float) -> float:
    # source has passed product_model_distance's type check
    if isinstance(source, EventStream):
        return int(_ordered(source)[-1][SPECIES_CODE[h], -1]) / n0  # h's rows in all
    return float(np.max(source.photons(h))) / n0


def detect(
    source,
    n0: float,
    reference: RateSet,
    threshold: float | None = None,
    min_pairs: int = MIN_PAIRS_DEFAULT,
) -> DetectionVerdict:
    """Decide whether photon data came from entangled pairs or product atoms.

    source may be an EventStream (identities not required), ClassifiedCounts,
    or a PopulationCurve.  reference supplies the calibrated free rates that
    parameterise the product hypotheses.  The verdict is Entangled above
    1.2 * threshold, Product below 0.8 * threshold, and Inconclusive inside
    the band, when fewer than min_pairs pairs were prepared, or when the
    source holds no photon of either species ("no photons").  ENTANGLED
    means that both species were emitted; it does not test the rate shift
    lambda = gamma_t - gamma_or - gamma_pa != 0, so or and pa product atoms
    merged at W = 0 (lambda = 0) are ENTANGLED too.  A gridded source takes
    any finite n0 > 0; a stream counts its pairs, so its n0 must be a whole
    number below 2**63, which the rate fit then receives exactly.  A stream
    is read through its kept time-ordered view, segment by segment (see
    _sup_distance), bit for bit as the full evaluation.
    """
    _real(n0, "n0")
    min_pairs = _integer(min_pairs, "min_pairs")
    fit_args = None
    if isinstance(source, EventStream):
        if int(n0) != n0:
            raise DomainError(f"n0 must be a whole number for a stream source, got {n0!r}")
        fit_args = (source, _integer(int(n0), "n0", 1, bits=63), min_pairs)
    threshold = default_threshold(n0) if threshold is None else _real(threshold, "threshold")
    _instance(reference, RateSet, "reference")

    distances: dict[str, float] = {}
    for h in Species:
        shape = product_model_distance(source, n0, h, reference.gamma(h))
        mass = _companion_mass(source, h.companion(), n0)
        distances[f"shape_{h.value}"] = shape
        distances[f"mass_{h.companion().value}"] = mass
        distances[f"product_{h.value}"] = max(shape, mass)
    statistic = min(distances["product_or"], distances["product_pa"])

    if n0 < min_pairs:
        verdict, reason = Verdict.INCONCLUSIVE, f"sample size {n0:g} below minimum {_quote(min_pairs)}"
    elif not (distances["mass_or"] or distances["mass_pa"]):
        verdict, reason = Verdict.INCONCLUSIVE, "no photons"
    elif statistic > 1.2 * threshold:
        verdict, reason = Verdict.ENTANGLED, ""
    elif statistic < 0.8 * threshold:
        verdict, reason = Verdict.PRODUCT, ""
    else:
        verdict, reason = Verdict.INCONCLUSIVE, "statistic inside the threshold band"
    result = DetectionVerdict(verdict, statistic, threshold, distances, reason)
    object.__setattr__(result, "fit_args", fit_args)
    return result
