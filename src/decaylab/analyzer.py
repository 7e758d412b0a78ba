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

Both scans read one time-ordered view of a stream, kept on it: its own
columns when its times never decrease, as simulate's, else one key sort's
gather of them.  The view is split into segments of _SEGMENT rows.  On its
first classify a stream also keeps, per segment, the pa, second and second pa
rows before it (three integers per segment); classify then searches the grid
in the view and counts each grid point as those tallies plus the rows of its
own segment before it, reading only the segments that grid points fall in.
detect bounds the gap of every segment from its first and last times and the
counts around it, and evaluates the gaps exactly only in segments whose bound
can reach the supremum.  Erasing identities copies nothing: the erased stream
shares the observed columns, and its pair-id and order columns are constant
read-only views of a single value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DataError,
    DomainError,
    InsufficientDataError,
    UnclassifiableError,
)
from .kinetics import PopulationCurve, _check_n0, _exact, _positive_n0, _validate_grid
from .montecarlo import (
    FIRST_CODE,
    OR_CODE,
    PA_CODE,
    SECOND_CODE,
    SPECIES_CODE,
    UNKNOWN_CODE,
    UNKNOWN_PAIR,
    EventStream,
    _nondecreasing,
    _time_order,
)
from .rates import RateSet, Species, _finite_positive

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
# added to a segment's bound before it is compared with an exact gap: far
# above the few ulps by which rounding can move a computed model value
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
        object.__setattr__(self, "n0", _positive_n0(self.n0))
        for name in ("n1_or", "n1_pa", "n2_or", "n2_pa"):
            arr = _exact(getattr(self, name), np.int64, name, DomainError)
            if arr.shape != grid.shape:
                raise DomainError(f"{name} must match the grid shape")
            if arr[0] < 0 or np.any(np.diff(arr) < 0):
                raise DomainError(f"{name} must be non-negative and non-decreasing")
            object.__setattr__(self, name, arr)
        if np.any(self.n1_or + self.n1_pa > self.n0):
            raise DomainError("more first emissions than pairs")

    def photons(self, h: Species) -> np.ndarray:
        """Cumulative species-h photons, first plus second emissions."""
        if h is Species.OR:
            return self.n1_or + self.n2_or
        return self.n1_pa + self.n2_pa


def _ordered(events: EventStream) -> tuple:
    """The stream's (time, species, order) columns in time order (its own when
    its time never decreases, else one key sort and a gather), then the pa
    rows per _SEGMENT-row segment: uint16 sums are exact there, and a sum
    over an axis casts in buffers, with no column copy.  Found once per
    stream and kept in its __dict__, as the pair join is."""
    memo = vars(events)
    if "_ordered" not in memo:
        time, species, order = events.time, events.species, events.order
        if not _nondecreasing(time):
            idx, time = _time_order(time)
            species, order = species.take(idx), order.take(idx)
        memo["_ordered"] = time, species, order, _segment_sums(species)
    return memo["_ordered"]


def _segment_sums(codes: np.ndarray) -> np.ndarray:
    """The 0/1 codes summed per _SEGMENT-row segment, read-only int64."""
    whole = codes.size // _SEGMENT
    sums = codes[: whole * _SEGMENT].reshape(whole, _SEGMENT).sum(axis=1, dtype=np.uint16)
    if codes.size % _SEGMENT:
        sums = np.append(sums, codes[whole * _SEGMENT :].sum(dtype=np.uint16))
    sums = sums.astype(np.int64)
    sums.flags.writeable = False
    return sums


def _tallies(events: EventStream) -> np.ndarray:
    """(3, segments) int64: the pa rows, second rows and second pa rows of
    the stream's time-ordered view before each of its _SEGMENT-row segments.
    Found on the stream's first classify and kept in its __dict__ beside the
    view, so a caller that only detects never pays for it."""
    memo = vars(events)
    if "_tallies" not in memo:
        _, species, order, pa = _ordered(events)
        per_segment = (pa, _segment_sums(order), _segment_sums(species & order))
        tallies = np.zeros((3, pa.size), dtype=np.int64)
        for row, sums in zip(tallies, per_segment):
            np.cumsum(sums[:-1], out=row[1:])
        tallies.flags.writeable = False
        memo["_tallies"] = tallies
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
    memo = vars(events)
    if "_pair_join" not in memo:
        memo["_pair_join"] = _join(events) if events.has_identities else None
    if memo["_pair_join"] is None:
        raise UnclassifiableError("stream has erased pair identities")
    n0 = _positive_n0(n0)
    n_ids, error, *sums = memo["_pair_join"]
    if n_ids > n0:
        raise DataError("pair ids must lie in [0, n0)")
    if error is not None:
        raise DataError(error)
    return sums


def _join(events: EventStream) -> tuple:
    # (pair-id count, first structural error or None, then _pair_join's
    # sums), each sum in row order
    pid, species, time = events.pair_id, events.species, events.time
    n_ids = int(pid.max()) + 1 if pid.size else 0
    if n_ids > pid.size:
        # sparse ids, relabelled 0..k-1 so that the table and the bincount
        # below are bounded by the stream however large the ids are
        pid = np.unique(pid, return_inverse=True)[1]
    r1 = np.flatnonzero(events.order == FIRST_CODE)
    r2 = np.flatnonzero(events.order == SECOND_CODE)
    # each pair's first-emission row, -1 where it has none; sized by the
    # stream, not by n0, so a short stream needs no n0-long scratch array,
    # and int32 while rows fit, which halves the scatter's and gather's bytes
    first_row = np.full(min(n_ids, pid.size), -1, dtype=np.int32 if pid.size < 2**31 else np.intp)
    first_row[pid.take(r1)] = r1
    if np.count_nonzero(first_row >= 0) != r1.size:
        return n_ids, "a pair carries two first emissions"
    pid2 = pid.take(r2)
    if pid2.size and np.bincount(pid2).max() > 1:
        return n_ids, "a pair carries two second emissions"
    j = first_row.take(pid2)
    if np.any(j < 0):
        return n_ids, "a second emission has no matching first"
    species2 = species.take(r2)
    if np.any(species2 == species.take(j)):
        return n_ids, "a pair emitted the same species twice"
    delays = time.take(r2) - time.take(j)
    if np.any(delays < 0.0):
        return n_ids, "a second emission precedes its first"
    # np.compress, not delays[mask]: the same delays in the same order, so
    # the same sum, without numpy's slow boolean-mask gather
    is_or = species2 == OR_CODE
    seconds = tuple(
        (int(np.count_nonzero(m)), float(np.compress(m, delays).sum())) for m in (is_or, ~is_or)
    )
    return n_ids, None, r1.size, float(time.take(r1).sum()), seconds


def classify(events: EventStream, grid, n0: int) -> ClassifiedCounts:
    """Tag and tally every photon by species and emission order.

    Runs the pair checks shared with estimate_rates: identities must be
    intact, pair ids must fit inside [0, n0), no pair may emit two firsts or
    two seconds, and a second must follow a first of the companion species.
    The counts come from the tallies kept on the stream's time-ordered view
    and the rows of the segments that grid points fall in.
    """
    _pair_join(events, n0)
    grid = _validate_grid(grid)
    return ClassifiedCounts(grid, *_tally_counts(events, grid), n0=n0)


def _tally_counts(events: EventStream, grid: np.ndarray) -> tuple:
    """Rows of each category (first or, first pa, second or, second pa) at
    or before each grid point, from the kept tallies.

    A grid point's edge e, the rows of the time-ordered view at or before
    it, lies in segment s = (e - 1) // _SEGMENT (0 when e = 0): the tallies
    give the rows before s and _segment_table the rows of s before e.  Each
    distinct segment is read once, _CHUNK // _SEGMENT of them at a time, so
    no temporary has more than a few words per grid point or row read.
    """
    time, species, order, _ = _ordered(events)
    tallies = _tallies(events)
    edges = np.searchsorted(time, grid, side="right")
    # pa, second and second pa rows; the grid ascends, and so do the segments
    counts = np.zeros((3, grid.size), dtype=np.int64)
    seg = np.maximum(edges - 1, 0) // _SEGMENT
    # the distinct segments, by a mask, not np.unique's sorted copy; an empty
    # view has no segment to read, and every count is 0
    new = np.ones(seg.size, dtype=bool)
    np.not_equal(seg[1:], seg[:-1], out=new[1:])
    distinct = seg[new] if time.size else seg[:0]
    step = _CHUNK // _SEGMENT
    for c in range(0, distinct.size, step):
        segs = distinct[c : c + step]
        p0 = np.searchsorted(seg, segs[0], side="left")
        p1 = np.searchsorted(seg, segs[-1], side="right")
        # each point's entry in the chunk's table: its segment's place in
        # the chunk, then its edge's rank inside that segment
        at = np.searchsorted(segs, seg[p0:p1])
        at *= _SEGMENT + 1
        at += edges[p0:p1]
        at -= seg[p0:p1] * _SEGMENT
        table = _segment_table(species, order, segs, tallies).reshape(3, -1)
        for row, entries in zip(counts[:, p0:p1], table):
            np.take(entries, at, out=row)
    pa, second, both = counts
    pa -= both  # first pa
    second -= both  # second or
    edges -= pa  # first or, what is left of the rows
    edges -= second
    edges -= both
    return edges, pa, second, both


def _segment_table(species, order, segs, tallies) -> np.ndarray:
    """(3, segs.size, _SEGMENT + 1): the pa, second and second pa rows of
    the view before each rank 0.._SEGMENT of each ascending segment in segs
    (the last segment of the view may be shorter; its missing rows count
    as none)."""
    table = np.zeros((3, segs.size, _SEGMENT + 1), dtype=np.int64)
    whole = species.size // _SEGMENT
    full = segs[: np.searchsorted(segs, whole)]
    for row, column in zip(table, (species, order)):
        row[: full.size, 1:] = column[: whole * _SEGMENT].reshape(whole, _SEGMENT)[full]
        if full.size < segs.size:
            tail = column[whole * _SEGMENT :]
            row[-1, 1 : tail.size + 1] = tail
    np.bitwise_and(table[0], table[1], out=table[2])
    table[:, :, 0] = tallies[:, segs]
    return np.cumsum(table, axis=2, out=table)


def reconstruct(counts: ClassifiedCounts) -> PopulationCurve:
    """Invert classified counts into populations, integer for integer.

    Raises DataError if the counts imply a negative population anywhere,
    which means the stream violated the pair structure upstream.
    """
    n0 = counts.n0
    n = n0 - counts.n1_or - counts.n1_pa
    n_or = counts.n1_pa - counts.n2_or
    n_pa = counts.n1_or - counts.n2_pa
    if np.any(n_or < 0) or np.any(n_pa < 0):
        raise DataError("second emissions outnumber their feeding firsts")
    return PopulationCurve(
        grid=counts.grid,
        n=n,
        n_or=n_or,
        n_pa=n_pa,
        N_or=counts.n1_or + counts.n2_or,
        N_pa=counts.n1_pa + counts.n2_pa,
        n0=n0,
    )


def erase_identities(events: EventStream) -> EventStream:
    """Strip pair ids and order tags, keeping times, species, and sides.

    Models a detector that sees photons but cannot attribute them to pairs;
    the result supports detection but not classification.  It shares the
    stream's read-only time, species and side columns and its kept
    time-ordered view; its pair-id and order columns are read-only
    zero-stride views of UNKNOWN_PAIR and UNKNOWN_CODE, and no column is
    checked again, so erasure costs the same at any length.
    """
    m = len(events)
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

    Runs classify's pair checks first, so it rejects exactly the streams
    that classify rejects, with the same errors.
    """
    min_pairs = _min_pairs(min_pairs)
    n_pairs, first_sum, seconds = _pair_join(events, n0)
    if n_pairs < min_pairs:
        raise InsufficientDataError(
            f"{n_pairs} first emissions, need at least {min_pairs}"
        )
    if first_sum <= 0.0:
        raise DataError("first-emission times sum to zero")
    gamma_t_est = n_pairs / first_sum
    fits = [gamma_t_est, gamma_t_est / math.sqrt(n_pairs), n_pairs]
    for h, (k, total) in zip(Species, seconds):
        if k and total <= 0.0:
            raise DataError(f"{h.value} second-emission delays sum to zero")
        rate = k / total if k else math.nan
        fits += [rate, rate / math.sqrt(k) if k else math.nan, k]
    return RateEstimates(*fits)


def _min_pairs(value) -> int:
    """value as an int; the rule for min_pairs: an integer >= 0, where 0
    asks for no minimum (a bool is not one)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise DomainError(f"min_pairs must be an integer >= 0, got {value!r}")
    return int(value)


class Verdict(Enum):
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
    # (stream, n0, min_pairs) for estimate_rates; None when no fit applies
    fit_args: tuple | None = field(default=None, repr=False, compare=False)

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
    return THRESHOLD_SAFETY * KS_COEFF / math.sqrt(_check_n0(n0))


def _model(t: np.ndarray, gamma: float) -> np.ndarray:
    # 1 - exp(-gamma t), by the same ufuncs on the same operands everywhere
    m = np.multiply(t, -gamma)
    np.expm1(m, out=m)
    return np.negative(m, out=m)


def _sup_distance(time, n0: float, gamma: float, counts=None, species=None, code=None) -> float:
    """sup over t of |count(<= t)/n0 - (1 - exp(-gamma t))|, counting the
    rows of a non-decreasing time column whose species is code (every row
    when species is None); counts holds those rows per _SEGMENT-row segment.

    The supremum is taken at the jump points from both sides plus the
    t -> infinity tail.  Inside a segment the model lies between its values
    at the segment's first and last rows, and the levels between the counts
    before and after the segment, which bounds every gap in it.  Segments
    are read, a chunk at a time, only while their bound plus _MARGIN reaches
    the largest exact gap found; those gaps run the same ufuncs on the same
    operands as a full evaluation, and max is exact, so no bit moves.
    """
    n = time.size
    if counts is None:
        counts = _segment_sizes(n)
    upto = np.cumsum(counts, dtype=float)  # rows counted through each segment
    prior = upto - counts
    k = int(upto[-1]) if n else 0
    # a Python 0.0 seed would turn an all-zero distance into a float
    before = after = np.float64(0.0)
    tail = abs(k / n0 - 1.0)
    if k:
        last = time[np.minimum(np.arange(_SEGMENT, n + _SEGMENT, _SEGMENT), n) - 1]
        bound = np.maximum(_model(last, gamma) - prior / n0, upto / n0 - _model(time[::_SEGMENT], gamma))
        bound[counts == 0] = -np.inf
        best = tail
        todo = np.array([np.argmax(bound)])
        while todo.size:
            gaps = _segment_gaps(time, todo, prior, counts, n0, gamma, species, code)
            before, after = np.maximum(before, gaps[0]), np.maximum(after, gaps[1])
            best = max(best, *gaps)
            bound[todo] = -np.inf
            todo = np.flatnonzero(bound + _MARGIN >= best)[: _CHUNK // _SEGMENT]
    # with no times the tail, 1.0, is the distance
    return max(before, after, tail)


def _segment_gaps(time, seg, prior, counts, n0, gamma, species, code) -> tuple:
    """The largest gaps left and right of the jumps in segments seg."""
    t = _segment_rows(time, seg)
    if species is not None:
        t = np.compress(_segment_rows(species, seg) == code, t)
    c = counts[seg]
    # a row's level is the counted rows before it: those before its segment,
    # then its rank inside the segment
    levels = np.repeat(prior[seg] - (np.cumsum(c) - c), c)
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


def _segment_counts(events: EventStream, code: int) -> np.ndarray:
    """Rows of the species code in each _SEGMENT-row segment of the stream's
    time-ordered view."""
    pa = _ordered(events)[3]
    return pa if code == PA_CODE else _segment_sizes(len(events)) - pa


def _segment_sizes(n: int) -> np.ndarray:
    return np.minimum(n - np.arange(0, n, _SEGMENT), _SEGMENT)


def _grid_distance(grid: np.ndarray, photons: np.ndarray, n0: float, gamma: float) -> float:
    model = -np.expm1(-gamma * grid)
    return float(np.max(np.abs(photons / n0 - model)))


def product_model_distance(source, n0: float, h: Species, gamma: float) -> float:
    """Sup-norm distance of the species-h photon record from the one-species
    product model n0 (1 - exp(-gamma t)).

    For streams the supremum is exact, taken over the stream's time-ordered
    view; for gridded sources it is taken over the grid points.
    """
    _check_n0(n0)
    gamma = _finite_positive(gamma, "gamma")
    if isinstance(source, EventStream):
        code = SPECIES_CODE[h]
        time, species, *_ = _ordered(source)
        return _sup_distance(time, n0, gamma, _segment_counts(source, code), species, code)
    if not isinstance(source, (ClassifiedCounts, PopulationCurve)):
        raise DomainError("source must be an EventStream, ClassifiedCounts, or PopulationCurve")
    return _grid_distance(source.grid, np.asarray(source.photons(h), dtype=float), n0, gamma)


def _companion_mass(source, h: Species, n0: float) -> float:
    # source has passed product_model_distance's type check
    if isinstance(source, EventStream):
        return int(_segment_counts(source, SPECIES_CODE[h]).sum()) / n0
    photons = source.photons(h)
    return float(np.max(photons)) / n0 if len(photons) else 0.0


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
    the band or when fewer than min_pairs pairs were prepared.  ENTANGLED
    means that both species were emitted; it does not test the rate shift
    lambda = gamma_t - gamma_or - gamma_pa != 0, so or and pa product atoms
    merged at W = 0 (lambda = 0) are ENTANGLED too.  A gridded source takes
    any finite n0 > 0; a stream counts its pairs, so its n0 must be a whole
    number below 2**63, which the rate fit then receives exactly.  A stream
    is read through its kept time-ordered view, segment by segment (see the
    module docstring), bit for bit as the full evaluation.
    """
    _check_n0(n0)
    min_pairs = _min_pairs(min_pairs)
    fit_args = None
    if isinstance(source, EventStream):
        if int(n0) != n0:
            raise DomainError(f"n0 must be a whole number for a stream source, got {n0!r}")
        fit_args = (source, _positive_n0(int(n0)), min_pairs)
    threshold = default_threshold(n0) if threshold is None else _finite_positive(threshold, "threshold")

    if not isinstance(reference, RateSet):
        raise DomainError(f"reference must be a RateSet, got {reference!r}")
    distances: dict[str, float] = {}
    for h, gamma in ((Species.OR, reference.gamma_or), (Species.PA, reference.gamma_pa)):
        shape = product_model_distance(source, n0, h, gamma)
        mass = _companion_mass(source, h.companion(), n0)
        distances[f"shape_{h.value}"] = shape
        distances[f"mass_{h.companion().value}"] = mass
        distances[f"product_{h.value}"] = max(shape, mass)
    statistic = min(distances["product_or"], distances["product_pa"])

    if n0 < min_pairs:
        verdict, reason = Verdict.INCONCLUSIVE, f"sample size {n0:g} below minimum {min_pairs}"
    elif statistic > 1.2 * threshold:
        verdict, reason = Verdict.ENTANGLED, ""
    elif statistic < 0.8 * threshold:
        verdict, reason = Verdict.PRODUCT, ""
    else:
        verdict, reason = Verdict.INCONCLUSIVE, "statistic inside the threshold band"
    return DetectionVerdict(verdict, statistic, threshold, distances, reason, fit_args)
