"""Event-driven stochastic simulation of decaying entangled pairs.

Each pair produces exactly two photon events.  The first emission happens at
rate gamma_t and carries species h with probability gamma_t_h / gamma_t; it
leaves behind a lone atom of the companion species, which then decays freely
at its own rate, so the second photon has the companion species and arrives
after an independent exponential delay.  The two photons leave on opposite
sides of the apparatus, with the first side chosen fairly.  A product-mode
scenario instead decays n0 independent atoms of one species, one photon each.

Reproducibility contract
------------------------
Sampling uses the counter-based Philox generator.  Pair p always reads the
four uniforms at counter positions [4p, 4p + 4) of the stream keyed by the
scenario seed: first-emission time, first-photon species, survivor delay,
and first-photon side, in that order (product mode draws the same four and
uses only the first and last, keeping the layout identical across modes).
Philox.advance(p) jumps exactly one four-word counter block per pair, so any
partition of the pair index range into blocks, any thread count, and the
single-pair path all produce bit-identical events.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .errors import ConfigError, DataError, DomainError, NoDecayError
from .kinetics import PopulationCurve, _exact, _positive_n0, _validate_grid
from .rates import EntangledRates, RateSet, Species, _finite_positive, derive_rates

__all__ = [
    "ENTANGLED",
    "PRODUCT",
    "DRAWS_PER_PAIR",
    "Side",
    "EmissionOrder",
    "PhotonEvent",
    "EventStream",
    "Scenario",
    "pair_substream",
    "sample_pair",
    "simulate",
    "histogram",
]

ENTANGLED = "entangled"
PRODUCT = "product"

DRAWS_PER_PAIR = 4

# column codes used by EventStream
OR_CODE, PA_CODE = 0, 1
L_CODE, R_CODE = 0, 1
FIRST_CODE, SECOND_CODE, UNKNOWN_CODE = 0, 1, 2
UNKNOWN_PAIR = -1

_BLOCK = 1 << 16
_MAX_THREADS = 64

# Bytes simulate holds per entangled pair at its peak, reached while the
# stream's code columns are decoded: 38 of stream columns (two rows of int64
# pair id, float64 time and three uint8 codes) and 1 of draw codes, 39 in
# all; every other buffer of the draws, the decoding and histogram is one
# _BLOCK of scratch.  tracemalloc reads 39.1 at n0 = 1e6 (40.6 on two
# threads, whose draw blocks overlap) and 71 at 1e5, where the fixed blocks
# weigh more; 44 keeps ~10% headroom at scale.  Product mode needs about 20.
_PEAK_BYTES_PER_PAIR = 44

# Bytes an all-stage CLI run holds per grid point at its peak, reached while
# reconstruction is compared with the histogram (each curve is freed after
# its stage): 48 of histogram, 40 of classified counts, 40 of reconstructed
# columns and 24 of difference temporaries, 152 in all.  tracemalloc reads
# 152 at grid_points = 1e6 and 243 at 1e5, where the CSV writer's fixed
# chunk buffers weigh more; 168 keeps ~10% headroom at scale.
_PEAK_BYTES_PER_POINT = 168


class Side(Enum):
    """Which side of the apparatus a photon left through."""

    L = "L"
    R = "R"

    def opposite(self) -> "Side":
        return Side.R if self is Side.L else Side.L


class EmissionOrder(Enum):
    """Whether a photon was the pair's first or second emission."""

    FIRST = "first"
    SECOND = "second"


_SPECIES_BY_CODE = (Species.OR, Species.PA)
_SIDE_BY_CODE = (Side.L, Side.R)
_ORDER_BY_CODE = (EmissionOrder.FIRST, EmissionOrder.SECOND)

SPECIES_CODE = {Species.OR: OR_CODE, Species.PA: PA_CODE}


@dataclass(frozen=True)
class PhotonEvent:
    """One detected photon."""

    pair_id: int
    time: float
    species: Species
    side: Side
    order: EmissionOrder


@dataclass(frozen=True)
class EventStream:
    """Columnar photon record: parallel arrays, one row per photon.

    species, side and order hold the small integer codes defined at module
    level; pair_id is UNKNOWN_PAIR and order UNKNOWN_CODE after identity
    erasure (constant read-only views there).  Rows produced by simulate are sorted by time (ties broken by
    pair then order).  Columns are read-only views, so analyzer's pair join
    and time-ordered view are built once per stream; writing into a column
    raises ValueError, and mutating the arrays passed in after construction
    is unsupported.
    """

    pair_id: np.ndarray
    time: np.ndarray
    species: np.ndarray
    side: np.ndarray
    order: np.ndarray

    def __post_init__(self) -> None:
        casts = (
            ("pair_id", np.int64),
            ("time", np.float64),
            ("species", np.uint8),
            ("side", np.uint8),
            ("order", np.uint8),
        )
        n = None
        for name, dtype in casts:
            arr = np.ascontiguousarray(_exact(getattr(self, name), dtype, name, DataError)).view()
            arr.flags.writeable = False
            if arr.ndim != 1:
                raise DataError(f"{name} must be 1-d")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DataError("event columns must have equal length")
            object.__setattr__(self, name, arr)
        # min and max carry any NaN, so no n-row mask is needed; -0.0 passes
        lo, hi = (self.time.min(), self.time.max()) if self.time.size else (0.0, 0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("event times must be finite")
        if lo < 0.0:
            raise DataError("event times must be >= 0")
        if self.species.size and self.species.max() > PA_CODE:
            raise DataError("unknown species code")
        if self.side.size and self.side.max() > R_CODE:
            raise DataError("unknown side code")
        if self.order.size and self.order.max() > UNKNOWN_CODE:
            raise DataError("unknown order code")
        if self.pair_id.size and self.pair_id.min() < UNKNOWN_PAIR:
            raise DataError(f"pair ids must be >= 0, or {UNKNOWN_PAIR} when erased")

    @classmethod
    def _unchecked(cls, **columns: np.ndarray) -> "EventStream":
        """A stream of the five columns, by name, without __post_init__: only
        for columns that already meet its rules (read-only, 1-d, of their
        dtypes, of one length and valid values), each taken from a stream
        that passed them or a constant that meets them."""
        stream = object.__new__(cls)
        for name, column in columns.items():
            object.__setattr__(stream, name, column)
        return stream

    def __len__(self) -> int:
        return self.time.size

    def __reduce__(self):
        # copies and pickles rebuild through __post_init__: read-only columns, no kept join
        return EventStream, (self.pair_id, self.time, self.species, self.side, self.order)

    def __getitem__(self, i: int) -> PhotonEvent:
        if self.pair_id[i] == UNKNOWN_PAIR or self.order[i] == UNKNOWN_CODE:
            raise DataError("event has erased identity")
        return PhotonEvent(
            pair_id=int(self.pair_id[i]),
            time=float(self.time[i]),
            species=_SPECIES_BY_CODE[self.species[i]],
            side=_SIDE_BY_CODE[self.side[i]],
            order=_ORDER_BY_CODE[self.order[i]],
        )

    @property
    def has_identities(self) -> bool:
        """True when every row still carries its pair id and order tag."""
        if len(self) == 0:
            return True
        return bool(
            self.pair_id.min() != UNKNOWN_PAIR and self.order.max() != UNKNOWN_CODE
        )

    def sorted_by_time(self) -> "EventStream":
        idx, time = _time_order(self.time, self.pair_id, self.order)
        return EventStream(
            self.pair_id[idx], time, self.species[idx], self.side[idx], self.order[idx]
        )


def _sort_keys(time: np.ndarray, first_row: int, bits: int, out: np.ndarray) -> None:
    """Write into out the sort keys of rows first_row.. holding time: the
    time's bit pattern with its low bits replaced by the row index."""
    key = np.add(time, 0.0, out=out.view(np.float64)).view(np.uint64)  # -0.0 becomes 0.0
    key &= ~np.uint64((1 << bits) - 1)
    key |= np.arange(first_row, first_row + time.size, dtype=np.uint64)


def _adjacent(a: np.ndarray):
    """(lo, a[lo:hi], a[lo + 1 : hi + 1]) over spans of _BLOCK rows: every pair
    of adjacent elements of a, a block at a time, so no n-row temporary."""
    spans = ((lo, min(lo + _BLOCK, a.size - 1)) for lo in range(0, a.size - 1, _BLOCK))
    return ((lo, a[lo:hi], a[lo + 1 : hi + 1]) for lo, hi in spans)


def _key_order(key: np.ndarray, time: np.ndarray, pair_id=None, order=None) -> np.ndarray:
    """Sort key, written by _sort_keys for key.size rows, in place and decode
    it into the permutation np.lexsort((order, pair_id, time)), an int64 view.

    Only runs of keys that agree in the time bits, exact ties among them,
    need their rows re-sorted, by a gather of just those rows.  The key sort
    leaves a run in row order, as lexsort's stability does; without pair_id
    and order the rows are taken to be in (pair, order) order already.
    """
    bits = max(key.size - 1, 1).bit_length()
    key.sort()
    shift = np.uint64(bits)
    ties = [lo + np.flatnonzero(a >> shift == b >> shift) for lo, a, b in _adjacent(key)]
    key &= np.uint64((1 << bits) - 1)
    rows = key.view(np.int64)
    starts = np.concatenate([np.empty(0, dtype=np.intp), *ties])
    if starts.size:
        pos = np.union1d(starts, starts + 1)
        run = rows[pos]
        keys = (time[run],) if pair_id is None else (order[run], pair_id[run], time[run])
        rows[pos] = run[np.lexsort(keys)]
    return rows


def _time_order(
    time: np.ndarray, pair_id: np.ndarray | None = None, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The permutation np.lexsort((order, pair_id, time)), and time under it.

    Times must be non-negative, as EventStream and simulate guarantee: their
    bit patterns then order like the values, so one value sort of 64-bit
    keys holding the high bits of the time and the row index in the low bits
    places the rows (several times faster than an argsort; _key_order).
    """
    bits = max(time.size - 1, 1).bit_length()
    key = np.empty(time.size, dtype=np.uint64)
    _sort_keys(time, 0, bits, key)
    idx = _key_order(key, time, pair_id, order)
    return idx, time[idx]


def _nondecreasing(t: np.ndarray) -> bool:
    """True when t never decreases."""
    return all(np.all(b >= a) for _, a, b in _adjacent(t))


def _default_t_max(rates: RateSet) -> float:
    """Ten lifetimes of the slower species; a DomainError naming its rate
    field when they overflow."""
    name = "gamma_or" if rates.gamma_or <= rates.gamma_pa else "gamma_pa"
    t_max = 10.0 / getattr(rates, name)
    if math.isinf(t_max):
        raise DomainError(f"{name} is too small: the default t_max = 10 / {name} overflows")
    return t_max


@dataclass(frozen=True)
class Scenario:
    """Full description of one run: preparation, horizon, grid, seed.

    t_max defaults to ten lifetimes of the slower species.  grid_points are
    spread uniformly over [0, t_max]; a grid whose run cannot fit in memory
    is refused, as simulate refuses such an n0.  seed keys the Philox counter
    stream; parallel lets simulate fan blocks of pairs out over threads
    (capped by the DECAYLAB_THREADS environment variable) without changing
    any output.
    """

    n0: int
    rates: RateSet
    mode: str = ENTANGLED
    product_species: Species | None = None
    t_max: float | None = None
    grid_points: int = 512
    seed: int = 0
    parallel: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "n0", _positive_n0(self.n0))
        if self.mode not in (ENTANGLED, PRODUCT):
            raise DomainError(f"mode must be {ENTANGLED!r} or {PRODUCT!r}")
        if self.mode == PRODUCT:
            if not isinstance(self.product_species, Species):
                got = self.product_species
                raise DomainError(f"product_species must be a Species, got {got!r}")
        elif self.product_species is not None:
            raise DomainError("product_species only applies to product mode")
        if not isinstance(self.rates, RateSet):
            raise DomainError(f"rates must be a RateSet, got {self.rates!r}")
        t_max = _default_t_max(self.rates) if self.t_max is None else self.t_max
        object.__setattr__(self, "t_max", _finite_positive(t_max, "t_max"))
        if not isinstance(self.grid_points, (int, np.integer)) or self.grid_points < 2:
            raise DomainError("grid_points must be an integer >= 2")
        object.__setattr__(self, "grid_points", int(self.grid_points))
        points = self.grid_points
        _check_memory(points * _PEAK_BYTES_PER_POINT, f"grid_points = {points}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.parallel, (bool, np.bool_)):
            raise DomainError(f"parallel must be a bool, got {self.parallel!r}")
        object.__setattr__(self, "parallel", bool(self.parallel))

    @property
    def is_entangled(self) -> bool:
        return self.mode == ENTANGLED

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.grid_points)


def pair_substream(seed: int, pair_id: int) -> np.random.Generator:
    """Generator positioned at pair_id's private block of the seeded stream."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise DomainError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if not isinstance(pair_id, (int, np.integer)) or pair_id < 0:
        raise DomainError(f"pair_id must be an integer >= 0, got {pair_id!r}")
    bit_gen = np.random.Philox(key=int(seed))
    if pair_id:
        bit_gen.advance(int(pair_id))
    return np.random.Generator(bit_gen)


def _draw(u: np.ndarray, out: np.ndarray, gamma: float, p_or=None, survivor=None) -> np.ndarray:
    """The sampling kernel: write the times drawn from uniforms u (m, 4; first
    time, species, survivor delay, side) into out's columns, one per emission,
    and return the codes of the first: the side of a product atom (one column),
    species | side << 1 of a pair (two), pa when u >= p_or, whose survivor then
    decays at survivor[pa].  log1p(-u) / -g has the bits of -log1p(-u) / g and
    is never -0.0."""
    x = np.log1p(-u[:, 0])
    t1 = np.divide(x, -gamma, out=out[:, 0])
    right = (u[:, 3] >= 0.5).view(np.uint8)
    if out.shape[1] == 1:
        return right
    pa = (u[:, 1] >= p_or).view(np.uint8)
    np.log1p(np.negative(u[:, 2], out=x), out=x)
    x /= np.negative(survivor).take(pa)
    np.add(x, t1, out=out[:, 1])
    return pa | right << 1


def _entangled_rates(rates: RateSet, er: EntangledRates) -> tuple:
    """_draw's gamma, p_or and survivor rates for an entangled pair."""
    return er.gamma_t, er.gamma_t_or / er.gamma_t, (rates.gamma_pa, rates.gamma_or)


def sample_pair(
    pair_id: int,
    rates: RateSet,
    er: EntangledRates,
    rng: np.random.Generator,
) -> tuple[PhotonEvent, PhotonEvent]:
    """Draw one entangled pair's two events from its substream.

    Consumes exactly DRAWS_PER_PAIR uniforms and runs the same kernel as the
    vectorised simulator, so a pair sampled here is bit-identical to the same
    pair inside a full run.
    """
    kinds = ((rates, RateSet), (er, EntangledRates), (rng, np.random.Generator))
    if not all(isinstance(value, kind) for value, kind in kinds):
        raise DomainError("sample_pair needs a RateSet, its EntangledRates and a numpy Generator")
    if er.gamma_t <= 0.0:
        raise NoDecayError("gamma_t = 0: entangled pairs never emit")
    t = np.empty((1, 2))
    u = rng.random(DRAWS_PER_PAIR).reshape(1, DRAWS_PER_PAIR)
    code = int(_draw(u, t, *_entangled_rates(rates, er))[0])
    species_1, side_1 = _SPECIES_BY_CODE[code & 1], _SIDE_BY_CODE[code >> 1]
    first = PhotonEvent(pair_id, float(t[0, 0]), species_1, side_1, EmissionOrder.FIRST)
    second = PhotonEvent(
        pair_id,
        float(t[0, 1]),
        species_1.companion(),
        side_1.opposite(),
        EmissionOrder.SECOND,
    )
    return first, second


def _thread_count(parallel: bool) -> int:
    if not parallel:
        return 1
    raw = os.environ.get("DECAYLAB_THREADS", "0").strip()
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"DECAYLAB_THREADS must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ConfigError("DECAYLAB_THREADS must be >= 0")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, _MAX_THREADS))


def _memory_bytes(
    proc_cgroup: str | None = None, cgroup_root: str = "/sys/fs/cgroup"
) -> int | None:
    """Bytes this process may use: physical memory, or its cgroup's memory
    limit when that is smaller; None when neither can be read.

    proc_cgroup names the process's cgroups: the v2 line "0::PATH" points at
    cgroup_root/PATH/memory.max, a v1 memory-controller line "N:memory:PATH"
    at cgroup_root/memory/PATH/memory.limit_in_bytes.  A parent's limit binds
    its children, so these files are read from PATH up to the root and the
    smallest number wins; "max", an unreadable file or an unlimited v1 value
    (far above physical memory) sets none.  Nothing is written.  Without
    proc_cgroup, /proc/self/cgroup is read once per process and the answer
    kept, so a limit changed under a running process goes unseen.
    """
    if proc_cgroup is None:
        return _own_memory_bytes(cgroup_root)
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        physical = None
    try:
        with open(proc_cgroup) as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    known = [] if physical is None else [physical]
    for line in lines:
        hierarchy, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if hierarchy == "0" and not controllers:
            base, name = cgroup_root, "memory.max"
        elif "memory" in controllers.split(","):
            base, name = os.path.join(cgroup_root, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(base, *parts[:depth], name)) as fh:
                    known.append(int(fh.read()))
            except (OSError, ValueError):  # absent, unreadable, or "max"
                pass
    return min(known) if known else None


@cache
def _own_memory_bytes(cgroup_root: str) -> int | None:
    return _memory_bytes("/proc/self/cgroup", cgroup_root)


def _check_memory(need: int, what: str) -> None:
    """DomainError, starting with what, when need bytes cannot fit in the
    memory that _memory_bytes finds."""
    available = _memory_bytes()
    if available is None:
        return
    if need > available:
        raise DomainError(
            f"{what} needs about {need / 2**30:.3g} GiB, more than the "
            f"{available / 2**30:.3g} GiB that physical memory and the "
            "process's cgroup limit allow"
        )


def _sorted_stream(
    times: np.ndarray, keys: np.ndarray, codes: np.ndarray, scenario: Scenario
) -> EventStream:
    """The time-ordered stream of simulate's draws, built in their buffers:
    times (one per row, rows in (pair, order) order) sort into the time
    column, their keys decode into the pair column, a _BLOCK of rows at a
    time into the code columns.  codes holds each pair's species | side << 1
    of its first emission (its side in product mode)."""
    rows = _key_order(keys, times)
    # simulate draws no -0.0, so equal times have equal bits and the value
    # sort gives the column that gathering them by rows would
    times.sort()
    if scenario.is_entangled:
        species, side, order = (np.empty(rows.size, dtype=np.uint8) for _ in range(3))
        for lo in range(0, rows.size, _BLOCK):
            r, s = rows[lo : lo + _BLOCK], slice(lo, lo + _BLOCK)
            o = np.bitwise_and(r, 1, out=order[s], casting="unsafe")  # the low bit of the row
            r >>= 1
            first = codes.take(r)
            # a second emission has the companion species and the opposite side
            np.bitwise_xor(first & 1, o, out=species[s])
            np.bitwise_xor(first >> 1, o, out=side[s])
    else:
        order = np.full(rows.size, FIRST_CODE, dtype=np.uint8)
        species = np.full(rows.size, SPECIES_CODE[scenario.product_species], dtype=np.uint8)
        side = codes[rows]
    return EventStream(rows, times, species, side, order)


def simulate(scenario: Scenario) -> tuple[EventStream, PopulationCurve]:
    """Run a scenario: every pair's events plus their histogram on the grid.

    The stream contains all events, including those past t_max; the returned
    curve tabulates exact integer counts on the scenario grid.  Raises
    DomainError up front when n0 pairs would not fit in physical memory or
    under the process's cgroup memory limit.
    """
    n0 = scenario.n0
    _check_memory(n0 * _PEAK_BYTES_PER_PAIR, f"n0 = {n0}")
    rates = scenario.rates
    if scenario.is_entangled:
        er = derive_rates(rates)
        if er.gamma_t <= 0.0:
            raise NoDecayError("gamma_t = 0: entangled pairs never emit")
        kernel_rates = _entangled_rates(rates, er)
    else:
        kernel_rates = (rates.gamma(scenario.product_species),)

    # pair p's first and second emission are rows 2p and 2p + 1
    width = 2 if scenario.is_entangled else 1
    times = np.empty((n0, width))
    keys = np.empty(n0 * width, dtype=np.uint64)
    bits = max(keys.size - 1, 1).bit_length()
    # species | side << 1 of each pair's first emission
    codes = np.empty(n0, dtype=np.uint8)

    def fill(lo: int, hi: int) -> None:
        rng = pair_substream(scenario.seed, lo)
        u = rng.random((hi - lo) * DRAWS_PER_PAIR).reshape(-1, DRAWS_PER_PAIR)
        codes[lo:hi] = _draw(u, times[lo:hi], *kernel_rates)
        _sort_keys(times[lo:hi].ravel(), width * lo, bits, keys[width * lo : width * hi])

    spans = [(lo, min(lo + _BLOCK, n0)) for lo in range(0, n0, _BLOCK)]
    workers = _thread_count(scenario.parallel)
    if workers > 1 and len(spans) > 1:
        # imported here, not at the top, since it and the logging it loads
        # would slow every import of the package; blocks write to disjoint
        # slices, so scheduling order cannot matter
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda span: fill(*span), spans))
    else:
        for lo, hi in spans:
            fill(lo, hi)

    stream = _sorted_stream(times.ravel(), keys, codes, scenario)
    # the stream holds every draw now; free the codes before histogram counts
    del times, keys, codes
    curve = histogram(stream, scenario.grid(), n0, mode=scenario.mode)
    return stream, curve


def _category_counts(t: np.ndarray, grid: np.ndarray, category, k: int) -> list[np.ndarray]:
    """Counts at or before each grid point of the rows of category 0..k-1,
    where category(s) gives the categories of the rows in slice s.

    On a non-decreasing time column the rows at or before a grid point are a
    prefix, so one binary search per grid point finds its length.  The rows
    up to the last grid point's are then read a _BLOCK at a time: a grid
    point whose prefix ends in the block counts the category's rows before
    it there, on top of the running totals of earlier blocks.  Any other
    column is put in time order first, by one key sort and a gather of the
    categories.
    """
    if not _nondecreasing(t):
        idx, t = _time_order(t)
        category = category(slice(None)).take(idx).__getitem__
    pos = np.searchsorted(t, grid, side="right")
    counts = np.zeros((k, grid.size), dtype=np.int64)
    total = np.zeros(k, dtype=np.int64)
    g = 0
    for lo in range(0, pos[-1], _BLOCK):
        hi = min(lo + _BLOCK, pos[-1])
        end = np.searchsorted(pos, hi, side="right")  # points g..end - 1 end in the block
        cats, local = category(slice(lo, hi)), pos[g:end] - lo
        for c in range(k):
            rows = np.flatnonzero(cats == c)
            counts[c, g:end] = np.searchsorted(rows, local) + total[c]
            total[c] += rows.size
        g = end
    return list(counts)


def histogram(
    events: EventStream,
    grid,
    n0: int,
    mode: str = ENTANGLED,
) -> PopulationCurve:
    """Exact integer populations and photon counts of a stream on a grid.

    Counting rests on the pair structure: a first emission of species H both
    removes an entangled pair and creates a lone companion(H) survivor; the
    matching second emission removes that survivor again.  All counts come
    from binary searches over the time column, put in time order first when
    it is not, so they are exact integers and conservation holds identically.
    """
    grid = _validate_grid(grid)
    n0 = _positive_n0(n0)
    if mode not in (ENTANGLED, PRODUCT):
        raise DomainError(f"mode must be {ENTANGLED!r} or {PRODUCT!r}")
    if mode == ENTANGLED:
        order, species = events.order, events.species
        if order.size and order.max() == UNKNOWN_CODE:
            raise DataError("entangled histogram needs first/second order tags")
        n_first = order.size - int(np.count_nonzero(order))  # FIRST_CODE is 0, SECOND_CODE 1
        if n_first > n0:
            raise DataError(f"{n_first} first emissions from only {n0} pairs")
        # category order << 1 | species: first or, first pa, second or, second pa
        c_ft_or, c_ft_pa, c_st_or, c_st_pa = _category_counts(
            events.time, grid, lambda s: order[s] << 1 | species[s], 4
        )
        n = n0 - c_ft_or - c_ft_pa
        n_or = c_ft_pa - c_st_or
        n_pa = c_ft_or - c_st_pa
        if np.any(n_or < 0) or np.any(n_pa < 0):
            raise DataError("second emissions outnumber their first emissions")
        N_or = c_ft_or + c_st_or
        N_pa = c_ft_pa + c_st_pa
    else:
        if events.time.size > n0:
            raise DataError(f"{events.time.size} emissions from only {n0} atoms")
        N_or, N_pa = _category_counts(events.time, grid, events.species.__getitem__, 2)
        n = n0 - N_or - N_pa
        n_or, n_pa = np.zeros((2, grid.size), dtype=np.int64)
    # binary searches count in int64 (intp), so every column already is one
    return PopulationCurve(grid, n, n_or, n_pa, N_or, N_pa, n0)
