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
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from ._rules import _Lookup, _exact, _instance, _integer, _real, _validate_grid
from .errors import ConfigError, DataError, DomainError, NoDecayError
from .kinetics import PopulationCurve
from .rates import EntangledRates, RateSet, Species, derive_rates

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
# A first classify of the stream then peaks 14.4 B/pair above it at 1e6
# pairs (the pair join's scratch, freed on return); a first classify or
# detect of a stream that is not time-ordered keeps a 20 B/pair view.
_PEAK_BYTES_PER_PAIR = 44
# Bytes of draw scratch per pair of a block, which every thread worker
# holds at once: 32 of (m, 4) uniforms and the kernel's temporaries.
# tracemalloc reads 55 and 59 MB at n0 = 1e6 on 8 and 16 threads, under
# the 65 and 86 MB that this and _PEAK_BYTES_PER_PAIR then count.
_DRAW_BYTES_PER_PAIR = 40

# Bytes an all-stage CLI run holds per grid point at its peak, reached while
# reconstruction is compared with the histogram (each curve is freed after
# its stage): 48 of histogram, 40 of classified counts, 40 of reconstructed
# columns and 24 of difference temporaries, 152 in all.  tracemalloc reads
# 152 at grid_points = 1e6 and 243 at 1e5, where the CSV writer's fixed
# chunk buffers weigh more; 168 keeps ~10% headroom at scale.
_PEAK_BYTES_PER_POINT = 168

# the longest exponential draw of _draw, -log1p(-u) at the largest uniform
# u = 1 - 2**-53: 53 ln 2, in units of the lifetime of its rate
_LONGEST_DRAW = float(-np.log1p(-np.nextafter(1.0, 0.0)))


class Side(Enum, metaclass=_Lookup):
    """Which side of the apparatus a photon left through."""

    L = "L"
    R = "R"

    def opposite(self) -> "Side":
        return Side.R if self is Side.L else Side.L


class EmissionOrder(Enum, metaclass=_Lookup):
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
            arr = _exact(getattr(self, name), dtype, name, DataError)
            # a stride-0 column is one value (erase_identities'), kept uncopied
            arr = (arr if arr.strides == (0,) else np.ascontiguousarray(arr)).view()
            arr.flags.writeable = False
            if arr.ndim != 1:
                raise DataError(f"{name} must be 1-d")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DataError("event columns must have equal length")
            object.__setattr__(self, name, arr)
        # min and max carry any NaN, so no n-row mask is needed; -0.0 passes
        lo, hi = self.time.min(initial=0.0), self.time.max(initial=0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("event times must be finite")
        if lo < 0.0:
            raise DataError("event times must be >= 0")
        if self.species.max(initial=0) > PA_CODE:
            raise DataError("unknown species code")
        if self.side.max(initial=0) > R_CODE:
            raise DataError("unknown side code")
        if self.order.max(initial=0) > UNKNOWN_CODE:
            raise DataError("unknown order code")
        if self.pair_id.min(initial=0) < UNKNOWN_PAIR:
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
        """True when every row still carries its pair id and order tag, as
        every row of an empty stream does."""
        return bool(
            self.pair_id.min(initial=0) != UNKNOWN_PAIR and self.order.max(initial=0) != UNKNOWN_CODE
        )

    def sorted_by_time(self) -> "EventStream":
        """The stream with its rows in np.lexsort((order, pair_id, time))
        order: by time, exact ties by pair id, then by order tag.  Rows laid
        out all firsts, then all seconds, so come back in simulate's order,
        which breaks ties the same way."""
        columns = self.pair_id, self.species, self.side, self.order
        time, pair_id, species, side, order = _time_order(
            self.time, columns, self.pair_id, self.order
        )
        return EventStream(pair_id, time, species, side, order)


def _sort_keys(time: np.ndarray, first_row: int, bits: int, out: np.ndarray) -> None:
    """Write into out the sort keys of rows first_row.. holding time: the
    time's bit pattern with its low bits replaced by the row index."""
    key = np.add(time, 0.0, out=out.view(np.float64)).view(np.uint64)  # -0.0 becomes 0.0
    key &= ~np.uint64((1 << bits) - 1)
    key |= np.arange(first_row, first_row + time.size, dtype=np.uint64)


def _blocks(n: int):
    """The slices of n rows, _BLOCK rows at a time, made as they are read."""
    return (slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _adjacent(a: np.ndarray):
    """(lo, a[lo:hi], a[lo + 1 : hi + 1]) over spans of _BLOCK rows: every pair
    of adjacent elements of a, a block at a time, so no n-row temporary."""
    return ((s.start, a[s], a[s.start + 1 : s.stop + 1]) for s in _blocks(a.size - 1))


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
    pos = np.union1d(starts, starts + 1)
    run = rows[pos]
    keys = (time[run],) if pair_id is None else (order[run], pair_id[run], time[run])
    rows[pos] = run[np.lexsort(keys)]
    return rows


def _time_order(time: np.ndarray, columns=(), pair_id=None, order=None) -> tuple:
    """time, then each of columns, in the row order np.lexsort((order,
    pair_id, time)); a stride-0 column, one value in any order, is returned
    as it is, ungathered.

    Times must be non-negative, as EventStream and simulate guarantee: their
    bit patterns then order like the values, so one value sort of 64-bit
    keys holding the high bits of the time and the row index in the low bits
    places the rows (several times faster than an argsort; _key_order).  The
    columns are gathered a _BLOCK of rows at a time, and the time column into
    the key buffer itself once its block of rows is copied out, so the sort
    holds 8 B/row beyond the gathered columns.
    """
    bits = max(time.size - 1, 1).bit_length()
    key = np.empty(time.size, dtype=np.uint64)
    for s in _blocks(time.size):
        _sort_keys(time[s], s.start, bits, key[s])
    rows = _key_order(key, time, pair_id, order)
    outs = (c if c.strides == (0,) else np.empty(time.size, dtype=c.dtype) for c in columns)
    ordered = rows.view(np.float64), *outs
    for s in _blocks(time.size):
        # a permutation's rows are in range: mode="clip" skips a buffered copy
        r = rows[s].copy()
        for column, out in zip((time, *columns), ordered):
            if out is not column:
                column.take(r, out=out[s], mode="clip")
    return ordered


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
        object.__setattr__(self, "n0", _integer(self.n0, "n0", 1, bits=63))
        if _instance(self.mode, str, "mode") not in (ENTANGLED, PRODUCT):
            raise DomainError(f"mode must be {ENTANGLED!r} or {PRODUCT!r}")
        if self.mode == PRODUCT:
            _instance(self.product_species, Species, "product_species")
        elif self.product_species is not None:
            raise DomainError("product_species only applies to product mode")
        _instance(self.rates, RateSet, "rates")
        t_max = _default_t_max(self.rates) if self.t_max is None else self.t_max
        object.__setattr__(self, "t_max", _real(t_max, "t_max"))
        points = _integer(self.grid_points, "grid_points", 2)
        object.__setattr__(self, "grid_points", points)
        _check_memory(points * _PEAK_BYTES_PER_POINT, f"grid_points = {points}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", bits=64))
        parallel = _instance(self.parallel, (bool, np.bool_), "parallel")
        object.__setattr__(self, "parallel", bool(parallel))

    @property
    def is_entangled(self) -> bool:
        return self.mode == ENTANGLED

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.grid_points)


def pair_substream(seed: int, pair_id: int) -> np.random.Generator:
    """Generator positioned at pair_id's private block of the seeded stream."""
    seed = _integer(seed, "seed", bits=128)
    pair_id = _integer(pair_id, "pair_id")
    bit_gen = np.random.Philox(key=seed)
    bit_gen.advance(pair_id)
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


def _finite_draws(*rates: tuple[str, float]) -> None:
    """A DomainError naming the smallest of the (name, rate) pairs when the
    longest draws of emissions at those rates, one after another, add up
    past the float range: the time of the last would be inf."""
    if math.isinf(sum(_LONGEST_DRAW / rate for _, rate in rates)):
        name, rate = min(rates, key=lambda named: named[1])
        raise DomainError(f"{name} is too small: an emission time drawn at {name} = {rate:g} can overflow")


def _entangled_rates(rates: RateSet, er: EntangledRates) -> tuple:
    """_draw's gamma, p_or and survivor rates for an entangled pair; a
    NoDecayError when the pair never emits, a DomainError (_finite_draws)
    when a first emission or the survivor's after it can overflow."""
    if er.gamma_t <= 0.0:
        raise NoDecayError("gamma_t = 0: entangled pairs never emit")
    # a first h photon, drawn only when its rate is not 0, leaves a lone
    # companion atom to decay at its own free rate
    survivor = tuple(rates.gamma(h.companion()) for h in Species)
    for h, rate in zip(Species, survivor):
        if er.species_rate(h) > 0.0:
            _finite_draws(("gamma_t", er.gamma_t), (f"gamma_{h.companion().value}", rate))
    return er.gamma_t, er.gamma_t_or / er.gamma_t, survivor


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
    pair_id = _integer(pair_id, "pair_id")
    _instance(rates, RateSet, "rates")
    _instance(er, EntangledRates, "er")
    _instance(rng, np.random.Generator, "rng")
    kernel_rates = _entangled_rates(rates, er)
    t = np.empty((1, 2))
    u = rng.random(DRAWS_PER_PAIR).reshape(1, DRAWS_PER_PAIR)
    code = int(_draw(u, t, *kernel_rates)[0])
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


def _thread_count() -> int:
    raw = os.environ.get("DECAYLAB_THREADS", "0").strip()
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"DECAYLAB_THREADS must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ConfigError("DECAYLAB_THREADS must be >= 0")
    if cap == 0:
        cap = os.cpu_count() or 1
    return min(cap, _MAX_THREADS)


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


def _run_threads(work, spans, workers: int) -> None:
    """work(span) for every span of a sequence, over this thread (worker 0)
    and workers - 1 others: worker i runs the fixed share spans[i::workers]
    and starts no further span once any worker has failed.  Every thread is
    joined; the first error one raised is then raised here.  Plain threads,
    not concurrent.futures: that and the logging it imports would slow the
    start of every process that runs simulate in threads."""
    errors = []

    def worker(share) -> None:
        try:
            for span in share:
                if errors:
                    return
                work(span)
        except BaseException as exc:  # re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(spans[i::workers],)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    worker(spans[::workers])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


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
        for s in _blocks(rows.size):
            r = rows[s]
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
    under the process's cgroup memory limit, and when a rate is so small
    that a drawn emission time could overflow to inf.
    """
    n0 = _instance(scenario, Scenario, "scenario").n0
    # a thread per block at most, each holding its block's draw scratch
    workers = min(_thread_count(), -(-n0 // _BLOCK)) if scenario.parallel else 1
    scratch = workers * min(n0, _BLOCK) * _DRAW_BYTES_PER_PAIR
    _check_memory(n0 * _PEAK_BYTES_PER_PAIR + scratch, f"n0 = {n0}")
    rates = scenario.rates
    if scenario.is_entangled:
        kernel_rates = _entangled_rates(rates, derive_rates(rates))
    else:
        kernel_rates = (rates.gamma(scenario.product_species),)
        _finite_draws((f"gamma_{scenario.product_species.value}", *kernel_rates))

    # pair p's first and second emission are rows 2p and 2p + 1
    width = 2 if scenario.is_entangled else 1
    times = np.empty((n0, width))
    keys = np.empty(n0 * width, dtype=np.uint64)
    bits = max(keys.size - 1, 1).bit_length()
    # species | side << 1 of each pair's first emission
    codes = np.empty(n0, dtype=np.uint8)

    def fill(s: slice) -> None:
        rng = pair_substream(scenario.seed, s.start)
        u = rng.random((s.stop - s.start) * DRAWS_PER_PAIR).reshape(-1, DRAWS_PER_PAIR)
        codes[s] = _draw(u, times[s], *kernel_rates)
        rows = slice(width * s.start, width * s.stop)
        _sort_keys(times[s].ravel(), rows.start, bits, keys[rows])

    # blocks write to disjoint slices, so scheduling order cannot matter
    _run_threads(fill, list(_blocks(n0)), workers)

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
    column is put in time order first, by _time_order's key sort and a
    gather of the categories.
    """
    if not _nondecreasing(t):
        t, cats = _time_order(t, (category(slice(None)),))
        category = cats.__getitem__
    pos = np.searchsorted(t, grid, side="right")
    counts = np.zeros((k, grid.size), dtype=np.int64)
    total = np.zeros(k, dtype=np.int64)
    g = 0
    for s in _blocks(pos[-1]):
        end = np.searchsorted(pos, s.stop, side="right")  # points g..end - 1 end in the block
        cats, local = category(s), pos[g:end] - s.start
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
    _instance(events, EventStream, "events")
    grid = _validate_grid(grid)
    n0 = _integer(n0, "n0", 1, bits=63)
    if _instance(mode, str, "mode") not in (ENTANGLED, PRODUCT):
        raise DomainError(f"mode must be {ENTANGLED!r} or {PRODUCT!r}")
    if mode == ENTANGLED:
        order, species = events.order, events.species
        if order.max(initial=FIRST_CODE) == UNKNOWN_CODE:
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
