"""Wiener path generation and iterated stochastic integrals.

A :class:`WienerPath` stores the m-dimensional driving noise as fine
Gaussian increments on a dyadic grid of 2**L steps over [0, T]. Coarse
solves, adaptive solves and the reference solve of an experiment all
consume windows of the same fine path, which is what couples them for
strong-error estimation.

Two deliberate representation choices:

* Increments are quantized to the fixed grid 2**-32 at generation time.
  Every increment is then an exact multiple of 2**-32 small enough that
  all window sums (and their partial sums) are exactly representable in
  float64, so increment sums over adjacent windows add bit-exactly and
  the mesh bookkeeping is exact. The statistical distortion is a uniform
  +-2**-33 perturbation per increment, about 4e-7 of one increment's
  standard deviation at L = 20, far below every tolerance used here.

* Double integrals are never accumulated directly. Per window we take
  the antisymmetric Levy areas A of the left-point Ito sum (increments
  taken relative to the window start) and reconstruct the full matrix
  I from the exact identities

      I[i][i] = (dW_i**2 - h) / 2
      I[i][j] = dW_i * dW_j / 2 + A[i][j]        (i != j)

  where entry I[i][j] denotes the iterated integral with component i as
  the inner integrator and j as the outer one, and
  A[i][j] = (I[i][j] - I[j][i]) / 2.

Window integrals are read in O(1) from prefix arrays (see
:class:`PathPrefixes`): the running sum W of the increments and, for
each pair i < j, the cross sum

      C(n) = sum_{k<n} W_i(k) dW_j(k) - W_j(k) dW_i(k),

so that over the window [a, b)

      2 A[i][j] = C(b) - C(a) - (W_i(a) dW_j - W_j(a) dW_i).

C is accumulated exactly, as an integer in 2**-64 units held in two
int64 limbs, and the area is rounded once, to nearest. A window of
one fine step therefore has an area of exactly zero, and any window's
area is its exact left-point sum, correctly rounded.

A block of paths can also be drawn in slabs of consecutive fine steps
(:class:`PathStreams`), which join into exactly the paths
:func:`generate_path` gives; prefix arrays can then hold a sliding
window of the block instead of whole paths
(:meth:`PathPrefixes.streamed`).

Moment constants of the Levy area come from the Taylor series of sech
(Euler numbers), computed in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import ResourceError, UsageError

__all__ = [
    "WienerPath",
    "PathPrefixes",
    "PathStreams",
    "IteratedIntegrals",
    "double_integrals",
    "generate_path",
    "refine_path",
    "integrals_over",
    "uniform_integrals",
    "euler_number",
    "LevyMomentTable",
    "moment_constant",
    "MomentCheckRow",
    "moment_check",
    "write_path",
    "read_path",
]

#: Quantization grid for fine increments; see module docstring.
INCREMENT_GRID = 2.0**-32

#: Cross sums are held as hi * 2**_LIMB_BITS + lo in two int64 limbs.
_LIMB_BITS = 24
_LIMB_MASK = (1 << _LIMB_BITS) - 1

#: Refuse to allocate paths above this many bytes of increment storage.
_MAX_PATH_BYTES = 1 << 33

_SEED_MASK = (1 << 64) - 1

#: Key-space offset separating bridge-refinement streams from the
#: per-component generation streams (which use key[1] = component index).
_REFINE_STREAM_BASE = 1 << 32

_DUMP_MAGIC = b"WIENPATH"
_DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<8sIIIdQ")  # magic, version, m, L, T, seed


@dataclass(frozen=True)
class WienerPath:
    """Fine-grid increments of an m-dimensional Wiener process on [0, T].

    Attributes:
        increments: (m, 2**L) float64 array; entry [i, k] is
            W_i((k+1) h_ref) - W_i(k h_ref), quantized (see module doc).
        resolution: fine step h_ref = T * 2**-L.
        resolution_exponent: L.
        horizon: T.
        seed: the seed the per-component streams were keyed with.
    """

    increments: np.ndarray
    resolution: float
    resolution_exponent: int
    horizon: float
    seed: int
    _prefixes: "PathPrefixes | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise UsageError("increments must be a 2-d (m, num_steps) array")
        if inc.shape[1] != (1 << self.resolution_exponent):
            raise UsageError("num_steps must equal 2**resolution_exponent")
        object.__setattr__(self, "increments", inc)

    @property
    def dim_noise(self) -> int:
        return self.increments.shape[0]

    @property
    def num_steps(self) -> int:
        return self.increments.shape[1]

    def prefixes(self) -> "PathPrefixes":
        """This path's prefix arrays, built on first use and kept."""
        if self._prefixes is None:
            pref = PathPrefixes.of(self.increments, self.resolution, self.horizon)
            object.__setattr__(self, "_prefixes", pref)
        return self._prefixes

    def increment_sum(self, start: int, end: int) -> np.ndarray:
        """Exact sum of fine increments over [start, end), shape (m,)."""
        w = self.prefixes().sums[0, : self.dim_noise]
        return (w[:, end] - w[:, start]) * INCREMENT_GRID


def _exact_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * y of int64 arrays as limbs (hi, lo): x y = hi 2**24 + lo with
    0 <= lo < 2**24. Exact while |x|, |y| < 2**43."""
    x1, x0 = x >> _LIMB_BITS, x & _LIMB_MASK
    y1, y0 = y >> _LIMB_BITS, y & _LIMB_MASK
    low = x0 * y0
    hi = ((x1 * y1) << _LIMB_BITS) + x1 * y0 + x0 * y1 + (low >> _LIMB_BITS)
    return hi, low & _LIMB_MASK


@functools.cache
def _pairs(
    m: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for the pairs i < j of m components (in
    ``np.triu_indices`` order): (i, j); the column orders (i then j,
    j then i) that line up W_i with dW_j and W_j with dW_i; the +-1
    matrix (2P, P) that subtracts the second half of those columns from
    the first; and the +-1 matrix (P, m*m) that spreads per-pair values
    into an antisymmetric (m, m) matrix."""
    i, j = np.triu_indices(m, 1)
    P = len(i)
    halves = np.concatenate([np.eye(P, dtype=np.int64), -np.eye(P, dtype=np.int64)])
    spread = np.zeros((P, m * m))
    spread[np.arange(P), i * m + j] = 1.0
    spread[np.arange(P), j * m + i] = -1.0
    return i, j, np.concatenate([i, j]), np.concatenate([j, i]), halves, spread


#: Fine steps converted per pass (over all paths written at once) when
#: prefix arrays are written, which bounds their temporary arrays.
_FILL_CHUNK = 1 << 12

#: Cap on the prefix arrays one group or block of paths holds at a time;
#: see :meth:`PathPrefixes.group_size` and :meth:`PathPrefixes.streamed`.
_GROUP_BYTES = 2 << 20


@dataclass(eq=False)
class PathPrefixes:
    """Prefix arrays of a group of paths on one fine grid, from which the
    integrals of any window of any of them are read in O(1).

    The arrays hold the fine nodes ``start .. frontier`` of every path,
    column c holding node ``start + c``. Whole-path arrays (:meth:`of`,
    or :meth:`empty` then :meth:`fill` per path) hold every node: start
    0, frontier ``num_steps``. Streamed arrays (:meth:`streamed`) hold a
    sliding window: each :meth:`advance` drops the nodes behind a given
    one and appends the next slab of every path, drawn from ``source``.

    Attributes:
        sums: (G, m + P, C) int64 with P = m(m-1)/2. ``sums[g, i, c]``
            (i < m) is W_i at node start + c of path g in units of the
            increment grid; ``sums[g, m + p, c]`` is the high limb of the
            cross sum C(k) of the module docstring for the p-th pair
            i < j (in ``np.triu_indices`` order).
        low: (G, P, C) int32, the low limb of C(k), in [0, 2**24):
            C(k) = sums[g, m + p, c] * 2**24 + low[g, p, c] exactly, in
            2**-64 units.
        resolution: fine step h_ref.
        horizon: T.
        num_steps: n, the fine steps of each path.
        frontier: the last node held.
        start: the node in column 0.
        slab: fine steps appended per :meth:`advance` (the last slab
            may be shorter); 0 for whole-path arrays.
        source: ``source(steps)`` returns the next ``steps`` increments
            of every path, (G, m, steps); None for whole-path arrays.

    A node of a path takes :meth:`bytes_per_node` bytes here; the raw
    increments are not kept.
    """

    sums: np.ndarray
    low: np.ndarray
    resolution: float
    horizon: float
    num_steps: int
    frontier: int
    start: int = 0
    slab: int = 0
    source: Callable[[int], np.ndarray] | None = None

    @staticmethod
    def bytes_per_node(dim_noise: int) -> int:
        pairs = dim_noise * (dim_noise - 1) // 2
        return 8 * (dim_noise + pairs) + 4 * pairs

    @staticmethod
    def bytes_per_path(dim_noise: int, num_steps: int) -> int:
        return PathPrefixes.bytes_per_node(dim_noise) * (num_steps + 1)

    @staticmethod
    def group_size(dim_noise: int, num_steps: int) -> int:
        """Whole paths per group under the 2 MiB cap, at least one."""
        return max(1, _GROUP_BYTES // PathPrefixes.bytes_per_path(dim_noise, num_steps))

    @staticmethod
    def stream_size(dim_noise: int, widest: int) -> int:
        """Paths per block whose streamed window fits the 2 MiB cap with
        slabs at least half of ``widest`` fine steps long (see
        :meth:`slab_steps`); at least one. Longer slabs let fewer lanes
        wait; more paths per block share more of each lockstep round."""
        per_node = PathPrefixes.bytes_per_node(dim_noise)
        return max(1, 2 * _GROUP_BYTES // (widest * (3 * per_node + 8 * dim_noise)))

    @staticmethod
    def slab_steps(count: int, dim_noise: int, num_steps: int, widest: int, unit: int) -> int:
        """Fine steps per slab of a streamed window over ``count`` paths:
        the largest whole multiple of ``unit`` such that ``widest`` nodes
        plus the slab's nodes and its float increments fit the 2 MiB cap;
        at least ``unit`` and at most the path."""
        per_node = count * PathPrefixes.bytes_per_node(dim_noise)
        room = (_GROUP_BYTES - per_node * widest) // (per_node + count * dim_noise * 8)
        return min(num_steps, max(unit, room // unit * unit))

    @classmethod
    def _alloc(cls, count, dim_noise, nodes, resolution, horizon, num_steps, frontier, **kw):
        pairs = dim_noise * (dim_noise - 1) // 2
        sums = np.empty((count, dim_noise + pairs, nodes), dtype=np.int64)
        low = np.empty((count, pairs, nodes), dtype=np.int32)
        sums[:, :, 0] = 0
        low[:, :, 0] = 0
        return cls(sums, low, resolution, horizon, num_steps, frontier, **kw)

    @classmethod
    def empty(
        cls, count: int, dim_noise: int, num_steps: int, resolution: float, horizon: float
    ) -> "PathPrefixes":
        """Room for ``count`` whole paths, to be filled with :meth:`fill`."""
        return cls._alloc(
            count, dim_noise, num_steps + 1, resolution, horizon, num_steps, num_steps
        )

    @classmethod
    def streamed(
        cls,
        count: int,
        dim_noise: int,
        num_steps: int,
        resolution: float,
        horizon: float,
        source: Callable[[int], np.ndarray],
        widest: int,
        unit: int = 1,
    ) -> "PathPrefixes":
        """A sliding window over ``count`` paths, holding node 0 until
        the first :meth:`advance`.

        The window holds ``widest`` nodes plus one slab (see
        :meth:`slab_steps`), so it stays within the 2 MiB cap unless
        ``widest`` plus one ``unit`` alone exceed it. Slabs are whole
        multiples of ``unit`` fine steps, so they end on the boundaries
        of windows of ``unit`` steps.
        """
        slab = cls.slab_steps(count, dim_noise, num_steps, widest, unit)
        nodes = min(num_steps + 1, widest + slab)
        return cls._alloc(
            count, dim_noise, nodes, resolution, horizon, num_steps, 0,
            slab=slab, source=source,
        )

    @classmethod
    def of(cls, increments: np.ndarray, resolution: float, horizon: float) -> "PathPrefixes":
        """The prefix arrays of one path's (m, n) increments."""
        m, n = increments.shape
        prefixes = cls.empty(1, m, n, resolution, horizon)
        prefixes.fill(0, increments)
        return prefixes

    @property
    def dim_noise(self) -> int:
        return self.sums.shape[1] - self.low.shape[1]

    def fill(self, g: int, increments: np.ndarray) -> None:
        """Write the prefix arrays of a whole path with (m, n)
        ``increments`` into row g.

        Raises:
            UsageError: the increments do not fit the arrays, are off
                the 2**-32 grid, or (for m > 1) are so large that the
                exact cross sums could overflow their limbs.
        """
        if self.source is not None or increments.shape != (self.dim_noise, self.num_steps):
            raise UsageError("path does not match the prefix arrays' grid")
        self._append(slice(g, g + 1), 0, increments[None])

    def advance(self, keep_from: int) -> None:
        """Drop the nodes before ``keep_from`` (a held node) and append
        the next slab of every path from ``source``.

        Raises:
            UsageError: every node is already held, or the nodes kept
                and the slab do not fit the window.
        """
        steps = min(self.slab, self.num_steps - self.frontier)
        kept = self.frontier - keep_from + 1
        if self.source is None or steps < 1:
            raise UsageError("the prefix arrays already hold every node")
        if not (self.start <= keep_from <= self.frontier and kept + steps <= self.sums.shape[2]):
            raise UsageError(
                f"cannot keep nodes {keep_from}..{self.frontier} and a slab of "
                f"{steps} in a window of {self.sums.shape[2]} nodes"
            )
        drop = keep_from - self.start
        if drop:
            self.sums[:, :, :kept] = self.sums[:, :, drop : drop + kept]
            self.low[:, :, :kept] = self.low[:, :, drop : drop + kept]
            self.start = keep_from
        self._append(slice(None), kept - 1, self.source(steps))
        self.frontier += steps

    def _append(self, rows: slice, col: int, increments: np.ndarray) -> None:
        """Continue the prefix arrays of ``rows`` from column ``col`` with
        (G, m, s) ``increments``, in chunks that bound the temporaries."""
        m, s = increments.shape[1:]
        sums, c_lo = self.sums[rows], self.low[rows]
        w, c_hi = sums[:, :m], sums[:, m:]
        chunk = max(1, _FILL_CHUNK // len(sums))
        for a in range(col, col + s, chunk):
            b = min(col + s, a + chunk)
            scaled = increments[:, :, a - col : b - col] * (1.0 / INCREMENT_GRID)
            d = scaled.astype(np.int64)
            if (d != scaled).any():
                raise UsageError("increments must lie on the 2**-32 grid")
            np.cumsum(d, axis=2, out=w[:, :, a + 1 : b + 1])
            w[:, :, a + 1 : b + 1] += w[:, :, a : a + 1]
            if m == 1:
                continue
            left = w[:, :, a:b]  # W at each step's left point
            # Bounds that keep every limb below 2**63: |W| < 2**10,
            # |dW| < 2**5 and n |W| |dW| below 2**84 grid units squared.
            w_max = float(np.abs(left).max())
            d_max = float(np.abs(d).max())
            if not (
                w_max < 2.0**42
                and d_max < 2.0**37
                and self.num_steps * w_max * d_max < 2.0**84
            ):
                raise UsageError("path too large for exact Levy areas (|W| >= 2**10)")
            w_hi, w_lo = left >> _LIMB_BITS, left & _LIMB_MASK
            for p, (i, j) in enumerate(zip(*_pairs(m)[:2])):
                # W_i dW_j - W_j dW_i = hi 2**24 + lo, split as the limbs;
                # the low limb's running sum is carried into the high one.
                lo = w_lo[:, i] * d[:, j] - w_lo[:, j] * d[:, i]
                hi = w_hi[:, i] * d[:, j] - w_hi[:, j] * d[:, i] + (lo >> _LIMB_BITS)
                lo &= _LIMB_MASK
                lo[:, 0] += c_lo[:, p, a]
                hi[:, 0] += c_hi[:, p, a]
                np.cumsum(lo, axis=1, out=lo)
                np.cumsum(hi, axis=1, out=c_hi[:, p, a + 1 : b + 1])
                c_hi[:, p, a + 1 : b + 1] += lo >> _LIMB_BITS
                c_lo[:, p, a + 1 : b + 1] = lo & _LIMB_MASK

    def windows(
        self,
        rows: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        zero_area: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integrals of the windows [start, end) of paths ``rows``, one
        window per entry: (h (L,), dW (L, m), A (L, m, m)). Every node
        of a window must be held. ``zero_area`` returns A = 0 instead of
        the Levy areas."""
        m = self.dim_noise
        h = (end - start) * self.resolution
        if self.start:
            start, end = start - self.start, end - self.start
        at_start = self.sums[rows, :, start]
        diff = self.sums[rows, :, end] - at_start
        dW = diff[:, :m] * INCREMENT_GRID
        if m == 1 or zero_area:
            return h, dW, np.zeros(dW.shape + (m,))
        _, _, ij, ji, halves, spread = _pairs(m)
        # W_i(a) dW_j - W_j(a) dW_i as limbs, per pair.
        prod_hi, prod_lo = _exact_product(at_start[:, ij], diff[:, ji])
        lo = self.low[rows, :, end] - self.low[rows, :, start] - prod_lo @ halves
        hi = diff[:, m:] - prod_hi @ halves + (lo >> _LIMB_BITS)
        # hi and lo are exact floats (|A| < 2**12), so their sum rounds once.
        area = (hi * float(1 << _LIMB_BITS) + (lo & _LIMB_MASK)) * 2.0**-65
        return h, dW, (area @ spread).reshape(-1, m, m)


def _quantize(values: np.ndarray) -> np.ndarray:
    """Round ``values`` to the increment grid, in place."""
    values *= 1.0 / INCREMENT_GRID
    np.rint(values, out=values)
    values *= INCREMENT_GRID
    return values


def _stream_state(seed: int, stream: int) -> dict:
    """The state of a fresh Philox stream keyed by (seed, stream)."""
    key = np.array([seed & _SEED_MASK, stream & _SEED_MASK], dtype=np.uint64)
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


_reused = threading.local()


def _generator_at(state: dict) -> np.random.Generator:
    """This thread's reused Philox generator, set to ``state``. Building a
    Philox from a key draws OS entropy for a seed sequence that the key
    then overrides; setting the state of one that exists draws none."""
    gen = getattr(_reused, "generator", None)
    if gen is None:
        gen = _reused.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = state
    return gen


def _component_stream(seed: int, stream: int) -> np.random.Generator:
    return _generator_at(_stream_state(seed, stream))


class PathStreams:
    """The open generation streams of a block of paths.

    Each :meth:`draw` returns the next fine increments of every path, so
    a block's paths can be generated in slabs of consecutive steps
    instead of whole. Component i of path g continues the Philox stream
    keyed by (seeds[g], i), and the slabs join into exactly the
    increments :func:`generate_path` gives each seed, bit for bit.
    """

    def __init__(
        self, seeds: Sequence[int], resolution_exponent: int, dim_noise: int, horizon: float = 1.0
    ):
        self.num_steps = 1 << resolution_exponent
        self.drawn = 0
        self._scale = math.sqrt(horizon * 2.0**-resolution_exponent)
        self._states = [[_stream_state(s, i) for i in range(dim_noise)] for s in seeds]

    def draw(self, steps: int) -> np.ndarray:
        """The next ``steps`` fine increments of every path, (G, m, steps).

        Raises:
            UsageError: fewer than ``steps`` steps are left to draw.
        """
        if not 0 < steps <= self.num_steps - self.drawn:
            raise UsageError(
                f"cannot draw {steps} steps; {self.num_steps - self.drawn} are left"
            )
        self.drawn += steps
        out = np.empty((len(self._states), len(self._states[0]), steps))
        for row, states in zip(out, self._states):
            for i, state in enumerate(states):
                gen = _generator_at(state)
                gen.standard_normal(out=row[i])
                if self.drawn < self.num_steps:
                    states[i] = gen.bit_generator.state
        out *= self._scale
        return _quantize(out)


def generate_path(
    seed: int,
    resolution_exponent: int,
    dim_noise: int,
    horizon: float = 1.0,
) -> WienerPath:
    """Sample a fine-grid Wiener path.

    Each component i draws its 2**L increments from an independent
    counter-based stream keyed by (seed, i), so paths are reproducible
    per seed and components never share randomness.

    Args:
        seed: stream seed (reduced mod 2**64).
        resolution_exponent: L >= 1; the path has 2**L fine steps.
        dim_noise: m >= 1.
        horizon: T > 0.

    Raises:
        UsageError: invalid arguments.
        ResourceError: the increment array would exceed the memory budget.
    """
    if resolution_exponent < 1:
        raise UsageError("resolution_exponent must be >= 1")
    if dim_noise < 1:
        raise UsageError("dim_noise must be >= 1")
    if not horizon > 0.0:
        raise UsageError("horizon must be positive")
    n = 1 << resolution_exponent
    needed = dim_noise * n * 8
    if needed > _MAX_PATH_BYTES:
        raise ResourceError(
            f"path of {dim_noise} x 2**{resolution_exponent} increments needs "
            f"{needed} bytes; lower resolution_exponent or dim_noise"
        )
    streams = PathStreams([seed], resolution_exponent, dim_noise, horizon)
    return WienerPath(
        increments=streams.draw(n)[0],
        resolution=horizon * 2.0**-resolution_exponent,
        resolution_exponent=resolution_exponent,
        horizon=horizon,
        seed=seed & _SEED_MASK,
    )


def refine_path(path: WienerPath, extra_levels: int) -> WienerPath:
    """Brownian-bridge midpoint refinement of an existing path.

    Each fine increment over a step of length h splits into two halves
    inc/2 + xi and inc/2 - xi with xi ~ N(0, h/4), drawn from streams
    keyed by (seed, refinement level, component) so refinement is as
    reproducible as generation. The refined increments are re-quantized,
    so refined window sums match the coarse ones to within one grid unit
    per split rather than bitwise.

    Intended for resolution-consistency checks; experiments pick the
    fine grid up front instead.
    """
    if extra_levels < 1:
        raise UsageError("extra_levels must be >= 1")
    m = path.dim_noise
    inc = path.increments
    level = path.resolution_exponent
    h = path.resolution
    for _ in range(extra_levels):
        level += 1
        h *= 0.5
        n = inc.shape[1]
        if m * 2 * n * 8 > _MAX_PATH_BYTES:
            raise ResourceError("refined path would exceed the memory budget")
        halves = np.empty((m, 2 * n))
        for comp in range(m):
            stream = _component_stream(
                path.seed, _REFINE_STREAM_BASE + level * m + comp
            )
            xi = stream.standard_normal(n) * math.sqrt(h / 2.0) * 0.5
            mid = 0.5 * inc[comp]
            halves[comp, 0::2] = mid + xi
            halves[comp, 1::2] = mid - xi
        inc = _quantize(halves)
    return WienerPath(
        increments=inc,
        resolution=path.horizon * 2.0**-level,
        resolution_exponent=level,
        horizon=path.horizon,
        seed=path.seed,
    )


# ---------------------------------------------------------------------------
# Iterated integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IteratedIntegrals:
    """Increments and double integrals of one time window of length h.

    ``I[i, j]`` holds the iterated integral with component i inner and
    component j outer; ``A`` is the antisymmetric Levy-area matrix,
    ``A[i, j] = (I[i, j] - I[j, i]) / 2``. Instances should be built via
    :meth:`from_components`, which enforces the reconstruction
    identities (diagonal exact, off-diagonal = exact half product + A).
    """

    h: float
    dW: np.ndarray  # (m,)
    A: np.ndarray  # (m, m), antisymmetric
    I: np.ndarray  # (m, m)

    @classmethod
    def from_components(cls, h: float, dW: np.ndarray, A: np.ndarray) -> "IteratedIntegrals":
        dW = np.asarray(dW, dtype=float)
        A = np.asarray(A, dtype=float)
        m = dW.shape[0]
        if A.shape != (m, m):
            raise UsageError(f"A has shape {A.shape}, expected ({m}, {m})")
        if not h > 0.0:
            raise UsageError("window length h must be positive")
        return cls(h=h, dW=dW, A=A, I=double_integrals(h, dW, A))

    def without_area(self) -> "IteratedIntegrals":
        """Same window with the Levy areas zeroed (off-diagonals keep
        only the symmetric half product). Used for commutativity checks."""
        return IteratedIntegrals.from_components(
            self.h, self.dW, np.zeros_like(self.A)
        )


def double_integrals(h, dW: np.ndarray, A: np.ndarray) -> np.ndarray:
    """I from the increments and areas of one window (dW (m,), A (m, m))
    or of a batch (dW (L, m), A (L, m, m), h of shape (L, 1)):
    ``I[i, j] = dW_i dW_j / 2 + A[i, j]`` off the diagonal and
    ``(dW_i**2 - h) / 2`` on it."""
    m = dW.shape[-1]
    I = 0.5 * (dW[..., :, None] * dW[..., None, :]) + A
    I.reshape(I.shape[:-2] + (m * m,))[..., :: m + 1] = 0.5 * (dW * dW - h)
    return I


_ROW_0 = np.zeros(1, dtype=np.intp)


def integrals_over(path: WienerPath, start: int, end: int) -> IteratedIntegrals:
    """Increments and iterated integrals over fine-step window [start, end).

    Args:
        path: the fine path.
        start, end: fine-step indices, 0 <= start < end <= num_steps.

    Returns:
        IteratedIntegrals for the window of length (end - start) * h_ref.
    """
    if not (0 <= start < end <= path.num_steps):
        raise UsageError(
            f"window [{start}, {end}) out of range for {path.num_steps} fine steps"
        )
    # The window's own prefix arrays give the same exact integrals as the
    # whole path's, at a cost of O(end - start).
    window = PathPrefixes.of(path.increments[:, start:end], path.resolution, path.horizon)
    h, dW, area = window.windows(_ROW_0, _ROW_0, np.array([end - start]))
    return IteratedIntegrals.from_components(float(h[0]), dW[0], area[0])


def uniform_integrals(
    path: WienerPath, substeps: int, zero_area: bool = False
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Vectorized window integrals for a uniform mesh of ``substeps``-sized windows.

    Covers the first ``(num_steps // substeps) * substeps`` fine steps;
    a shorter trailing remainder (if any) is the caller's business.

    Returns:
        (count, h, dW_all, I_all) where dW_all has shape (count, m) and
        I_all has shape (count, m, m). The increments are exact, as in
        :func:`integrals_over`, but each window's Levy areas are summed
        in floats, so they may differ from the exact areas that
        :func:`integrals_over` and the adaptive solves read in their
        last bits.
    """
    if substeps < 1 or substeps > path.num_steps:
        raise UsageError("substeps must be in [1, num_steps]")
    return _uniform_windows(path.increments, path.resolution, substeps, zero_area)


def _uniform_windows(
    increments: np.ndarray, resolution: float, substeps: int, zero_area: bool = False
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """:func:`uniform_integrals` of (m, n) ``increments``, or of a stack
    (P, m, n) of them with dW (count, P, m) and I (count, P, m, m). A run
    of increments that starts on a window boundary gives its windows the
    same bits as the whole path does."""
    *lead, m, n = increments.shape
    count = n // substeps
    h = substeps * resolution
    inc = increments[..., : count * substeps].reshape(*lead, m, count, substeps)
    dW_all = np.moveaxis(inc.sum(axis=-1), -1, 0)  # (count, ..., m)
    if m == 1 or zero_area:
        area = np.zeros(dW_all.shape + (m,))
    else:
        w_excl = np.cumsum(inc, axis=-1)
        w_excl -= inc
        s = np.einsum("...isk,...jsk->s...ij", w_excl, inc)
        area = 0.5 * (s - np.swapaxes(s, -1, -2))
    return count, h, dW_all, double_integrals(h, dW_all, area)


# ---------------------------------------------------------------------------
# Levy-area moment constants (Euler numbers / sech Taylor coefficients)
# ---------------------------------------------------------------------------

_MAX_MOMENT_ORDER = 32

_euler_cache: dict[int, int] = {0: 1}


def euler_number(n: int) -> int:
    """Euler number E_n (secant-number convention: E_0=1, E_2=-1, E_4=5, ...).

    Computed from the sech Taylor recurrence
    sum_{k=0..N} C(2N, 2k) E_{2k} = 0 in exact integer arithmetic.
    Odd-index Euler numbers are zero.
    """
    if n < 0:
        raise UsageError("Euler number index must be >= 0")
    if n % 2 == 1:
        return 0
    if n not in _euler_cache:
        top = max(k for k in _euler_cache if k % 2 == 0)
        for even in range(top + 2, n + 1, 2):
            acc = 0
            for k in range(0, even, 2):
                acc += math.comb(even, k) * _euler_cache[k]
            _euler_cache[even] = -acc
    return _euler_cache[n]


@dataclass(frozen=True)
class LevyMomentTable:
    """Moment constants of the Levy area over a window of length h.

    ``signed`` is the exact rational I_b with E[A^b | increments-free]
    = I_b h^b; ``absolute_bound`` bounds E[|A|^b] / h^b from above
    (tight for even b, strict for odd b >= 3).
    """

    order: int
    signed: Fraction
    absolute_bound: Fraction | float


def moment_constant(order: int) -> LevyMomentTable:
    """Exact moment constants I_b and the absolute bound for order b.

    The characteristic function of the Levy area over a window of
    length h is sech(h * lam / 2), whose Taylor coefficients are Euler
    numbers; matching powers gives, for even b,
    I_b = (-1)**(b/2) * E_b / 2**b, and I_b = 0 for odd b. The absolute
    bounds are I_b for even b, sqrt(I_2) for b = 1, and
    sqrt(I_{2b-2} * I_2) for odd b >= 3.

    Args:
        order: b in [1, 32].

    Raises:
        UsageError: order outside the supported range.
    """
    b = order
    if not 1 <= b <= _MAX_MOMENT_ORDER:
        raise UsageError(f"moment order must be in [1, {_MAX_MOMENT_ORDER}]")

    def signed_constant(k: int) -> Fraction:
        if k % 2 == 1:
            return Fraction(0)
        sign = -1 if (k // 2) % 2 == 1 else 1
        return Fraction(sign * euler_number(k), 2**k)

    signed = signed_constant(b)
    if b % 2 == 0:
        bound: Fraction | float = signed
    elif b == 1:
        bound = Fraction(1, 2)  # sqrt(I_2) = sqrt(1/4), exact
    else:
        bound = math.sqrt(signed_constant(2 * b - 2) * signed_constant(2))
    return LevyMomentTable(order=b, signed=signed, absolute_bound=bound)


# ---------------------------------------------------------------------------
# Monte Carlo validation of the moment constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheckRow:
    """One order's Monte Carlo check of the Levy moment constants."""

    order: int
    signed_target: float
    signed_estimate: float
    signed_std_error: float
    absolute_bound: float
    absolute_estimate: float

    @property
    def signed_ok(self) -> bool:
        return abs(self.signed_estimate - self.signed_target) <= 4.0 * self.signed_std_error

    @property
    def bound_ok(self) -> bool:
        # The absolute bound is an equality for even orders, so the
        # strict sample comparison only makes sense for odd ones.
        if self.order % 2 == 0:
            return True
        return self.absolute_estimate <= self.absolute_bound

    @property
    def passed(self) -> bool:
        return self.signed_ok and self.bound_ok


def moment_check(
    orders: Sequence[int] = (1, 2, 3, 4),
    num_windows: int = 10_000,
    resolution_exponent: int = 12,
    base_seed: int = 12345,
) -> list[MomentCheckRow]:
    """Monte Carlo validation of Levy-area moments over unit windows.

    Accumulates A over ``num_windows`` independent two-component unit
    paths at the given resolution and compares sample moments of
    A[0, 1] against :func:`moment_constant`. The left-point sum biases
    E[A^2] by the factor (1 - 2**-L), far below the 4-standard-error
    tolerance at the default sizes.
    """
    if num_windows < 100:
        raise UsageError("num_windows must be >= 100 for a meaningful check")
    if any(not 1 <= b <= 8 for b in orders):
        raise UsageError("Monte Carlo moment orders must be in [1, 8]")
    samples = np.empty(num_windows)
    n = 1 << resolution_exponent
    size = PathPrefixes.group_size(2, n)
    for first in range(0, num_windows, size):
        count = min(size, num_windows - first)
        prefixes = PathPrefixes.empty(count, 2, n, 2.0**-resolution_exponent, 1.0)
        for q in range(count):
            seed = (base_seed ^ (first + q)) & _SEED_MASK
            path = generate_path(seed, resolution_exponent, dim_noise=2)
            prefixes.fill(q, path.increments)
        rows = np.arange(count)
        _, _, area = prefixes.windows(rows, np.zeros_like(rows), np.full_like(rows, n))
        samples[first : first + count] = area[:, 0, 1]
    rows = []
    for b in orders:
        table = moment_constant(b)
        powered = samples**b
        est = float(np.mean(powered))
        se = float(np.std(powered, ddof=1) / math.sqrt(num_windows))
        rows.append(
            MomentCheckRow(
                order=b,
                signed_target=float(table.signed),
                signed_estimate=est,
                signed_std_error=se,
                absolute_bound=float(table.absolute_bound),
                absolute_estimate=float(np.mean(np.abs(powered))),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Binary path dump
# ---------------------------------------------------------------------------


def write_path(path: WienerPath, stream: BinaryIO) -> None:
    """Serialize a path: fixed header, then raw little-endian float64
    increments, component-major."""
    header = _DUMP_HEADER.pack(
        _DUMP_MAGIC,
        _DUMP_VERSION,
        path.dim_noise,
        path.resolution_exponent,
        path.horizon,
        path.seed,
    )
    stream.write(header)
    stream.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def read_path(stream: BinaryIO) -> WienerPath:
    """Inverse of :func:`write_path`.

    Raises:
        UsageError: bad magic, unsupported version, or truncated data.
    """
    raw = stream.read(_DUMP_HEADER.size)
    if len(raw) != _DUMP_HEADER.size:
        raise UsageError("truncated path dump header")
    magic, version, m, level, horizon, seed = _DUMP_HEADER.unpack(raw)
    if magic != _DUMP_MAGIC:
        raise UsageError("not a path dump (bad magic)")
    if version != _DUMP_VERSION:
        raise UsageError(f"unsupported path dump version {version}")
    n = 1 << level
    data = stream.read(m * n * 8)
    if len(data) != m * n * 8:
        raise UsageError("truncated path dump data")
    inc = np.frombuffer(data, dtype="<f8").astype(float).reshape(m, n)
    return WienerPath(
        increments=inc,
        resolution=horizon * 2.0**-level,
        resolution_exponent=level,
        horizon=horizon,
        seed=seed,
    )
