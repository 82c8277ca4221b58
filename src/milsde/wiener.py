"""Wiener path generation and iterated stochastic integrals.

A :class:`WienerPath` stores the m-dimensional driving noise as fine
Gaussian increments on a dyadic grid of n = 2**L steps over [0, T],
given by T and n alone: the resolution T / n is derived. Coarse solves,
adaptive solves and the reference solve of an experiment all consume
windows of the same fine path, which is what couples them for
strong-error estimation.

Two deliberate representation choices:

* Increments are rounded to the fixed grid 2**-32 when drawn, and held
  as int64 grid units from the draw to the window read. Floats appear
  only in a :class:`WienerPath`, whose increments are checked to lie on
  the grid where they enter, and in the integrals a read returns. All
  window sums (and their partial sums) are then exact in float64, so
  sums over adjacent windows add bit-exactly. The statistical distortion
  is a uniform +-2**-33 perturbation per increment, about 4e-7 of one
  increment's standard deviation at L = 20, far below every tolerance.

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
int64 limbs beside W, the low one summed without carries, and the area
is rounded once, to nearest. A window of one fine step therefore has an
area of exactly zero, and any window's area is its exact left-point sum,
correctly rounded.

Every solve, adaptive or on a fixed mesh, reads its windows this way,
so all of them see the same areas.

A block of paths can also be drawn in slabs of consecutive fine steps
(:class:`PathStreams`, each with a generator of its own), which join
into exactly the paths :func:`generate_path` gives; prefix arrays can
then hold a sliding window of the block instead of whole paths
(:meth:`PathPrefixes.streamed`), and each :meth:`PathPrefixes.advance`
appends the next slab, drawn by a callable its caller passes. Path k of
an experiment is drawn from seed ``base_seed ^ k``.

Moment constants of the Levy area come from the Taylor series of sech
(Euler numbers), computed in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceError, UsageError

__all__ = [
    "WienerPath",
    "PathPrefixes",
    "PathStreams",
    "IteratedIntegrals",
    "double_integrals",
    "generate_path",
    "integrals_over",
    "uniform_integrals",
    "euler_number",
    "LevyMomentTable",
    "moment_constant",
    "MomentCheckRow",
    "moment_check",
]

#: Quantization grid for fine increments; see module docstring.
INCREMENT_GRID = 2.0**-32

#: Cross sums are held as hi * 2**_LIMB_BITS + lo in two int64 limbs.
_LIMB_BITS = 24
_LIMB_MASK = (1 << _LIMB_BITS) - 1

#: Refuse to allocate paths above this many bytes of increment storage.
_MAX_PATH_BYTES = 1 << 33

#: Largest resolution exponent L an experiment takes (2**30 fine steps).
_MAX_EXPONENT = 30

_SEED_MASK = (1 << 64) - 1

#: Base seed of an experiment unless one is given.
DEFAULT_BASE_SEED = 12345


#: Largest horizon T: W in int64 grid units (|W| < 2**31) spans 2**11 sd of W(T).
#: The smallest is its inverse, so T / 2**30 is a normal float.
_MAX_HORIZON = 2.0**40


def _check_horizon(horizon: float) -> None:
    """UsageError unless 1 / _MAX_HORIZON <= horizon <= _MAX_HORIZON."""
    if not 1.0 / _MAX_HORIZON <= horizon <= _MAX_HORIZON:
        raise UsageError(f"horizon must lie in [2**-40, 2**40], got {horizon}")


@dataclass(frozen=True)
class WienerPath:
    """Fine-grid increments of an m-dimensional Wiener process on [0, T];
    :attr:`resolution` h_ref = T / 2**L and :attr:`resolution_exponent`
    L are derived. A UsageError refuses any other shape, or T out of range.

    Attributes:
        increments: (m, 2**L) float64 array; entry [i, k] is
            W_i((k+1) h_ref) - W_i(k h_ref), quantized (see module doc).
        horizon: T, with 2**-40 <= T <= 2**40.
    """

    increments: np.ndarray
    horizon: float
    _prefixes: "PathPrefixes | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise UsageError("increments must be a 2-d (m, num_steps) array")
        if inc.shape[1].bit_count() != 1:
            raise UsageError(f"num_steps must be a power of two, got {inc.shape[1]}")
        _check_horizon(self.horizon)
        object.__setattr__(self, "increments", inc)

    @property
    def dim_noise(self) -> int:
        return self.increments.shape[0]

    @property
    def num_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def resolution_exponent(self) -> int:
        return self.num_steps.bit_length() - 1

    @property
    def resolution(self) -> float:
        return self.horizon / self.num_steps

    def prefixes(self) -> "PathPrefixes":
        """This path's prefix arrays, built on first use and kept."""
        if self._prefixes is None:
            pref = PathPrefixes.of(self.increments, self.horizon)
            object.__setattr__(self, "_prefixes", pref)
        return self._prefixes


def _exact_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * y of int64 arrays as limbs (hi, lo): x y = hi 2**24 + lo with
    0 <= lo < 2**24. Exact while |x|, |y| < 2**43."""
    x1, x0 = x >> _LIMB_BITS, x & _LIMB_MASK
    y1, y0 = y >> _LIMB_BITS, y & _LIMB_MASK
    low = x0 * y0
    hi = ((x1 * y1) << _LIMB_BITS) + x1 * y0 + x0 * y1 + (low >> _LIMB_BITS)
    return hi, low & _LIMB_MASK


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for the pairs i < j of m components (``np.triu_indices``
    order): (i, j), and the orders (i, j) and (j, i) of both, joined."""
    i, j = np.triu_indices(m, 1)
    return i, j, np.concatenate([i, j]), np.concatenate([j, i])


def _antisymmetric(area: np.ndarray, m: int) -> np.ndarray:
    """Antisymmetric (..., m, m) matrices with (..., P) ``area`` above the diagonal."""
    i, j = _pairs(m)[:2]
    A = np.zeros(area.shape[:-1] + (m, m))
    A[..., i, j] = area
    A[..., j, i] = -area
    return A


#: Increments (fine steps times noise components, over all paths written
#: at once) per pass of a prefix fill; bounds temporaries.
_FILL_CHUNK = 1 << 14

#: Cap on the window of a streamed block per _BLOCK_PATHS of its paths
#: (rounded up; see :meth:`PathPrefixes.streamed`). A moment-check group
#: has as many paths as whole paths of grid units fit in it.
_GROUP_BYTES = 2 << 20

#: Paths of a streamed block per _GROUP_BYTES of its window.
_BLOCK_PATHS = 25


@dataclass(eq=False)
class PathPrefixes:
    """Prefix arrays of a group of paths on one fine grid, from which the
    integrals of any window of any of them are read in O(1).

    The arrays hold the fine nodes ``start .. frontier`` of every path,
    column c holding node ``start + c``. Whole-path arrays (:meth:`of`)
    hold every node: start 0, frontier ``num_steps``. Streamed arrays
    (:meth:`streamed`) hold a sliding window: each :meth:`advance` drops
    the nodes behind a given one and appends the next slab of every
    path, drawn by the callable it is passed.

    Attributes:
        sums: (G, m + 2P, C) int64 with P = m(m-1)/2. ``sums[g, i, c]``
            (i < m) is W_i at node start + c (time (start + c) T / n) of
            path g in grid units. For the p-th pair i < j (in
            ``np.triu_indices`` order), ``sums[g, m + p, c]`` and
            ``sums[g, m + P + p, c]`` are the high and the low limb of
            the cross sum C(k) of the module docstring: C(k) = high *
            2**24 + low exactly, in 2**-64 units, where low sums the
            steps' low limbs in [0, 2**24) without carries (< 2**54).
        horizon: T.
        num_steps: n, the fine steps of each path.
        frontier: the last node held.
        start: the node in column 0.
        slab: fine steps appended per :meth:`advance` (the last slab
            may be shorter); 0 for whole-path arrays.
        resolution: the fine step h_ref = T / n, derived once.

    A node of a path takes :meth:`bytes_per_node` bytes here; the raw
    increments are not kept. Only :meth:`of` takes float increments;
    :meth:`advance` takes grid units, as :meth:`PathStreams.draw` gives.
    """

    sums: np.ndarray
    horizon: float
    num_steps: int
    frontier: int
    start: int = 0
    slab: int = 0
    resolution: float = field(init=False)

    def __post_init__(self):
        self.resolution = self.horizon / self.num_steps

    @staticmethod
    def bytes_per_node(dim_noise: int) -> int:
        return 8 * dim_noise * dim_noise  # m + 2P int64 rows

    @staticmethod
    def stream_size(dim_noise: int, widest: int) -> int | None:
        """Paths per block whose streamed window fits the 2 MiB cap with
        slabs at least half of ``widest`` fine steps long (see
        :meth:`slab_steps`); at least one. None (no limit) when that
        holds for 25 paths: the cap grows by 2 MiB per 25 paths of a
        block, so the slabs of any larger block are as long. Longer
        slabs let fewer lanes wait; more paths per block share more of
        each lockstep round."""
        per_node = PathPrefixes.bytes_per_node(dim_noise)
        size = max(1, 2 * _GROUP_BYTES // (widest * (3 * per_node + 8 * dim_noise)))
        return None if size >= _BLOCK_PATHS else size

    @staticmethod
    def slab_steps(count: int, dim_noise: int, num_steps: int, widest: int, unit: int) -> int:
        """Fine steps per slab of a streamed window over ``count`` paths:
        the largest whole multiple of ``unit`` such that ``widest`` nodes
        plus the slab's nodes and its increments fit the cap of
        2 MiB per 25 paths (rounded up); at least ``unit`` and at most
        the path."""
        cap = _GROUP_BYTES * -(-count // _BLOCK_PATHS)
        per_node = count * PathPrefixes.bytes_per_node(dim_noise)
        room = (cap - per_node * widest) // (per_node + count * dim_noise * 8)
        return min(num_steps, max(unit, room // unit * unit))

    @classmethod
    def _alloc(cls, count, dim_noise, nodes, horizon, num_steps, frontier, **kw):
        sums = np.empty((count, dim_noise * dim_noise, nodes), dtype=np.int64)
        sums[:, :, 0] = 0
        return cls(sums, horizon, num_steps, frontier, **kw)

    @classmethod
    def streamed(
        cls,
        count: int,
        dim_noise: int,
        num_steps: int,
        horizon: float,
        widest: int,
        unit: int = 1,
    ) -> "PathPrefixes":
        """A sliding window over ``count`` paths, holding node 0 until
        the first :meth:`advance`.

        The window holds ``widest`` nodes plus one slab (see
        :meth:`slab_steps`), so it stays within the cap of 2 MiB per 25
        paths (rounded up) unless ``widest`` plus one ``unit`` alone
        exceed it. Slabs are whole multiples of ``unit`` fine steps, so
        they end on the boundaries of windows of ``unit`` steps.
        """
        slab = cls.slab_steps(count, dim_noise, num_steps, widest, unit)
        nodes = min(num_steps + 1, widest + slab)
        return cls._alloc(count, dim_noise, nodes, horizon, num_steps, 0, slab=slab)

    @classmethod
    def of(cls, increments: np.ndarray, horizon: float) -> "PathPrefixes":
        """The whole-path prefix arrays of a stack of paths' (G, m, n)
        float increments over [0, ``horizon``], or of one path's (m, n),
        each converted to grid units as it is written.

        Raises:
            UsageError: the increments are off the 2**-32 grid, or (for
                m > 1) so large that the exact cross sums could overflow
                their limbs.
        """
        stack = increments if increments.ndim == 3 else increments[None]
        count, m, n = stack.shape
        prefixes = cls._alloc(count, m, n + 1, horizon, n, n)
        chunk = max(1, _FILL_CHUNK // (count * m))
        for a in range(0, n, chunk):
            prefixes._append(a, _grid_units(stack[:, :, a : a + chunk]))
        return prefixes

    @property
    def dim_noise(self) -> int:
        return math.isqrt(self.sums.shape[1])

    def advance(self, keep_from: int, draw: Callable[[int], np.ndarray]) -> None:
        """Drop the nodes before ``keep_from`` (a held node) and append
        the next slab of every path: ``draw(steps)`` returns the next
        ``steps`` increments of every path in grid units, (G, m, steps)
        int64, and the slab is left as it was drawn.

        Raises:
            UsageError: every node is already held, or the nodes kept
                and the slab do not fit the window.
        """
        steps = min(self.slab, self.num_steps - self.frontier)
        kept = self.frontier - keep_from + 1
        if steps < 1:
            raise UsageError("the prefix arrays already hold every node")
        if not (self.start <= keep_from <= self.frontier and kept + steps <= self.sums.shape[2]):
            raise UsageError(
                f"cannot keep nodes {keep_from}..{self.frontier} and a slab of "
                f"{steps} in a window of {self.sums.shape[2]} nodes"
            )
        units = draw(steps)
        drop = keep_from - self.start
        if drop:
            self.sums[:, :, :kept] = self.sums[:, :, drop : drop + kept]
            self.start = keep_from
        self._append(kept - 1, units)
        self.frontier += steps

    def _append(self, col: int, units: np.ndarray) -> None:
        """Continue the prefix arrays from column ``col`` with (G, m, s)
        increments in grid units, in chunks that bound the temporaries."""
        m, s = units.shape[1:]
        w, c = self.sums[:, :m], self.sums[:, m:]
        chunk = max(1, _FILL_CHUNK // (len(self.sums) * m))
        for a in range(col, col + s, chunk):
            b = min(col + s, a + chunk)
            d = units[:, :, a - col : b - col]
            # W at the chunk's start rides on its first increment, and is
            # taken off again, leaving the caller's increments as they were.
            d[:, :, 0] += w[:, :, a]
            np.cumsum(d, axis=2, out=w[:, :, a + 1 : b + 1])
            d[:, :, 0] -= w[:, :, a]
            if m == 1:
                continue
            # Cross terms from W at each step's left point, summed limb
            # by limb without carries (see ``sums``).
            terms = _cross_terms(w[:, :, a:b], d, self.num_steps)
            terms[:, :, 0] += c[:, :, a]
            np.cumsum(terms, axis=2, out=c[:, :, a + 1 : b + 1])

    def windows(
        self,
        rows: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        zero_area: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integrals of the windows [start, end) of paths ``rows``, one
        window per entry of the arrays broadcast together, of shape S:
        (h S, dW S + (m,), A S + (m, m)). Every node of a window must be
        held. ``zero_area`` returns A = 0 instead of the Levy areas."""
        m = self.dim_noise
        h = (end - start) * self.resolution
        if self.start:
            start, end = start - self.start, end - self.start
        at_start = self.sums[rows, :, start]
        diff = self.sums[rows, :, end] - at_start
        dW = diff[..., :m] * INCREMENT_GRID
        if m == 1 or zero_area:
            return h, dW, np.zeros(dW.shape + (m,))
        _, _, ij, ji = _pairs(m)
        P = len(ij) // 2
        # W_i(a) dW_j - W_j(a) dW_i as limbs, per pair.
        prod_hi, prod_lo = _exact_product(at_start[..., ij], diff[..., ji])
        hi = diff[..., m : m + P] - (prod_hi[..., :P] - prod_hi[..., P:])
        lo = diff[..., m + P :] - (prod_lo[..., :P] - prod_lo[..., P:])
        return h, dW, _antisymmetric(_round_areas(hi, lo), m)


def _grid_units(increments: np.ndarray) -> np.ndarray:
    """Float ``increments`` from outside as int64 multiples of the grid.

    Raises:
        UsageError: an increment is off the 2**-32 grid.
    """
    scaled = increments * (1.0 / INCREMENT_GRID)
    d = scaled.astype(np.int64)
    if (d != scaled).any():
        raise UsageError("increments must lie on the 2**-32 grid")
    return d


def _cross_terms(left: np.ndarray, d: np.ndarray, num_steps: int) -> np.ndarray:
    """The per-step terms W_i dW_j - W_j dW_i of the P pairs i < j (in
    ``np.triu_indices`` order), for (G, m, s) left-point W and increments
    d in grid units, as limbs (G, 2P, s): the high limb of each pair, then
    the low ones, with W_i dW_j - W_j dW_i = hi 2**24 + lo, 0 <= lo < 2**24.

    Raises:
        UsageError: on a path of ``num_steps`` fine steps, W or d are so
            large that the limbs of its cross sums could overflow.
    """
    # Bounds that keep every limb below 2**63: |W| < 2**10,
    # |dW| < 2**5 and n |W| |dW| below 2**84 grid units squared.
    w_max = float(np.abs(left).max())
    d_max = float(np.abs(d).max())
    if not (w_max < 2.0**42 and d_max < 2.0**37 and num_steps * w_max * d_max < 2.0**84):
        raise UsageError("path too large for exact Levy areas (|W| >= 2**10)")
    i, j = _pairs(left.shape[1])[:2]
    w_hi, w_lo = left >> _LIMB_BITS, left & _LIMB_MASK
    lo = w_lo[:, i] * d[:, j] - w_lo[:, j] * d[:, i]
    hi = w_hi[:, i] * d[:, j] - w_hi[:, j] * d[:, i] + (lo >> _LIMB_BITS)
    return np.concatenate([hi, lo & _LIMB_MASK], axis=1)


def _round_areas(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The areas A = C / 2 of exact cross sums C = hi 2**24 + lo (2**-64
    units, int64 limbs), rounded once, to nearest."""
    hi = hi + (lo >> _LIMB_BITS)
    # hi and lo are exact floats (|A| < 2**12), so their sum rounds once.
    return (hi * float(1 << _LIMB_BITS) + (lo & _LIMB_MASK)) * 2.0**-65


def _whole_windows(count: int, m: int, steps: int, draw: Callable) -> tuple[np.ndarray, np.ndarray]:
    """dW (G, m) and the areas A[i][j] of the pairs i < j (G, P), in
    ``np.triu_indices`` order, of the windows [0, ``steps``) of ``count``
    paths whose increments ``draw(a, b)`` returns as (G, m, b - a) grid
    units. They are filled slab by slab through prefix arrays that keep
    only their frontier node: W(0) = C(0) = 0, so dW = W(steps) and
    2 A = C(steps), with the bits :meth:`PathPrefixes.windows` gives.

    Raises:
        UsageError: as :meth:`PathPrefixes.of` with n = ``steps``.
    """
    fill = PathPrefixes.streamed(count, m, steps, 1.0, 1)
    while fill.frontier < steps:
        a = fill.frontier
        fill.advance(a, lambda s: draw(a, a + s))
    node = fill.sums[:, :, fill.frontier - fill.start]
    return node[:, :m] * INCREMENT_GRID, _round_areas(*np.split(node[:, m:], 2, axis=1))


def _path_seeds(base_seed: int, paths: range) -> tuple[int, ...]:
    """The seeds of an experiment's ``paths``: path k uses base_seed ^ k."""
    return tuple(base_seed ^ k for k in paths)


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


class PathStreams:
    """The open generation streams of a block of paths.

    Each :meth:`draw` returns the next fine increments of every path, so
    a block's paths can be generated in slabs of consecutive steps
    instead of whole. Component i of path g continues the Philox stream
    keyed by (seeds[g], i), and the slabs join into exactly the
    increments :func:`generate_path` gives each seed, bit for bit. A
    generator of their own, seeded (so no OS entropy), takes each
    stream's state as it draws. A UsageError refuses an empty block,
    L outside [1, 30], m < 1 or T outside [2**-40, 2**40].
    """

    def __init__(
        self, seeds: Sequence[int], resolution_exponent: int, dim_noise: int, horizon: float = 1.0
    ):
        _check_exponent("resolution_exponent", resolution_exponent)
        if dim_noise < 1:
            raise UsageError("dim_noise must be >= 1")
        if not len(seeds):
            raise UsageError("at least one seed is required")
        _check_horizon(horizon)
        self.num_steps = 1 << resolution_exponent
        self.drawn = 0
        self._scale = math.sqrt(horizon / self.num_steps)
        self._states = [[_stream_state(s, i) for i in range(dim_noise)] for s in seeds]
        self._generator = np.random.Generator(np.random.Philox(0))

    def draw(self, steps: int) -> np.ndarray:
        """The next ``steps`` fine increments of every path, (G, m, steps),
        as int64 grid units: each stream's normals times the step's
        standard deviation, times 2**32, rounded to nearest.

        Raises:
            UsageError: fewer than ``steps`` steps are left to draw.
        """
        if not 0 < steps <= self.num_steps - self.drawn:
            raise UsageError(
                f"cannot draw {steps} steps; {self.num_steps - self.drawn} are left"
            )
        self.drawn += steps
        units = np.empty((len(self._states), len(self._states[0]), steps), dtype=np.int64)
        row = np.empty(steps)  # one stream's normals at a time
        gen = self._generator
        for path, states in zip(units, self._states):
            for i, state in enumerate(states):
                gen.bit_generator.state = state
                gen.standard_normal(out=row)
                if self.drawn < self.num_steps:
                    states[i] = gen.bit_generator.state
                row *= self._scale
                row *= 1.0 / INCREMENT_GRID
                path[i] = np.rint(row, out=row)
        return units


def _check_exponent(name: str, level: int) -> None:
    """UsageError unless 1 <= level <= _MAX_EXPONENT."""
    if not 1 <= level <= _MAX_EXPONENT:
        raise UsageError(f"need 1 <= {name} <= {_MAX_EXPONENT}, got {level}")


def _check_path_bytes(dim_noise: int, level: int) -> None:
    """ResourceError unless (dim_noise, 2**level) float increments fit
    _MAX_PATH_BYTES; a huge level is refused before any shift."""
    if level > _MAX_PATH_BYTES.bit_length() or dim_noise * 8 << level > _MAX_PATH_BYTES:
        raise ResourceError(
            f"path of {dim_noise} x 2**{level} increments needs more than "
            f"{_MAX_PATH_BYTES} bytes; lower resolution_exponent or dim_noise"
        )


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
        resolution_exponent: 1 <= L <= 30; the path has 2**L fine steps.
        dim_noise: m >= 1.
        horizon: 2**-40 <= T <= 2**40.

    Raises:
        UsageError: invalid arguments.
        ResourceError: the increment array would exceed the memory budget.
    """
    streams = PathStreams([seed], resolution_exponent, dim_noise, horizon)
    _check_path_bytes(dim_noise, resolution_exponent)
    n = 1 << resolution_exponent
    increments = np.empty((dim_noise, n))
    slab = max(1, _FILL_CHUNK // dim_noise)  # grid units are held one slab at a time
    for a in range(0, n, slab):
        units = streams.draw(min(slab, n - a))[0]
        np.multiply(units, INCREMENT_GRID, out=increments[:, a : a + slab])
    return WienerPath(increments, horizon)


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


def double_integrals(h, dW: np.ndarray, A: np.ndarray) -> np.ndarray:
    """I from the increments and areas of one window (dW (m,), A (m, m))
    or of a batch (dW (L, m), A (L, m, m), h of shape (L, 1)):
    ``I[i, j] = dW_i dW_j / 2 + A[i, j]`` off the diagonal and
    ``(dW_i**2 - h) / 2`` on it, which is all of I when m = 1."""
    m = dW.shape[-1]
    if m == 1:
        return (0.5 * (dW * dW - h))[..., None]
    I = 0.5 * (dW[..., :, None] * dW[..., None, :]) + A
    I.reshape(I.shape[:-2] + (m * m,))[..., :: m + 1] = 0.5 * (dW * dW - h)
    return I


def integrals_over(path: WienerPath, start: int, end: int) -> IteratedIntegrals:
    """Increments and iterated integrals over fine-step window [start, end).

    Args:
        path: the fine path.
        start, end: fine-step indices, 0 <= start < end <= num_steps.

    Returns:
        IteratedIntegrals for the window of length (end - start) * h_ref,
        read through the prefix fill slab by slab (see :func:`_whole_windows`):
        O(end - start) time and about one slab of memory.
    """
    if not (0 <= start < end <= path.num_steps):
        raise UsageError(
            f"window [{start}, {end}) out of range for {path.num_steps} fine steps"
        )
    m, inc = path.dim_noise, path.increments[None, :, start:end]
    dW, area = _whole_windows(1, m, end - start, lambda a, b: _grid_units(inc[..., a:b]))
    A = _antisymmetric(area, m)[0]
    return IteratedIntegrals.from_components((end - start) * path.resolution, dW[0], A)


def uniform_integrals(
    path: WienerPath, substeps: int, zero_area: bool = False
) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Window integrals of a uniform mesh of ``substeps``-sized windows,
    read from the path's prefix arrays.

    Covers the first ``(num_steps // substeps) * substeps`` fine steps;
    a shorter trailing remainder (if any) is the caller's business.

    Returns:
        (count, h, dW_all, I_all) where dW_all has shape (count, m) and
        I_all has shape (count, m, m), with the bits
        :func:`integrals_over` gives each window. ``zero_area`` zeroes
        the Levy areas.
    """
    if substeps < 1 or substeps > path.num_steps:
        raise UsageError("substeps must be in [1, num_steps]")
    count = path.num_steps // substeps
    start = np.arange(count) * substeps
    rows = np.zeros(count, np.intp)
    _, dW, A = path.prefixes().windows(rows, start, start + substeps, zero_area)
    h = substeps * path.resolution
    return count, h, dW, double_integrals(h, dW, A)


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
    base_seed: int = DEFAULT_BASE_SEED,
) -> list[MomentCheckRow]:
    """Monte Carlo validation of Levy-area moments over unit windows.

    Accumulates A over ``num_windows`` independent two-component unit
    paths at the given resolution and compares sample moments of
    A[0, 1] against :func:`moment_constant`. Path k uses seed
    ``base_seed ^ k``; each path's area is read through the prefix fill,
    a group of paths at a time. The left-point sum biases
    E[A^2] by the factor (1 - 2**-L), far below the 4-standard-error
    tolerance at the default sizes.

    Raises:
        UsageError: fewer than 100 windows, an order outside [1, 8], or
            a resolution exponent outside [1, 30].
        ResourceError: one path's increments would exceed the memory
            budget.
    """
    _check_exponent("resolution_exponent", resolution_exponent)
    if num_windows < 100:
        raise UsageError("num_windows must be >= 100 for a meaningful check")
    if any(not 1 <= b <= 8 for b in orders):
        raise UsageError("Monte Carlo moment orders must be in [1, 8]")
    _check_path_bytes(2, resolution_exponent)
    samples = np.empty(num_windows)
    n = 1 << resolution_exponent
    size = max(1, _GROUP_BYTES // (8 * 2 * n))
    for first in range(0, num_windows, size):
        seeds = _path_seeds(base_seed, range(first, min(num_windows, first + size)))
        streams = PathStreams(seeds, resolution_exponent, 2)
        area = _whole_windows(len(seeds), 2, n, lambda a, b: streams.draw(b - a))[1]
        samples[first : first + len(seeds)] = area[:, 0]
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
