"""Output checks: every unit's outputs against the method's properties,
and the first paths of each table against a plain-Python recomputation.

The plain-Python schemes below restate the problems, the Milstein,
tamed Milstein and Euler-Maruyama maps and the path-bounded controller
from their definitions, on Python floats, with Lévy areas summed
directly from the fine increments. They share nothing with milsde but
the driving path, which is the experiment's input.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate

SLOPE_BAND = (0.8, 1.2)  # strong order one, as in the paper's tables
MOMENT_SE = 4.0  # sampled moments must lie within this many standard errors
BACKSTOP_SE = 2.0  # the trigger probability may not rise by more than this

#: E[A^b] of the Lévy area A over a unit window, b = 1..4. The
#: characteristic function of A is sech(lambda / 2), so the odd moments
#: vanish, E[A^2] = 1/4 and E[A^4] = 5/16.
LEVY_MOMENTS = {1: 0.0, 2: 0.25, 3: 0.0, 4: 5.0 / 16.0}

#: Relative tolerance for recomputed endpoints, fixed from float64
#: rounding: a step rounds by a few ulps and the longest solve has 2^16
#: steps, so 2^16 steps times 2^6 ulps of headroom gives 2^-30.
ENDPOINT_RTOL = 2.0**16 * 2.0**6 * sys.float_info.epsilon

NOISE_SCALE = 0.2  # milsde's noise scale for every built-in problem


@dataclass
class Tally:
    """Counts checks attempted and failed, keeping a line per failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def without_column(text: str, column: str) -> str:
    """The CSV with one column removed (unchanged if it has none)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or column not in rows[0]:
        return text
    i = rows[0].index(column)
    return "\n".join(",".join(r[:i] + r[i + 1:]) for r in rows)


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


# ---------------------------------------------------------------------------
# Checks on the CSVs every unit writes
# ---------------------------------------------------------------------------


def check_identical(tally: Tally, name: str, texts: list[str], ignore: str | None) -> None:
    """All units of a run must write the same file, timing column aside."""
    first = without_column(texts[0], ignore) if ignore else texts[0]
    for k, text in enumerate(texts[1:], start=1):
        same = (without_column(text, ignore) if ignore else text) == first
        tally.check(same, f"{name} of unit {k} differs from unit 0")


def check_table(tally: Tally, text: str, spec) -> int:
    """Checks one convergence.csv; returns its divergent path count."""
    rows = read_rows(text)
    adaptive = [r for r in rows if r["scheme"] == "adaptive"]
    expected = sorted(2.0**-e for e in spec.h_max_exponents)
    h_max = [float(r["h_max"]) for r in adaptive]
    if not tally.check(h_max == expected, f"adaptive rows are at h_max {h_max}, expected {expected}"):
        return sum(int(r["divergent_count"]) for r in rows)
    divergent = 0
    for r in rows:
        n = int(r["divergent_count"])
        divergent += n
        tally.check(n == 0, f"{r['scheme']} row at h_max {r['h_max']} has {n} divergent paths")
    for h, r in zip(h_max, adaptive):
        h_mean = float(r["h_mean"])
        tally.check(
            h / spec.rho <= h_mean <= h,
            f"adaptive h_mean {h_mean:g} outside [h_max/rho, h_max] at h_max {h:g}",
        )
    rms = [float(r["rms_error"]) for r in adaptive]
    usable = all(math.isfinite(e) and e > 0.0 for e in rms)
    slope = _slope([math.log2(h) for h in h_max], [math.log2(e) for e in rms]) if usable else math.nan
    lo, hi = SLOPE_BAND
    tally.check(lo <= slope <= hi, f"adaptive slope {slope:.3f} outside [{lo}, {hi}]")
    return divergent


def check_backstop(tally: Tally, text: str, rhos: tuple[float, ...]) -> None:
    rows = read_rows(text)
    got = tuple(float(r["rho"]) for r in rows)
    if not tally.check(got == rhos, f"backstop curve at rho {got}, expected {rhos}"):
        return
    prob = [float(r["prob"]) for r in rows]
    se = [float(r["prob_std_error"]) for r in rows]
    tally.check(prob[0] > 0.0, f"trigger probability {prob[0]} at rho {rhos[0]:g} is not positive")
    tally.check(prob[-1] == 0.0, f"trigger probability {prob[-1]} at rho {rhos[-1]:g} is not zero")
    for i in range(len(prob) - 1):
        rise = prob[i + 1] - prob[i]
        tally.check(
            rise <= BACKSTOP_SE * math.hypot(se[i], se[i + 1]),
            f"trigger probability rises by {rise:.3f} from rho {rhos[i]:g} to {rhos[i + 1]:g}",
        )


def check_moments(tally: Tally, text: str, orders: tuple[int, ...], targets=LEVY_MOMENTS) -> None:
    rows = read_rows(text)
    got = tuple(int(r["order"]) for r in rows)
    if not tally.check(got == orders, f"moment orders {got}, expected {orders}"):
        return
    for r in rows:
        b = int(r["order"])
        target = targets[b]
        est = float(r["signed_estimate"])
        se = float(r["signed_std_error"])
        tally.check(
            se > 0.0 and abs(est - target) <= MOMENT_SE * se,
            f"E[A^{b}] estimate {est:.5f} is not within {MOMENT_SE:g} SE ({se:.5f}) of {target}",
        )
        tally.check(
            float(r["signed_target"]) == target,
            f"milsde's E[A^{b}] constant {r['signed_target']} differs from {target}",
        )


# ---------------------------------------------------------------------------
# Plain-Python recomputation of table endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """dX = f(X) dt + sum_j g_j(X) dW_j with constant Jacobians Dg_j."""

    drift: object
    columns: object
    jacobians: tuple
    initial: tuple[float, ...]


def _scalar_mult() -> Model:
    s = NOISE_SCALE
    return Model(
        drift=lambda y: [y[0] - y[0] * y[0] * y[0]],
        columns=lambda y: [[s * (1.0 - y[0])]],
        jacobians=([[-s]],),
        initial=(2.0,),
    )


def _twod_noncommutative() -> Model:
    s = NOISE_SCALE
    return Model(
        drift=lambda y: [v - 3.0 * v * v * v for v in y],
        columns=lambda y: [[1.5 * s * y[0], s * y[1]], [s * y[1], 1.5 * s * y[0]]],
        jacobians=([[1.5 * s, 0.0], [0.0, s]], [[0.0, s], [1.5 * s, 0.0]]),
        initial=(2.0, 3.0),
    )


MODELS = {"scalar_mult": _scalar_mult, "twod_noncommutative": _twod_noncommutative}


class Driving:
    """A driving path's fine increments as Python floats, with window sums."""

    def __init__(self, increments, resolution: float):
        self.inc = [list(map(float, row)) for row in increments]
        # Increments sit on a 2^-32 grid, so these prefix sums are exact.
        self.prefix = [list(accumulate(row, initial=0.0)) for row in self.inc]
        self.n = len(self.inc[0])
        self.h_ref = resolution

    def window(self, a: int, b: int) -> tuple[list[float], float]:
        """Increments over fine steps [a, b) and the Lévy area A[0][1]."""
        dw = [p[b] - p[a] for p in self.prefix]
        if len(self.inc) == 1:
            return dw, 0.0
        x, y = self.inc
        w0 = w1 = s01 = s10 = 0.0
        for k in range(a, b):
            s01 += w0 * y[k]
            s10 += w1 * x[k]
            w0 += x[k]
            w1 += y[k]
        return dw, 0.5 * (s01 - s10)


def plain_step(model: Model, kind: str, y, h: float, dw, area: float) -> list[float]:
    """One Milstein ("milstein"), tamed Milstein ("tamed") or
    Euler-Maruyama ("euler") step over a window with increments ``dw``."""
    f = model.drift(y)
    if kind == "tamed":
        c = h / (1.0 + h * math.sqrt(sum(v * v for v in f)))
    else:
        c = h
    d = len(y)
    out = [y[r] + c * f[r] for r in range(d)]
    cols = model.columns(y)
    m = len(cols)
    for j in range(m):
        out = [out[r] + cols[j][r] * dw[j] for r in range(d)]
    if kind == "euler":
        return out

    def double(j: int, i: int) -> float:
        # Iterated integral, component j inner and i outer.
        if i == j:
            return 0.5 * (dw[i] * dw[i] - h)
        a = area if (j, i) == (0, 1) else -area
        return 0.5 * dw[j] * dw[i] + a

    for i in range(m):
        v = [sum(cols[j][r] * double(j, i) for j in range(m)) for r in range(d)]
        jac = model.jacobians[i]
        out = [out[r] + sum(jac[r][c] * v[c] for c in range(d)) for r in range(d)]
    return out


def plain_fixed(model: Model, kind: str, substeps: int, path: Driving):
    """Fixed-step solve; a shorter last step lands on the horizon."""
    y = list(model.initial)
    pos = steps = 0
    while pos < path.n:
        end = min(pos + substeps, path.n)
        dw, area = path.window(pos, end)
        y = plain_step(model, kind, y, (end - pos) * path.h_ref, dw, area)
        pos, steps = end, steps + 1
    return y, steps, 0


def plain_adaptive(model: Model, h_max: float, rho: float, path: Driving):
    """Path-bounded controller: h = clamp(h_max / |y|, [h_max/rho, h_max])
    rounded down to the fine grid; a step the floor pins runs the tamed
    map; the last step is cut to the horizon and is never a backstop."""
    h_min = h_max / rho
    k_min = math.ceil(h_min / path.h_ref)
    k_max = math.floor(h_max / path.h_ref)
    y = list(model.initial)
    pos = steps = backstops = 0
    while pos < path.n:
        norm = math.hypot(*y)
        raw = math.inf if norm == 0.0 else h_max / norm
        pinned = raw <= h_min
        k = k_min if pinned else min(max(math.floor(min(raw, h_max) / path.h_ref), k_min), k_max)
        clamped = pos + k > path.n
        if clamped:
            k = path.n - pos
        backstop = pinned and not clamped
        dw, area = path.window(pos, pos + k)
        y = plain_step(model, "tamed" if backstop else "milstein", y, k * path.h_ref, dw, area)
        pos, steps, backstops = pos + k, steps + 1, backstops + backstop
    return y, steps, backstops


def comparator_steps(text: str, fixed_scheme: str) -> list[float]:
    """Matched comparator steps as the table recorded them."""
    return [float(r["h_max"]) for r in read_rows(text) if r["scheme"] == fixed_scheme]


def plain_endpoints(spec, seed: int, comparators: list[float], milsde) -> dict:
    """(endpoint, steps, backstop steps) of every solve on path ``seed``."""
    problem = milsde.make_builtin(spec.problem)
    wp = milsde.generate_path(seed, spec.fine_exponent, problem.dim_noise, problem.horizon)
    path = Driving(wp.increments, wp.resolution)
    model = MODELS[spec.problem]()
    units = 2 ** (spec.fine_exponent - spec.reference_exponent)
    out = {"reference": plain_fixed(model, "tamed", units, path)}
    for e in spec.h_max_exponents:
        out[("adaptive", e)] = plain_adaptive(model, 2.0**-e, spec.rho, path)
    for step in comparators:
        out[(spec.fixed_scheme, step)] = plain_fixed(model, spec.fixed_scheme, round(step / path.h_ref), path)
    return out


def program_endpoints(spec, seed: int, comparators: list[float], milsde, zero_levy_area=False) -> dict:
    """The same solves through milsde's integrators."""
    problem = milsde.make_builtin(spec.problem)
    path = milsde.generate_path(seed, spec.fine_exponent, problem.dim_noise, problem.horizon)

    def summary(sol):
        return list(sol.final_state), sol.num_steps, int(sol.backstop_flags.sum())

    ref = milsde.integrate_fixed(problem, "tamed", 2.0**-spec.reference_exponent, path)
    out = {"reference": summary(ref)}
    for e in spec.h_max_exponents:
        cfg = milsde.StrategyConfig(h_max=2.0**-e, rho=spec.rho)
        out[("adaptive", e)] = summary(
            milsde.integrate_adaptive(problem, cfg, path, zero_levy_area=zero_levy_area)
        )
    for step in comparators:
        out[(spec.fixed_scheme, step)] = summary(
            milsde.integrate_fixed(problem, spec.fixed_scheme, step, path, zero_levy_area=zero_levy_area)
        )
    return out


def check_endpoints(tally: Tally, seed: int, plain: dict, program: dict) -> None:
    for key, (y, steps, backstops) in plain.items():
        got_y, got_steps, got_backstops = program[key]
        scale = max(1.0, *(abs(v) for v in y))
        dev = max(abs(a - b) for a, b in zip(y, got_y))
        tally.check(
            got_steps == steps and got_backstops == backstops and dev <= ENDPOINT_RTOL * scale,
            f"seed {seed} {key}: milsde ends at {got_y} after {got_steps} steps "
            f"({got_backstops} backstop), plain Python at {y} after {steps} ({backstops})",
        )
