"""Per-layer spans around milsde's public functions.

The tracer replaces each traced function, in every milsde module that
binds it, with a wrapper that times the call. Spans nest the way the
calls nest (the harness calls the integrators, the integrators call the
window integrals, the controller and the step map), so each span's self
time is its duration minus the traced calls made inside it. Totals are
kept in memory per span name; nothing is written while a unit runs.
"""

from __future__ import annotations

import importlib
import time

#: Modules whose attributes are patched, so a function is traced under
#: whichever module the caller looks it up in.
MODULES = ("wiener", "steppers", "adaptive", "harness", "cli")

#: (defining module, function) pairs that are traced.
TARGETS = (
    ("wiener", "generate_path"),
    ("wiener", "integrals_over"),
    ("wiener", "uniform_integrals"),
    ("wiener", "moment_check"),
    ("steppers", "advance_state"),
    ("adaptive", "propose_step"),
    ("adaptive", "integrate_adaptive"),
    ("adaptive", "integrate_fixed"),
    ("harness", "convergence_table"),
    ("harness", "backstop_probability"),
    ("cli", "main"),
)

# Fields of a span total.
SECONDS, SELF, CALLS, COUNT_A, COUNT_B = range(5)


class Tracer:
    """Records span totals for the calls made while it is installed.

    ``reference_step`` tells the reference solve (tamed scheme at that
    step) apart from the fixed-step comparators; both are
    ``integrate_fixed`` calls.
    """

    def __init__(self, reference_step: float | None):
        self.reference_step = reference_step
        self.totals: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [name, nested seconds]
        self._undo: list[tuple] = []

    def reset(self) -> dict[str, list]:
        """Return the totals so far and start new ones."""
        totals, self.totals = self.totals, {}
        return totals

    def install(self) -> None:
        modules = {m: importlib.import_module(f"milsde.{m}") for m in MODULES}
        self.missing = []
        for home, attr in TARGETS:
            original = getattr(modules[home], attr, None)
            if not callable(original):
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(original, home, attr)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _fixed_span_name(self, args, kwargs) -> str:
        scheme = args[1] if len(args) > 1 else kwargs.get("scheme")
        step = args[2] if len(args) > 2 else kwargs.get("step_size")
        if scheme == "tamed" and step == self.reference_step:
            return "adaptive.reference"
        return "adaptive.comparator"

    def _counts(self, attr: str, args, kwargs, result) -> tuple[int, int]:
        if attr == "generate_path":
            in_harness = any(frame[0] == "harness" for frame in self._stack)
            return int(result.increments.size), int(in_harness)
        if attr == "integrals_over":
            start = args[1] if len(args) > 1 else kwargs["start"]
            end = args[2] if len(args) > 2 else kwargs["end"]
            return end - start, 0
        if attr == "integrate_adaptive":
            return result.num_steps, int(result.backstop_flags.sum())
        if attr == "integrate_fixed":
            return result.num_steps, 0
        return 0, 0

    def _wrap(self, fn, home: str, attr: str):
        stack = self._stack
        perf = time.perf_counter
        plain = attr in ("advance_state", "propose_step", "uniform_integrals")
        fixed_name = home if home in ("harness", "cli") else f"{home}.{attr}"
        by_args = attr == "integrate_fixed"

        def traced(*args, **kwargs):
            name = self._fixed_span_name(args, kwargs) if by_args else fixed_name
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0.0, 0.0, 0, 0, 0]
            total[SECONDS] += seconds
            total[SELF] += seconds - frame[1]
            total[CALLS] += 1
            if not plain:
                a, b = self._counts(attr, args, kwargs, result)
                total[COUNT_A] += a
                total[COUNT_B] += b
            return result

        return traced


def layer_metrics(totals: dict[str, list], harness_paths: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit, named as in BENCHMARK.json."""

    def get(name: str, field: int):
        total = totals.get(name)
        return total[field] if total else 0

    adv_calls = get("steppers.advance_state", CALLS)
    adv_s = get("steppers.advance_state", SECONDS)
    return {
        "wiener.generate_path.s": get("wiener.generate_path", SECONDS),
        "wiener.generate_path.calls": get("wiener.generate_path", CALLS),
        "wiener.generate_path.increments": get("wiener.generate_path", COUNT_A),
        "wiener.integrals_over.s": get("wiener.integrals_over", SECONDS),
        "wiener.integrals_over.calls": get("wiener.integrals_over", CALLS),
        "wiener.integrals_over.fine_steps": get("wiener.integrals_over", COUNT_A),
        "wiener.uniform_integrals.s": get("wiener.uniform_integrals", SECONDS),
        "wiener.moment_check.s": get("wiener.moment_check", SECONDS),
        "steppers.advance_state.s": adv_s,
        "steppers.advance_state.calls": adv_calls,
        "steppers.advance_state.us_per_call": 1e6 * adv_s / adv_calls if adv_calls else 0.0,
        "adaptive.reference.s": get("adaptive.reference", SECONDS),
        "adaptive.reference.steps": get("adaptive.reference", COUNT_A),
        "adaptive.comparator.s": get("adaptive.comparator", SECONDS),
        "adaptive.comparator.steps": get("adaptive.comparator", COUNT_A),
        "adaptive.integrate_adaptive.s": get("adaptive.integrate_adaptive", SECONDS),
        "adaptive.integrate_adaptive.steps": get("adaptive.integrate_adaptive", COUNT_A),
        "adaptive.integrate_adaptive.backstop_steps": get("adaptive.integrate_adaptive", COUNT_B),
        "adaptive.propose_step.s": get("adaptive.propose_step", SECONDS),
        "adaptive.propose_step.calls": get("adaptive.propose_step", CALLS),
        "adaptive.self_s": sum(
            get(n, SELF)
            for n in ("adaptive.integrate_adaptive", "adaptive.reference", "adaptive.comparator")
        ),
        "harness.self_s": get("harness", SELF),
        "harness.generate_per_path": get("wiener.generate_path", COUNT_B) / harness_paths,
        "cli.self_s": get("cli", SELF),
    }


#: Units of the per-layer metrics; the two trace.* figures are added by
#: the runner from the unit wall times.
LAYER_UNITS = {
    **{
        name: ("s" if name.endswith(".s") or name.endswith("self_s") else "count")
        for name in layer_metrics({}, 1)
    },
    "steppers.advance_state.us_per_call": "us",
    "harness.generate_per_path": "count/path",
    "trace.paths_per_s": "1/s",
    "trace.overhead_pct": "%",
}
