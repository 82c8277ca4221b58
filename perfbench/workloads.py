"""The benchmark's three workloads: what each unit runs and how it is checked.

A unit is one complete `milsde` experiment, invoked through
`milsde.cli.main` exactly as a user would type it. A run repeats the
same unit, with the same seed, for the run's length.
"""

from __future__ import annotations

from dataclasses import dataclass

#: milsde's own default base seed; benchmark seed 0 maps to it.
DEFAULT_BASE_SEED = 12345


def base_seed(seed: int) -> int:
    """milsde base seed for benchmark seed ``seed``.

    Path k of an experiment uses ``base ^ k``, and no workload uses more
    than 2^16 paths or windows, so bases that differ above bit 16 never
    share a driving path.
    """
    if not 0 <= seed < 1 << 40:
        raise ValueError(f"seed must lie in [0, 2^40), got {seed}")
    return DEFAULT_BASE_SEED ^ (seed << 16)


@dataclass(frozen=True)
class TableSpec:
    """A `milsde convergence` table and what its checks need to know."""

    problem: str
    h_max_exponents: tuple[int, ...]  # h_max = 2^-e, ascending h_max
    rho: float
    fixed_scheme: str
    reference_exponent: int
    fine_exponent: int
    paths: int
    check_paths: int  # first paths whose endpoints are recomputed apart

    def argv(self, base: int, workers: int) -> list[str]:
        lo, hi = self.h_max_exponents[0], self.h_max_exponents[-1]
        return [
            "convergence",
            "--problem", self.problem,
            "--h-max", f"2^-{lo}..2^-{hi}",
            "--rho", f"{self.rho:g}",
            "--schemes", f"adaptive,{self.fixed_scheme}",
            "--reference-exponent", str(self.reference_exponent),
            "--fine-exponent", str(self.fine_exponent),
            "--paths", str(self.paths),
            "--seed", str(base),
            "--workers", str(workers),
        ]


@dataclass(frozen=True)
class BackstopSpec:
    """`milsde backstop-prob` followed by `milsde moments-check`."""

    problem: str
    rhos: tuple[float, ...]
    h_max_exponent: int
    fine_exponent: int
    paths: int
    moment_orders: tuple[int, ...]
    moment_samples: int
    moment_fine_exponent: int

    def curve_argv(self, base: int, workers: int) -> list[str]:
        return [
            "backstop-prob",
            "--problem", self.problem,
            "--rho", ",".join(f"{r:g}" for r in self.rhos),
            "--h-max", f"2^-{self.h_max_exponent}",
            "--fine-exponent", str(self.fine_exponent),
            "--paths", str(self.paths),
            "--seed", str(base),
            "--workers", str(workers),
        ]

    def moments_argv(self, base: int) -> list[str]:
        return [
            "moments-check",
            "--order", ",".join(str(b) for b in self.moment_orders),
            "--samples", str(self.moment_samples),
            "--fine-exponent", str(self.moment_fine_exponent),
            "--seed", str(base),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: TableSpec | BackstopSpec
    workers: int  # pool size of an untraced run
    traced_workers: int  # pool size of a traced run

    @property
    def paths_per_unit(self) -> int:
        """Monte Carlo driving paths one unit carries through the experiment.

        A table path covers every adaptive row, the reference and the
        comparators; a curve path covers every rho; a moment window
        counts as one path.
        """
        s = self.spec
        if isinstance(s, TableSpec):
            return s.paths
        return s.paths + s.moment_samples

    @property
    def reference_step(self) -> float | None:
        s = self.spec
        if isinstance(s, TableSpec):
            return 2.0 ** -s.reference_exponent
        return None

    def commands(self, seed: int, traced: bool) -> list[list[str]]:
        base = base_seed(seed)
        workers = self.traced_workers if traced else self.workers
        s = self.spec
        if isinstance(s, TableSpec):
            return [s.argv(base, workers)]
        return [s.curve_argv(base, workers), s.moments_argv(base)]


# Path counts are small, so that a run holds many units, and large
# enough that every statistical check stays far from its threshold on
# any seed (see README, "Workloads").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mult_table",
            spec=TableSpec(
                problem="scalar_mult",
                h_max_exponents=(12, 11, 10, 9, 8),
                rho=16.0,
                fixed_scheme="euler",
                reference_exponent=16,
                fine_exponent=20,
                paths=2,
                check_paths=1,
            ),
            workers=1,
            traced_workers=1,
        ),
        Workload(
            name="noncomm_levy",
            spec=TableSpec(
                problem="twod_noncommutative",
                h_max_exponents=(8, 7, 6, 5, 4),
                rho=4.0,
                fixed_scheme="milstein",
                reference_exponent=10,
                fine_exponent=14,
                paths=24,
                check_paths=2,
            ),
            workers=1,
            traced_workers=1,
        ),
        Workload(
            name="backstop_moments",
            spec=BackstopSpec(
                problem="scalar_probe",
                rhos=(2.0, 3.0, 4.0, 5.0, 6.0),
                h_max_exponent=8,
                fine_exponent=16,
                paths=48,
                # Order 4 is left out: its 4-SE test fails on some seeds
                # (see README, "Left out").
                moment_orders=(1, 2, 3),
                moment_samples=10000,
                moment_fine_exponent=12,
            ),
            workers=2,
            # Spans are kept in the process that records them, so the
            # traced units run the curve in-process.
            traced_workers=1,
        ),
    )
}
