"""The public surface: what each module exports, and what the benchmark
under ``perfbench/`` reads or traces of the package."""

import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import milsde

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("adaptive", "cli", "errors", "harness", "problems", "steppers", "wiener")


#: Every name ``milsde`` exports. A name joins or leaves the public
#: surface only by an edit here.
PUBLIC = {
    "BACKSTOP_CSV_HEADER", "BUILTIN_NAMES", "BackstopCurve",
    "BackstopPoint", "CSV_HEADER", "DEFAULT_BASE_SEED", "ErrorRow", "ErrorTable",
    "ExperimentConfig", "ExperimentError", "FIXED_SCHEMES",
    "FixedSolves", "INCREMENT_GRID", "IteratedIntegrals", "PathPrefixes",
    "PathStreams", "ResourceError", "SdeProblem", "SolutionBatch", "SolutionPath", "StepProfile",
    "StrategyConfig", "UsageError", "WienerPath", "__version__",
    "backstop_probability", "commutator_defect", "convergence_table",
    "euler_number", "generate_path", "integrals_over", "integrate_adaptive",
    "integrate_adaptive_batch", "integrate_fixed", "make_builtin", "moment_check",
    "moment_constant", "propose_step", "uniform_integrals",
}


def test_the_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 39
    assert len(milsde.__all__) == len(PUBLIC)
    assert set(milsde.__all__) == PUBLIC


@pytest.mark.parametrize("name", ("milsde",) + tuple(f"milsde.{m}" for m in MODULES))
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    duplicates = sorted({n for n in exported if exported.count(n) > 1})
    assert not duplicates, f"{name}.__all__ lists {duplicates} twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists {missing}, which do not resolve"


def _load_tracing():
    # Loaded by its path: perfbench is not a package.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_are_callable():
    # A traced name that goes missing only makes the tracer print a
    # warning, so the benchmark would lose that span without failing.
    for home, attr in _load_tracing().TARGETS:
        fn = getattr(importlib.import_module(f"milsde.{home}"), attr, None)
        assert callable(fn), f"milsde.{home}.{attr} is traced but not callable"


def test_names_the_benchmark_reads_resolve():
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        found.update(re.findall(r"\bmilsde\.(\w+)(?:\.(\w+))?", path.read_text()))
    names = {first for first, _ in found}
    assert {
        "make_builtin",
        "generate_path",
        "integrate_fixed",
        "integrate_adaptive",
        "StrategyConfig",
        "CSV_HEADER",
        "BACKSTOP_CSV_HEADER",
    } <= names
    assert ("cli", "main") in found
    for first, second in sorted(found):
        dotted = f"milsde.{first}" + (f".{second}" if second else "")
        obj = getattr(milsde, first, None)
        if second and not second.startswith("__"):
            obj = getattr(obj, second, None)
        assert obj is not None, f"perfbench reads {dotted}, which is missing"
        if not (isinstance(obj, types.ModuleType) or (second or first).isupper()):
            assert callable(obj), f"perfbench calls {dotted}, which is not callable"
