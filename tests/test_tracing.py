"""The benchmark's tracer against the package it wraps.

perfbench/tracing.py is loaded from its file, as the benchmark loads it,
so a renamed or deleted target fails here and not only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from avgsamp.mixed_space import Cuboid
from avgsamp.sampling import Density, draw_samples

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    for name, modname, clsname, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"avgsamp.{modname}")
        owner = getattr(module, clsname) if clsname else module
        assert callable(getattr(owner, attr, None)), f"{name}: avgsamp.{modname} has no {attr}"


def test_draw_samples_result_carries_the_acceptance_rate():
    tracing = load_tracing()
    samples = draw_samples(Density.uniform(Cuboid(1, 1)), 3, 2, seed=4)
    assert tracing._acceptance((), samples, False) == {"acceptance": 1.0}
