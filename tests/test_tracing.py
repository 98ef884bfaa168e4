"""The benchmark's tracer against the package it wraps.

perfbench/tracing.py is loaded from its file, as the benchmark loads it,
so a renamed or deleted target fails here and not only in a traced
benchmark run.  The smoke test installs it in a subprocess, because
install rewraps the package's classes and module attributes for good.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from avgsamp.mixed_space import Cuboid
from avgsamp.sampling import Density, draw_samples

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


SMOKE = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
peaks = tracing.install(tracer)
from avgsamp import experiments, mixed_space
exp = experiments.load_config(sys.argv[2])
experiments.run_table(exp)
experiments.probability_sweep(exp, exp.sample_sizes[:1], 4, "omega")
experiments.constants_report(exp, "omega")
mixed_space.tensor_bspline([1, 1]).evaluate(np.zeros(2))
names = sorted({span[0] for span in tracer.spans})
print(json.dumps({"nested": tracer.nested(), "names": names,
                  "metrics": tracing.layer_metrics(tracer.spans, peaks)}))
"""


def test_installed_tracer_nests_and_counts_each_call_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    config = ROOT / "configs" / "linear_bspline.json"
    proc = subprocess.run([sys.executable, "-c", SMOKE, str(TRACING), str(config)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["nested"]
    assert {"experiments.load_config", "experiments.run_table", "experiments.probability_sweep",
            "experiments.constants_report", "mixed_space.evaluate"} <= set(doc["names"])
    # the one TensorFunction.evaluate call at one point; evaluate is inherited
    # from LatticeSpline, so wrapping it twice would count the point twice
    assert doc["metrics"]["mixed_space.evaluate_points"] == 1
