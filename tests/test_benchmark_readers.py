"""The benchmark's readers of SampleMatrix.entries against the package.

perfbench/checks.py compares build_sample_matrix(...).entries with its
scipy oracle, and the tracer's _solve books the SVD flops of
entries.shape.  Both are loaded from their files, as the benchmark loads
them, so a change to what entries holds fails here and not only as an
incorrect benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from avgsamp import reconstruction, sampling
from avgsamp.experiments import build_experiment
from avgsamp.reconstruction import build_sample_matrix
from avgsamp.sampling import draw_samples

ROOT = Path(__file__).resolve().parent.parent


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raw_config(path: Path, n: int, m: int, mode: str) -> dict:
    return dict(json.loads(path.read_text(encoding="utf-8")), samples={"sizes": [[n, m]], "mode": mode})


def test_sample_matrix_entries_pass_the_benchmark_check():
    checks = load("checks")
    scale_d2 = ROOT / "perfbench" / "configs" / "scale_d2.json"
    quadratic = ROOT / "configs" / "quadratic_bspline.json"
    for path, n, m, mode in [(scale_d2, 24, 120, "separable"), (quadratic, 6, 7, "separable"),
                             (quadratic, 5, 5, "joint")]:
        raw = raw_config(path, n, m, mode)
        exp = build_experiment(raw)
        samples = draw_samples(exp.density, n, m, 11, mode)
        S = build_sample_matrix(exp.phi, exp.kernel, samples, exp.N)
        label = f"{path.stem} {mode} {n}x{m}"
        assert checks.check_draw(samples.points, exp.conv.evaluate(samples.points), S.entries,
                                 checks.Oracle(raw), label) == [], label


def test_traced_solve_books_a_factor_pair_without_convolving(monkeypatch):
    tracing = load("tracing")
    exp = build_experiment(raw_config(ROOT / "perfbench" / "configs" / "scale_d2.json", 24, 120, "separable"))
    S = build_sample_matrix(exp.phi, exp.kernel, draw_samples(exp.density, 24, 120, 11, "separable"), exp.N)
    assert len(S.factors) == 2

    def spy(*args, **kwargs):
        raise AssertionError("convolve called")

    for module in (sampling, reconstruction):
        monkeypatch.setattr(module, "convolve", spy)
    info = tracing._solve((S, np.zeros(S.shape[0])), None, False)
    assert info == {"flops": tracing.svd_flops(2880, 125), "full_rank": True}
