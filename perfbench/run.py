"""Benchmark of avgsamp: one workload at one seed, in this process.

    python3 perfbench/run.py --workload mc_recovery_d1 --seed 1 --seconds 30 --trace 0

Run from the repository root.  A workload is a closed loop of one caller
running jobs back to back; a job is what a CLI user does with one seed:
``load_config``, ``run_table``, ``probability_sweep`` and one
``constants_report`` pass over four selectors, called in-process through
the ``avgsamp.experiments`` API.  Job seeds derive from the workload seed.

With ``--trace 0`` jobs run until ``--seconds`` is spent (whole jobs only)
and the end-to-end metrics are printed.  With ``--trace 1`` a fixed number
of jobs runs with spans around every layer's public functions, the
per-layer metrics are printed and the spans go to ``perfbench/out/``.
After timing, every output is checked against independent scipy
computations (see checks.py).  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import os

# Fixed before numpy loads, so every run uses the same BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SELECTORS = ("omega", "mu", "concentrated", "reconstruction")

# Workload inputs.  "sweeps" lists (theorem, sizes, trials) per job.  The
# table uses the config's sizes unless "table_sizes" replaces them: the
# shipped 5x5 and 7x7 draws are left out of the table because some
# full-rank draws there exceed the 1e-9 error bound (see README).
# "trace_jobs" is the fixed job count of a traced run, about --seconds worth
# of untraced jobs, so that its counts repeat exactly for a seed.
WORKLOADS = {
    "mc_recovery_d1": {
        "config": "configs/quadratic_bspline.json",
        "table_sizes": [(10, 10), (14, 14)],
        "sweeps": [("recovery", [(5, 5), (7, 7), (10, 10)], 200)],
        "trace_jobs": 12,
    },
    "mc_inequality_pc": {
        "config": "perfbench/configs/pc_density.json",
        "sweeps": [("omega", [(5, 5), (10, 10), (20, 20)], 300),
                   ("mu", [(5, 5), (10, 10), (20, 20)], 300)],
        "trace_jobs": 20,
    },
    "scale_d2": {
        "config": "perfbench/configs/scale_d2.json",
        "sweeps": [("recovery", [(6, 20), (24, 120)], 5)],
        "trace_jobs": 9,
    },
}

#: end-to-end metric -> unit
E2E_UNITS = {"setup_s": "s", "table_rows_per_s": "1/s", "sweep_trials_per_s": "1/s",
             "constants_s": "s", "peak_rss_mb": "MB"}

#: seconds reference_loop takes on an undisturbed core of the machine the
#: figures come from (its 1st percentile over 2489 timings in one minute);
#: scaled times are in these seconds
REF_SECONDS = 0.0154

#: trial indices of every sweep size whose draws are checked
CHECKED_TRIALS = (0, 1, -1)


@dataclass
class Job:
    seed: int
    exp: object
    table: object
    sweeps: list
    trials: int
    reports: list
    wall: list  # wall seconds of load_config, run_table, the sweeps, the constants pass
    refs: list  # reference-loop seconds before, between and after those four calls

    def scaled(self, i: int) -> float:
        """Wall time of call i scaled to an undisturbed core by the reference loop around it."""
        return self.wall[i] * REF_SECONDS / (0.5 * (self.refs[i] + self.refs[i + 1]))


def peak_rss_kb() -> float:
    """Peak resident set of this process in kB.

    VmHWM starts afresh at exec.  ru_maxrss does not: it also covers the
    memory image that exec replaced, so a large parent that spawns this
    process shows in it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def job_seed(workload_seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def reference_loop() -> float:
    """Wall seconds of a fixed loop that uses no avgsamp code.

    It runs the two kinds of work avgsamp spends its time on: masked Horner
    evaluation of small piecewise polynomials in numpy, and scalar Python
    arithmetic like the lattice sums of the bounds.  On the machine the
    figures come from it takes REF_SECONDS on an undisturbed core.
    """
    import numpy as np

    x = np.linspace(-2.0, 2.0, 257)
    breaks = np.linspace(-2.0, 2.0, 9)
    coeffs = np.linspace(0.1, 1.0, 32).reshape(8, 4)
    start = time.perf_counter()
    for _ in range(80):
        idx = np.searchsorted(breaks, x, side="right") - 1
        out = np.zeros_like(x)
        for i in range(8):
            mask = idx == i
            u = x[mask] - breaks[i]
            acc = np.zeros_like(u)
            for c in coeffs[i][::-1]:
                acc = acc * u + c
            out[mask] = acc
    total = 1.0
    for s in range(1, 25000):
        total += ((2 * s + 1) ** 2 - (2 * s - 1) ** 2) * (1.0 + s) ** -4.0
    return time.perf_counter() - start


def run_job(ex, config: Path, spec: dict, seed: int) -> Job:
    refs, wall = [reference_loop()], []

    def timed(call, *args):
        start = time.perf_counter()
        result = call(*args)
        wall.append(time.perf_counter() - start)
        refs.append(reference_loop())
        return result

    exp = timed(ex.load_config, config, seed)
    table = timed(ex.run_table, replace(exp, sample_sizes=spec.get("table_sizes", exp.sample_sizes)))
    sweeps = timed(lambda: [ex.probability_sweep(exp, sizes, trials, theorem)
                            for theorem, sizes, trials in spec["sweeps"]])
    reports = timed(lambda: [ex.constants_report(exp, sel) for sel in SELECTORS])
    trials = sum(len(sizes) * n for _, sizes, n in spec["sweeps"])
    return Job(seed, exp, table, sweeps, trials, reports, wall, refs)


def warm_up(ex, config: Path, spec: dict) -> None:
    """One untimed job at a tiny size: two stability trials, one size, two trials."""
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["generators"].setdefault("stability", {})["trials"] = 2
    raw["samples"]["sizes"] = raw["samples"]["sizes"][:1]
    exp = ex.build_experiment(raw, 0)
    ex.run_table(replace(exp, sample_sizes=spec.get("table_sizes", exp.sample_sizes)[:1]))
    for theorem, sizes, _ in spec["sweeps"]:
        ex.probability_sweep(exp, sizes[:1], 2, theorem)
    for sel in SELECTORS:
        ex.constants_report(exp, sel)


def end_to_end(jobs: list[Job], peak_rss_mb: float) -> dict[str, float]:
    """Medians over jobs of each call's time, scaled by the reference loop around it.

    The machine these figures come from switches between speed states up to
    about 2x apart, staying in each for 5 to 30 s, so a whole 30 s run can
    fall into one state.  A fixed reference loop timed just before and just
    after each call slows down with it, and scaling by it keeps the figures
    steady from run to run (see README).  A table row counts once it is
    reconstructed: a rank-deficient row stops after the SVD and would make
    its job look fast.
    """
    rows = [sum(not r.rank_deficient for r in j.table.rows) for j in jobs]
    return {
        "setup_s": statistics.median(j.scaled(0) for j in jobs),
        "table_rows_per_s": statistics.median(n / j.scaled(1) for n, j in zip(rows, jobs)),
        "sweep_trials_per_s": statistics.median(j.trials / j.scaled(2) for j in jobs),
        "constants_s": statistics.median(j.scaled(3) for j in jobs),
        "peak_rss_mb": peak_rss_mb,
    }


def wall_figures(jobs: list[Job]) -> str:
    """The same medians from unscaled wall time, for the log line."""
    med = [statistics.median(j.wall[i] for j in jobs) for i in range(4)]
    ref = statistics.median(r for j in jobs for r in j.refs)
    return (f"wall medians: load_config {med[0]:.4g} s, run_table {med[1]:.4g} s, "
            f"sweeps {med[2]:.4g} s, constants {med[3]:.4g} s; reference loop {ref * 1e3:.3g} ms "
            f"(undisturbed {REF_SECONDS * 1e3:.3g} ms)")


def inequality_factors(exp, theorem: str, n: int, m: int) -> tuple[float, float]:
    """(lower, upper) factors of ||f|| that probability_sweep's omega or mu trials test against."""
    from avgsamp.bounds import mu_class_report, omega_class_report

    params, sweep = exp.space_params(), exp.sweep_defaults
    if theorem == "omega":
        rep = omega_class_report(params, float(sweep.get("gamma", 0.5)),
                                 float(sweep.get("omega", exp.kernel.l11_norm)), n, m)
        return rep["A_gamma_omega"], rep["B_gamma_omega"]
    mu = float(sweep.get("mu", 1.0))
    rep = mu_class_report(params, mu, float(sweep.get("eta", 0.5 * mu * params.rho_lower)), n, m)
    return rep["lower_constant"], rep["upper_constant"]


def check_job(job: Job, oracle, checks, ex) -> tuple[int, int, list[str], bool]:
    """(operations, failed operations, unexpected failures, riesz failed) of one job."""
    from avgsamp.reconstruction import build_sample_matrix
    from avgsamp.sampling import draw_samples
    import numpy as np

    exp = job.exp
    ops = []  # one failure list per operation
    fails, riesz = checks.check_setup(exp, oracle)
    ops.append(fails)

    def draw_check(samples, with_matrix, label):
        matrix = build_sample_matrix(exp.phi, exp.kernel, samples, exp.N).entries if with_matrix else None
        return checks.check_draw(samples.points, exp.conv.evaluate(samples.points), matrix, oracle, label)

    for row in job.table.rows:
        samples = draw_samples(exp.density, row.n, row.m, row.seed, exp.mode)
        ops.append(checks.check_table_row(row, exp.signal.size)
                   + draw_check(samples, True, f"table {row.n}x{row.m}"))
    for records in job.sweeps:
        # every trial is drawn again and its outcome recomputed by the oracle
        draws, outcomes = [], []
        for rec in records:
            n, m, theorem = rec["n"], rec["m"], rec["theorem"]
            seeds = np.random.SeedSequence(ex.row_seed(exp.seed, n, m)).generate_state(
                rec["trials"], dtype=np.uint64)
            draws.append([draw_samples(exp.density, n, m, int(s), exp.mode) for s in seeds])
            factors = None if theorem == "recovery" else inequality_factors(exp, theorem, n, m)
            outcomes.append(checks.trial_outcomes(rec, [s.points for s in draws[-1]], oracle, factors))
        for rec, samples, fails in zip(records, draws, checks.check_sweep(records, outcomes)):
            label = f"{rec['theorem']} {rec['n']}x{rec['m']}"
            for t in CHECKED_TRIALS:
                fails += draw_check(samples[t], rec["theorem"] == "recovery",
                                    f"{label} trial {t % rec['trials']}")
            fails += checks.check_cells(np.concatenate([s.points for s in samples]), oracle, label)
            ops.append(fails)
    for rep in job.reports:
        ops.append(checks.check_report(rep, oracle))
    unexpected = [f"job seed {job.seed}: {msg}" for op in ops for msg in op]
    failed = sum(1 for op in ops if op) + (1 if riesz and not ops[0] else 0)
    return len(ops), failed, unexpected, bool(riesz)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "avgsamp" / "__init__.py").is_file():
        print(f"error: no avgsamp package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    config = ROOT / spec["config"]
    if not config.is_file():
        print(f"error: missing workload config {config}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import avgsamp.experiments as ex

    if not Path(ex.__file__).resolve().is_relative_to(src):
        print(f"error: imported avgsamp from {ex.__file__}, not {src}", file=sys.stderr)
        return 2

    warm_up(ex, config, spec)
    tracer = peaks = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        peaks = tracing.install(tracer)

    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            if len(jobs) == spec["trace_jobs"]:
                break
        elif jobs:
            # start a job only when a typical job still fits in the budget
            typical = statistics.median(sum(j.wall) + sum(j.refs) for j in jobs)
            if time.perf_counter() - start + typical > args.seconds:
                break
        seed = job_seed(args.seed, len(jobs))
        if tracer is None:
            jobs.append(run_job(ex, config, spec, seed))
        else:
            jobs.append(tracer.wrap("bench.job", run_job, lambda a, r, e: {"seed": a[3]})(
                ex, config, spec, seed))
    measured = time.perf_counter() - start
    peak_rss_mb = peak_rss_kb() / 1024.0
    figures = end_to_end(jobs, peak_rss_mb)
    if tracer is not None:
        # the checks below call wrapped functions too; their spans are not the workload's
        spans = tracer.spans[:]
        nested = tracer.nested()
        layers = tracing.layer_metrics(spans, peaks)

    import checks  # loads scipy, so only after the peak RSS is read

    oracle = checks.Oracle(json.loads(config.read_text(encoding="utf-8")))
    attempted = failed = riesz = 0
    unexpected = []
    for job in jobs:
        ops, bad, msgs, riesz_failed = check_job(job, oracle, checks, ex)
        attempted += ops
        failed += bad
        riesz += riesz_failed
        unexpected += msgs
    lo, hi = oracle.riesz_bounds()
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs in {measured:.1f} s; "
          f"{riesz} load_config results fail the exact Riesz bounds [{lo:.6g}, {hi:.6g}] "
          f"(alpha1 {jobs[0].exp.phi.alpha1:.6g}, alpha2 {jobs[0].exp.phi.alpha2:.6g})")
    print(wall_figures(jobs))
    for msg in unexpected:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not unexpected

    if tracer is None:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in figures.items()}
    else:
        correct = correct and nested
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.UNITS.items()}
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        t0 = spans[0][1]
        doc = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
               "end_to_end_traced": figures, "per_layer": layers, "sites": tracer.sites,
               "spans": [[n, s - t0, e - t0, p, i] for n, s, e, p, i in spans]}
        (out / f"trace_{args.workload}_{args.seed}.json").write_text(json.dumps(doc))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
