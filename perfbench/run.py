"""heatlab benchmark: time from a config to a checked verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a fixed list of the checked-in ``configs/*.json``.  The
seed turns them into generated configs in a temporary directory (seed 0
copies them byte for byte; other seeds set the ``validate`` seed and jitter
``controls.n_cells`` by up to 2 %), and only those files reach the program.
One pass runs every config of the workload through the public entry point
``heatlab.cli.run(config, out_dir, threads=1)``, closed loop in this one
process, and checks each outcome against the expected exit code, verdict
and finding.

``--trace 0`` measures set-up (fresh-process import plus config load,
median of several processes), then repeats untraced passes for ``--seconds``
and reports the median pass time and the peak resident memory.  The pass
time is reported at a reference machine speed: a ``SpeedProbe`` runs after
every config, and each config's time is scaled by the probes either side of
it.  The raw pass times are printed on the line before the result.
``--trace 1`` runs untraced passes for half the time and traced passes (at
least two) for the other half.  It reports per-layer calls, counts and self
times from the traced pass with the median wall time, asserts that the
per-layer self times add up to that pass's wall time, and asserts that
every deterministic count repeats exactly across the traced passes.  The
spans are written to ``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# write no .pyc files from this process, so perfbench/ stays source only
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
OUT = os.path.join(ROOT, ".perfbench_out")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "blowup_superexp": ("blowup_superexp",),
    "exhaustion": ("completeness_euclidean", "completeness_superexp"),
    "catalog": ("degiorgi_euclidean", "degiorgi_gaussian", "tail_euclidean",
                "tail_gaussian", "comparison", "blowup_euclidean_control",
                "blowup_overflow_error", "validate"),
}

TAIL = "tail decays exponentially in 1/t"
DEGIORGI = "variation limit matches exact value"
# config -> (exit code, verdict, finding); the overflow run has no report,
# its "finding" is the exception class recorded in error.json
EXPECTED = {
    "blowup_superexp": (0, "confirms", "divergent"),
    "blowup_euclidean_control": (0, "refutes", "convergent"),
    "blowup_overflow_error": (3, None, "RangeError"),
    "completeness_euclidean": (0, "confirms", "complete"),
    "completeness_superexp": (0, "refutes", "incomplete"),
    "degiorgi_euclidean": (0, "confirms", DEGIORGI),
    "degiorgi_gaussian": (0, "confirms", DEGIORGI),
    "tail_euclidean": (0, "confirms", TAIL),
    "tail_gaussian": (0, "confirms", TAIL),
    "comparison": (0, "confirms", "barrier dominates"),
    "validate": (0, "confirms", "all properties hold"),
}

# Perimeter of the unit sphere in R^3 under the config's weight, in closed
# form: sigma * A(1) with A(r) = r^2 (flat) and r^2 exp(-r^2) (Gaussian).
CLOSED_FORM_TV = {"degiorgi_euclidean": 4.0 * math.pi,
                  "degiorgi_gaussian": 4.0 * math.pi / math.e}

N_CELLS_JITTER = 0.02
SETUP_PROCESSES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_SOLVES = 400
PROBE_REPEATS = 3
# probe time that norm_wall_s is scaled to; comparisons use only ratios
PROBE_REFERENCE_S = 0.025

# spans whose call count (TRACED_CALLS) or self time (TRACED_SELF) is a
# per-layer metric; LAYER_TOTALS get their summed self time
TRACED_CALLS = ("solver.kernel", "operator.banded", "operator.assemble",
                "solver.advance_states", "solver.heat_semigroup",
                "solver.exhaustion_ladder", "solver.overflow_safe_radius",
                "geometry.log_area", "experiments.degiorgi_sweep",
                "experiments.completeness_probe", "experiments.blowup_sweep",
                "experiments.blowup_probe", "experiments.comparison_check",
                "experiments.tail_probe")
TRACED_SELF = ("solver.kernel", "operator.banded", "operator.assemble",
               "solver.advance_states", "solver.heat_semigroup",
               "solver.exhaustion_ladder", "geometry.log_area", "cli.run",
               "cli.validate")
LAYER_TOTALS = ("geometry", "grid", "operator", "solver", "functionals",
                "experiments", "cli", "harness")

SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import heatlab.cli\n"
    "for path in sys.argv[2:]:\n"
    "    heatlab.cli.load_config(path)\n"
)


def generate_configs(names, seed: int, dest: str) -> dict:
    """Write the workload's configs for ``seed`` into ``dest``; name -> path."""
    paths = {}
    for name in names:
        src = os.path.join(CONFIGS, f"{name}.json")
        path = os.path.join(dest, f"{name}.json")
        if seed == 0:
            shutil.copyfile(src, path)
        else:
            with open(src, encoding="utf-8") as fh:
                cfg = json.load(fh)
            cfg = jitter_config(name, cfg, seed)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2)
        paths[name] = path
    return paths


def jitter_config(name: str, cfg: dict, seed: int) -> dict:
    """Apply ``seed`` to one parsed config, in place; returns it."""
    rng = random.Random(f"{seed}/{name}")
    if cfg["experiment"] == "validate":
        cfg["seed"] = seed
    controls = cfg.get("controls", {})
    if "n_cells" in controls:
        scale = rng.uniform(1.0 - N_CELLS_JITTER, 1.0 + N_CELLS_JITTER)
        controls["n_cells"] = max(16, round(controls["n_cells"] * scale))
    return cfg


def check_outcome(name: str, code: int, out_dir: str) -> tuple[list[str], float | None]:
    """Mismatches between one run's outputs and what it must produce.

    Also returns the relative gap between a De Giorgi limit and its closed
    form, or None for other configs.
    """
    want_code, want_verdict, want_finding = EXPECTED[name]
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if want_code != 0:
        try:
            with open(os.path.join(out_dir, "error.json"), encoding="utf-8") as fh:
                error = json.load(fh).get("error")
        except (OSError, ValueError) as exc:
            return problems + [f"error.json unreadable: {exc}"], None
        if error != want_finding:
            problems.append(f"error {error!r}, expected {want_finding!r}")
        return problems, None
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"report.json unreadable: {exc}"], None
    if (report.get("verdict"), report.get("finding")) != (want_verdict, want_finding):
        problems.append(f"verdict/finding {report.get('verdict')!r}/"
                        f"{report.get('finding')!r}, expected "
                        f"{want_verdict!r}/{want_finding!r}")
    for fname in report.get("files", []) + ["timing.json"]:
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"missing output {fname}")
    gap = None
    if name in CLOSED_FORM_TV:
        exact = CLOSED_FORM_TV[name]
        gap = abs(report["fitted"]["extrapolated_limit"] - exact) / exact
        if not gap <= report["config"]["tolerances"]["gap_rtol"]:
            problems.append(f"variation limit off the closed form by {gap:.3e}")
    return problems, gap


class Bench:
    """One workload at one seed: generated configs and the pass loop."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        import heatlab.cli
        self.cli = heatlab.cli
        self.names = WORKLOADS[workload]
        self.work_dir = work_dir
        self.paths = generate_configs(self.names, seed, work_dir)
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.tv_rel_err: list[float] = []

    def run_pass(self, probe: "SpeedProbe | None" = None) -> tuple[float, float]:
        """Run every config once; return the summed time inside ``cli.run``.

        The second value rescales each config's time by ``probe``; without a
        probe it repeats the first.
        """
        self.passes += 1
        wall = scaled = 0.0
        gc.collect()
        for name in self.names:
            out_dir = os.path.join(self.work_dir, f"out-{self.passes}-{name}")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                started = time.perf_counter()
                code = self.cli.run(self.paths[name], out_dir, threads=1)
                elapsed = time.perf_counter() - started
            wall += elapsed
            scaled += elapsed if probe is None else probe.rescale(elapsed)
            problems, gap = check_outcome(name, code, out_dir)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAIL {name} (pass {self.passes}): " + "; ".join(problems),
                      file=sys.stderr)
            if name == "degiorgi_gaussian" and gap is not None:
                self.tv_rel_err.append(gap)
            shutil.rmtree(out_dir, ignore_errors=True)
        return wall, scaled

    def run_for(self, seconds: float, min_passes: int, pass_fn) -> list:
        results = []
        started = time.perf_counter()
        while len(results) < min_passes or time.perf_counter() - started < seconds:
            results.append(pass_fn())
        return results


def measure_setup(paths) -> list[float]:
    """Wall time of fresh processes that import heatlab and load the configs."""
    times = []
    cmd = [sys.executable, "-c", SETUP_CHILD, SRC, *paths]
    for _ in range(SETUP_PROCESSES):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


class SpeedProbe:
    """Machine speed, from a fixed loop shaped like one implicit step.

    The loop builds a band matrix and calls scipy's ``solve_banded``, as
    ``heatlab.solver`` does, but shares no code with heatlab, so a change to
    the program cannot move it.  It runs between configs, never during one.
    """

    def __init__(self, n: int = 1024):
        import numpy as np
        from scipy.linalg import solve_banded
        rng = np.random.default_rng(0)
        self.np, self.solve = np, solve_banded
        self.lower, self.upper = rng.random(n), rng.random(n)
        self.diag = -(self.lower + self.upper)
        self.rhs = rng.random((n, 2))
        self.samples = [self.measure()]

    def _once(self) -> float:
        np, n = self.np, self.diag.size
        started = time.perf_counter()
        for _ in range(PROBE_SOLVES):
            ab = np.zeros((3, n))
            ab[0, 1:] = -1e-3 * self.upper[:-1]
            ab[1, :] = 1.0 - 1e-3 * self.diag
            ab[2, :-1] = -1e-3 * self.lower[1:]
            self.solve((1, 1), ab, self.rhs, overwrite_ab=True, check_finite=False)
        return time.perf_counter() - started

    def measure(self) -> float:
        return statistics.median(self._once() for _ in range(PROBE_REPEATS))

    def rescale(self, elapsed: float) -> float:
        """``elapsed`` at the reference speed, judged by probes either side."""
        self.samples.append(self.measure())
        return elapsed * PROBE_REFERENCE_S / statistics.fmean(self.samples[-2:])


def untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(bench.paths.values())
    probe = SpeedProbe()
    walls, scaled = zip(*bench.run_for(seconds, MIN_PASSES,
                                       lambda: bench.run_pass(probe)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"norm_wall_s": (statistics.median(scaled), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    info = {"wall_s": statistics.median(walls), "wall_s_samples": walls,
            "norm_wall_s_samples": scaled, "setup_s_samples": setup,
            "probe_s": statistics.median(probe.samples)}
    return metrics, info


def traced(bench: Bench, seconds: float, workload: str) -> tuple[dict, dict, list]:
    from spans import Tracer, save

    plain = [wall for wall, _ in bench.run_for(seconds / 2.0, 1, bench.run_pass)]
    tracers = []

    def traced_pass() -> float:
        tracer = Tracer()
        with tracer.installed(), tracer.span("harness.pass"):
            wall, _ = bench.run_pass()
        tracers.append(tracer)
        return wall

    walls = bench.run_for(seconds / 2.0, MIN_TRACED_PASSES, traced_pass)
    problems = []

    reference = tracers[0].deterministic_counts()
    for i, tracer in enumerate(tracers[1:], start=2):
        counts = tracer.deterministic_counts()
        if counts != reference:
            diff = sorted(k for k in set(counts) | set(reference)
                          if counts.get(k) != reference.get(k))
            problems.append(f"traced pass {i} counts differ from pass 1: {diff}")

    median_pass = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    tracer = tracers[median_pass]
    wall = tracer.span_end[0] - tracer.span_start[0]
    layer_self, layer_calls = tracer.layer_totals()
    if abs(sum(layer_self.values()) - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times sum to {sum(layer_self.values())}, "
                        f"not the traced wall time {wall}")

    kernel_calls = tracer.calls_of("solver.kernel")
    kernel_self = tracer.self_of("solver.kernel")
    metrics = {f"{name}.calls": (tracer.calls_of(name), "count")
               for name in TRACED_CALLS}
    metrics.update({f"{name}.self_s": (tracer.self_of(name), "s")
                    for name in TRACED_SELF})
    metrics.update({f"{layer}.self_s": (layer_self.get(layer, 0.0), "s")
                    for layer in LAYER_TOTALS})
    metrics.update({name: (tracer.counters[name], unit) for name, unit in (
        ("solver.kernel.cells", "count"),
        ("solver.kernel.bytes_computed", "bytes"),
        ("grid.cells_built", "count"))})
    metrics.update({
        "solver.kernel.us_per_call": (1e6 * kernel_self / max(kernel_calls, 1), "us"),
        "grid.calls": (layer_calls["grid"], "count"),
        "functionals.calls": (layer_calls["functionals"], "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (statistics.median(walls) - statistics.median(plain), "s"),
    })
    save(os.path.join(OUT, f"spans-{workload}.npz"), tracers)

    info = {"untraced_wall_s_samples": plain, "traced_wall_s_samples": walls,
            "span_self_s": {n: tracer.self_s[i] for i, n in enumerate(tracer.names)},
            "span_calls": {n: tracer.calls[i] for i, n in enumerate(tracer.names)}}
    return metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    missing = [p for p in (os.path.join(SRC, "heatlab", "__init__.py"), CONFIGS)
               if not os.path.exists(p)]
    if missing:
        print(f"perfbench: heatlab sources not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        bench = Bench(args.workload, args.seed, work_dir)
        problems = []
        if args.trace:
            metrics, info, problems = traced(bench, args.seconds, args.workload)
        else:
            metrics, info = untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if bench.tv_rel_err:
        info["tv_limit_rel_err"] = statistics.median(bench.tv_rel_err)
    info["passes"] = bench.passes
    info["fail_rate"] = bench.failed / bench.attempted
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    correct = bench.failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
