"""Benchmark of metabox's two solvers, its evaluator and its subprocess path.

Run from the repository root::

    python3 bench/run.py --workload direct-mlp --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all

One operation is one solve: one solver seed of one workload.  A run repeats
whole rounds over the workload's solver seeds, in an order drawn from
``--seed``, until ``--seconds`` have passed.  Every solve is checked against
the oracles in this directory; a solve that raises or fails a check counts as
failed.  With ``--trace 0`` the run reports the end-to-end metrics, its
times scaled to a nominal machine speed (calibrate.py); with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer metrics
of the traced solves plus the tracing overhead.  The last
line of standard output is one JSON object; the same figures, the per-solve
rows and the environment go to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
ORACLE_SCRIPT = os.path.join(BENCH_DIR, "mlp_oracle.py")
SETUP_REPEATS = 5
PARSE_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    problem: str            # bundled problem file
    solver: str             # "direct" | "bo"
    budget: int
    solver_seeds: tuple
    target: float | None    # None: the toy oracle's exhaustive minimum
    subprocess: bool = False


WORKLOADS = {
    "direct-mlp": Workload("mlp", "direct", 2000, tuple(range(10)), 1e-6),
    "bo-mlp": Workload("mlp", "bo", 60, (0,), 0.5),
    "bo-toy": Workload("toy", "bo", 60, (0, 1, 2), None),
    "subprocess-mlp": Workload("mlp", "direct", 40, (1, 9, 11, 14), 0.5, subprocess=True),
}

END_TO_END = {"setup_s": "s", "solve_s": "s", "evals_to_target": "evaluations",
              "peak_rss_mb": "MiB"}

PER_LAYER = {
    "problem_file.parse_s": "s",
    "blackbox.evaluate_calls": "count", "blackbox.evaluations": "count",
    "blackbox.cache_hits": "count", "blackbox.evaluate_s": "s",
    "blackbox.backend_s": "s", "blackbox.overhead_s": "s", "blackbox.launch_ms": "ms",
    "blackbox.cache_key_calls": "count", "blackbox.cache_key_s": "s",
    "blackbox.errors": "count",
    "domain.membership_calls": "count", "domain.membership_s": "s",
    "domain.acting_index_set_s": "s",
    "constraints.acting_s": "s", "constraints.feasibility_s": "s",
    "neighborhoods.calls": "count", "neighborhoods.s": "s",
    "direct_search.iterations": "count", "direct_search.subproblems": "count",
    "direct_search.subproblem_s": "s", "direct_search.improving_ratio": "ratio",
    "gp.fit_calls": "count", "gp.fit_s": "s",
    "gp.correlation_matrix_calls": "count", "gp.correlation_matrix_s": "s",
    "gp.model_builds": "count", "gp.model_build_s": "s", "gp.jitter_escalations": "count",
    "gp.features_s": "s", "gp.pair_tensors_s": "s",
    "gp.predict_calls": "count", "gp.predict_points": "count", "gp.predict_s": "s",
    "gp.mean_s": "s",
    "bayesian.iterations": "count", "bayesian.acquisition_s": "s",
    "bayesian.points_per_predict": "points", "bayesian.proposals": "count",
    "bayesian.proposal_feasible_ratio": "ratio", "bayesian.surrogate_misses": "count",
    "direct_search.best_value": "objective", "bayesian.best_value": "objective",
    "trace.overhead_s": "s",
}

# Time in a fresh interpreter to import metabox and parse a problem file.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import metabox
parsed = metabox.parse_problem_file(sys.argv[2])
assert isinstance(parsed.problem, metabox.Problem)
print(repr(time.perf_counter() - start))
"""


@dataclass
class Outcome:
    """What a run keeps of one solve (histories are dropped once checked)."""

    seed: int
    traced: bool
    seconds: float | None = None        # wall time of the solve
    calibration: float | None = None    # mean calibration reading around the solve
    readings: tuple = ()                # (first, after): readings around the solve
    failures: dict = dataclasses.field(default_factory=dict)
    charged: int = 0
    cache_hits: int = 0
    errors: int = 0
    evals_to_target: int = 0
    best: float | None = None
    iterations: int = 0
    spans: tuple = (0, 0)
    counts: Counter = dataclasses.field(default_factory=Counter)
    proposals: int = 0
    proposals_feasible: int = 0
    surrogate_misses: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.failures)


class Bench:
    def __init__(self, name: str, solver_seeds, mb):
        from checks import ToyOracle
        from mlp_oracle import MLPOracle

        self.name = name
        self.workload = WORKLOADS[name]
        self.solver_seeds = tuple(solver_seeds)
        self.mb = mb
        self.problem_path = str(mb.bundled_problem_path(self.workload.problem))
        if self.workload.subprocess:
            self.problem_path = self._write_subprocess_problem()
        self.mlp_oracle = self.toy_oracle = None
        if self.workload.problem == "mlp":
            self.mlp_oracle = MLPOracle.from_file(self.problem_path)
        self.parsed = mb.parse_problem_file(self.problem_path)
        if self.workload.problem == "toy":
            self.toy_oracle = ToyOracle.from_file(self.problem_path,
                                                  self.parsed.problem.objective)
        self.target = (self.workload.target if self.workload.target is not None
                       else self.toy_oracle.argmin_value)
        self.self_test = None

    def _write_subprocess_problem(self) -> str:
        """A copy of mlp.json whose blackbox is the stdlib oracle, one process per call."""
        with open(self.mb.bundled_problem_path("mlp")) as fh:
            document = json.load(fh)
        path = os.path.join(OUT, f"{self.name}.json")
        document["name"] = "mlp-subprocess"
        document["blackbox"] = {"command": [sys.executable, "-I", "-S", ORACLE_SCRIPT, path],
                                "timeout": 60.0}
        with open(path, "w") as fh:
            json.dump(document, fh, indent=1)
        return path

    # -- measurements ---------------------------------------------------------

    def setup_seconds(self) -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, self.problem_path],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    def setup_times(self) -> list:
        """(seconds, reference) of SETUP_REPEATS fresh-interpreter set-ups,
        each with the mean of the import readings before and after it."""
        from calibrate import import_reading

        references, times = [import_reading()], []
        for _ in range(SETUP_REPEATS):
            times.append(self.setup_seconds())
            references.append(import_reading())
        return [(t, (a + b) / 2) for t, a, b in zip(times, references, references[1:])]

    def solve(self, seed: int, tracer=None, calibrator=None) -> Outcome:
        """One solve.  With a calibrator, a reading is taken first if one is
        due, more are taken inside the blackbox callable, and their time is
        left out of ``seconds``; the reading after the solve comes later."""
        from checks import evals_to_target, run_checks, self_test, summarize

        mb, w = self.mb, self.workload
        outcome = Outcome(seed, tracer is not None)
        problem = self.parsed.problem
        if calibrator is not None:
            calibrator.read_if_due()
            first, paused = len(calibrator.readings) - 1, calibrator.paused
            if problem.objective is not None:
                problem = dataclasses.replace(
                    problem, objective=calibrator.between_readings(problem.objective))
        if tracer is not None:
            counts_before = Counter(tracer.counts)
            proposals_before = len(tracer.proposals)
            if problem.objective is not None:
                problem = dataclasses.replace(
                    problem, objective=tracer.wrap("blackbox.backend", problem.objective))
        try:
            start = time.perf_counter()
            if tracer is None:
                result = self._run_solver(problem, seed)
            else:
                with tracer.span("bench.solve") as root:
                    result = self._run_solver(problem, seed)
                outcome.spans = (root, len(tracer))
            outcome.seconds = time.perf_counter() - start
            if calibrator is not None:
                outcome.seconds -= calibrator.paused - paused
                outcome.readings = (first, len(calibrator.readings))
        except Exception as exc:  # a solve that raises is a failed operation
            outcome.failures = {"raised": [f"{type(exc).__name__}: {exc}"]}
            return outcome
        summary = summarize(result, w.budget)
        outcome.failures = run_checks(summary, self.mlp_oracle, self.toy_oracle)
        if self.self_test is None and not outcome.failures:
            self.self_test = self_test(summary, self.mlp_oracle, self.toy_oracle)
        outcome.charged = summary.charged
        outcome.cache_hits = len(summary.records) - len(summary.fresh)
        outcome.errors = sum(r.error is not None for r in summary.records)
        outcome.evals_to_target = evals_to_target(summary, self.target)
        outcome.best = None if summary.best is None else summary.best.objective
        outcome.iterations = len(getattr(result, "iterations", ()))
        if tracer is not None:
            outcome.counts = Counter(tracer.counts)
            outcome.counts.subtract(counts_before)
            fresh = {r.key: r for r in summary.fresh}
            for key, surrogate_feasible in tracer.proposals[proposals_before:]:
                feasible = key in fresh and fresh[key].feasible
                outcome.proposals += 1
                outcome.proposals_feasible += feasible
                outcome.surrogate_misses += surrogate_feasible and not feasible
        return outcome

    def _run_solver(self, problem, seed: int):
        mb, w, parsed = self.mb, self.workload, self.parsed
        if w.solver == "direct":
            mapping = parsed.meta_mapping or mb.default_meta_mapping(parsed.domain)
            return mb.run_direct_search(problem, mb.SearchConfig(budget=w.budget, seed=seed),
                                        meta_mapping=mapping,
                                        categorical_mapping=parsed.categorical_mapping,
                                        progress=False)
        return mb.run_bo(problem, mb.BOConfig(budget=w.budget, seed=seed))


def _rounds(bench: Bench, seed: int, seconds: float, trace: bool, calibrator=None):
    """Whole rounds over the solver seeds until ``seconds`` have passed.

    In a traced run every seed is solved twice per round, untraced and
    traced back to back (the order alternates by round), so the tracing
    overhead is measured on pairs of identical solves close in time.  With
    a calibrator (untraced runs), one more reading after the last round
    closes the last solves.
    """
    from spans import Tracer, instrument

    rng = random.Random(f"{bench.name}:{seed}")
    tracer = Tracer() if trace else None
    outcomes = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        order = list(bench.solver_seeds)
        rng.shuffle(order)
        modes = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for solver_seed in order:
            for traced in modes:
                if traced:
                    with instrument(tracer):
                        outcome = bench.solve(solver_seed, tracer)
                else:
                    outcome = bench.solve(solver_seed, calibrator=calibrator)
                _report(bench.name, outcome)
                outcomes.append(outcome)
        rounds += 1
    if calibrator is not None:
        calibrator.read()
        for outcome in outcomes:
            if outcome.readings:
                outcome.calibration = calibrator.mean(*outcome.readings)
    return outcomes, tracer


def _report(name: str, o: Outcome):
    seconds = o.seconds if o.seconds is not None else float("nan")
    verdict = "FAILED " + json.dumps(o.failures)[:500] if o.failed else "ok"
    print(f"solve {name} seed {o.seed} traced {int(o.traced)} {seconds:.4f} s "
          f"charged {o.charged} best {o.best} evals_to_target {o.evals_to_target} {verdict}",
          file=sys.stderr, flush=True)


def end_to_end_metrics(outcomes, setup_times) -> dict:
    from calibrate import NOMINAL_IMPORT_S, scaled

    timed = [o for o in outcomes if o.seconds is not None]
    return {
        "setup_s": statistics.median(scaled(t, reference, NOMINAL_IMPORT_S)
                                     for t, reference in setup_times),
        "solve_s": (statistics.median(scaled(o.seconds, o.calibration) for o in timed)
                    if timed else 0.0),
        "evals_to_target": statistics.fmean(o.evals_to_target for o in timed) if timed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, outcomes, parse_times) -> dict:
    traced = [o for o in outcomes if o.traced and o.seconds is not None]
    # Outcomes come in (untraced, traced) pairs of one seed, in either order.
    overheads = [(b.seconds - a.seconds) * (1 if b.traced else -1)
                 for a, b in zip(outcomes[::2], outcomes[1::2])
                 if a.seconds is not None and b.seconds is not None]
    n = max(len(traced), 1)
    calls, inclusive, own = Counter(), Counter(), Counter()
    counts = Counter()
    for o in traced:
        for label, (c, incl, self_s) in tracer.aggregate(*o.spans).items():
            calls[label] += c
            inclusive[label] += incl
            own[label] += self_s
        counts.update(o.counts)

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(field):
        return sum(getattr(o, field) for o in traced) / n

    direct = [o for o in traced if o.iterations]
    bo = [o for o in traced if not o.iterations]
    m = {
        "problem_file.parse_s": statistics.median(parse_times),
        "blackbox.evaluate_calls": calls["blackbox.evaluate"] / n,
        "blackbox.evaluations": mean("charged"),
        "blackbox.cache_hits": mean("cache_hits"),
        "blackbox.evaluate_s": inclusive["blackbox.evaluate"] / n,
        "blackbox.backend_s": inclusive["blackbox.backend"] / n,
        "blackbox.overhead_s": (inclusive["blackbox.evaluate"]
                                - inclusive["blackbox.backend"]) / n,
        "blackbox.launch_ms": 1e3 * ratio(inclusive["blackbox.backend"],
                                          calls["blackbox.backend"]),
        "blackbox.cache_key_calls": calls["blackbox.cache_key"] / n,
        "blackbox.cache_key_s": own["blackbox.cache_key"] / n,
        "blackbox.errors": mean("errors"),
        "domain.membership_calls": calls["domain.membership"] / n,
        "domain.membership_s": own["domain.membership"] / n,
        "domain.acting_index_set_s": own["domain.acting_index_set"] / n,
        "constraints.acting_s": own["constraints.acting"] / n,
        "constraints.feasibility_s": own["constraints.feasibility"] / n,
        "neighborhoods.calls": calls["neighborhoods"] / n,
        "neighborhoods.s": own["neighborhoods"] / n,
        "direct_search.iterations": mean("iterations"),
        "direct_search.subproblems": calls["direct_search.subproblem"] / n,
        "direct_search.subproblem_s": own["direct_search.subproblem"] / n,
        "direct_search.improving_ratio": ratio(counts["direct_search.improving"],
                                               calls["direct_search.subproblem"]),
        "gp.fit_calls": calls["gp.fit"] / n,
        "gp.fit_s": own["gp.fit"] / n,
        "gp.correlation_matrix_calls": calls["gp.correlation_matrix"] / n,
        "gp.correlation_matrix_s": own["gp.correlation_matrix"] / n,
        "gp.model_builds": calls["gp.model_build"] / n,
        "gp.model_build_s": own["gp.model_build"] / n,
        "gp.jitter_escalations": counts["gp.jitter_escalations"] / n,
        "gp.features_s": own["gp.features"] / n,
        "gp.pair_tensors_s": own["gp.pair_tensors"] / n,
        "gp.predict_calls": calls["gp.predict"] / n,
        "gp.predict_points": counts["gp.predict_points"] / n,
        "gp.predict_s": own["gp.predict"] / n,
        "gp.mean_s": own["gp.mean"] / n,
        "bayesian.iterations": calls["bayesian.acquisition"] / n,
        "bayesian.acquisition_s": own["bayesian.acquisition"] / n,
        "bayesian.points_per_predict": ratio(counts["gp.predict_points"],
                                             calls["gp.predict"]),
        "bayesian.proposals": mean("proposals"),
        "bayesian.proposal_feasible_ratio": ratio(sum(o.proposals_feasible for o in traced),
                                                  sum(o.proposals for o in traced)),
        "bayesian.surrogate_misses": mean("surrogate_misses"),
        "direct_search.best_value": statistics.fmean(o.best for o in direct) if direct else 0.0,
        "bayesian.best_value": statistics.fmean(o.best for o in bo) if bo else 0.0,
        "trace.overhead_s": statistics.median(overheads) if overheads else 0.0,
    }
    return m


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    return {"commit": commit, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "metabox", "__init__.py")):
        print(f"bench: no metabox sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import metabox as mb
    from calibrate import Calibrator

    os.makedirs(OUT, exist_ok=True)
    seeds = WORKLOADS[args.workload].solver_seeds
    if args.solver_seeds:
        seeds = tuple(int(s) for s in args.solver_seeds.split(","))
    env = environment()
    print(f"bench {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"solver seeds {list(seeds)} {json.dumps(env)}")
    bench = Bench(args.workload, seeds, mb)
    if args.trace:
        return _measure(args, bench, mb, env, None)
    with Calibrator() as calibrator:
        return _measure(args, bench, mb, env, calibrator)


def _measure(args, bench, mb, env, calibrator) -> int:
    trace = bool(args.trace)
    if trace:
        from spans import Tracer, instrument
        parse_tracer = Tracer()
        with instrument(parse_tracer):
            for _ in range(PARSE_REPEATS):
                mb.parse_problem_file(bench.problem_path)
        parse_times = parse_tracer.durations("problem_file.parse")
    else:
        setup_times = bench.setup_times()
    outcomes, tracer = _rounds(bench, args.seed, args.seconds, trace, calibrator)

    if trace:
        metrics, units = layer_metrics(tracer, outcomes, parse_times), PER_LAYER
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
    else:
        metrics, units = end_to_end_metrics(outcomes, setup_times), END_TO_END
    failed = sum(o.failed for o in outcomes)
    caught = bench.self_test or {}
    correct = failed == 0 and bool(caught) and all(caught.values())
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    raw = {}
    if not trace:
        timed = [o for o in outcomes if o.seconds is not None]
        raw = {"calibration_s": statistics.median(calibrator.readings),
               "solve_s": statistics.median(o.seconds for o in timed) if timed else 0.0,
               "setup_s": statistics.median(t for t, _ in setup_times),
               "import_reading_s": statistics.median(r for _, r in setup_times)}
    for name, value in raw.items():
        print(f"unscaled {name} {value!r} s")
    print(f"self-test {json.dumps(caught)}")
    print(f"attempted {len(outcomes)} failed {failed}")
    result = {"correct": correct, "attempted": len(outcomes), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "self_test": caught, "unscaled": raw,
              "solves": [{k: v for k, v in dataclasses.asdict(o).items()
                          if k not in ("spans", "counts")} for o in outcomes]}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--solver-seeds", args.solver_seeds]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the solves of each round")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--solver-seeds", default="",
                        help="comma-separated solver seeds (default: the workload's list)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
