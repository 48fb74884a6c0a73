#!/usr/bin/env python3
"""Closed-loop benchmark of M-stationarity certification.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root with the BLAS thread count fixed to one
(BENCHMARK.json's command does so).  One process, one thread: each call
starts when the previous one returns.  Every workload has a fixed pool
of inputs drawn from fixed seeds (see README.md); ``--seed`` only orders
the calls within each round.  A run makes the whole number of rounds over
the pool nearest to ``--seconds`` of calls, so every run attempts the same
operations and the instances a fault hits fail in the same share.  Times
are reported in reference time, which follows the machine's speed
(``speed.py``).

Every output is checked by ``checks.py``, which shares no code with the
program.  A call that raises counts as failed; an output that fails a
check counts as failed and makes the run incorrect.  Neither is timed
into the latencies.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` instead traces rounds over every
workload's pool (one at ``--seconds 20``) and reports per-layer metrics
per round, named after the workload whose end-to-end figures they
explain; the spans are written to ``certbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
# Pool sizes and seeds; instance i of a pool is drawn from default_rng([BASE, i]).
SEEDED_WIDE = dict(base=6, size=40, p=6)
RANDOM_WIDE = dict(base=7, size=40, p=7)
COMBINE_DISTINCT = dict(base=5, size=30, p=5)
CLI_SMALL = dict(base=2002, size=2000)

# Per-layer metrics of the traced run, by the workload they are measured on.
PER_LAYER = {
    "seeded-wide": (
        "cones.branch_lp.calls", "cones.branch_lp.infeasible", "cones.branch_lp.ms",
        "solvers.min_norm_point.calls", "solvers.min_norm_point.ms",
        "solvers.min_norm_point.vertices", "solvers.min_norm_point.cold_starts",
        "stationarity.schinabeck_combine.ms", "stationarity.schinabeck_combine.self_ms",
    ),
    "random-wide": (
        "cones.branch_lp.calls", "cones.branch_lp.infeasible", "cones.branch_lp.ms",
        "cones.branch_lp.after_decided", "solvers.lp_solve.calls", "solvers.lp_solve.ms",
    ),
    "combine-distinct": (
        "solvers.min_norm_point.calls", "solvers.min_norm_point.ms",
        "solvers.min_norm_point.vertices", "solvers.min_norm_point.cold_starts",
        "stationarity.schinabeck_combine.ms", "stationarity.schinabeck_combine.self_ms",
    ),
    "cli-small": (
        "model.check_feasibility.calls", "model.ms",
        "stationarity.certify.self_ms", "stationarity.check_stationarity_system.ms",
        "oracle.oracle_m_exists.calls", "oracle.oracle_m_exists.ms", "oracle.lp_solve.calls",
        "problemfile.load_problem.ms", "report.certificate_report.ms",
        "cli.emit.ms", "cli.build_parser.ms", "cli.self_ms",
    ),
}

_t0 = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    import mpcc_cert.cli as cli
    import mpcc_cert.stationarity as stationarity
    from mpcc_cert import evaluate_affine
    from mpcc_cert.instances import random_affine_instance, random_branch_points
except ImportError as exc:
    sys.exit(f"certbench: cannot import the program from {ROOT / 'src'}: {exc}")
IMPORT_S = time.perf_counter() - _t0

import checks  # noqa: E402  (scipy; imported after the program's import is timed)
import speed  # noqa: E402
import tracing  # noqa: E402

EXIT_NUMERICAL = 4


class ProgramFailure(Exception):
    """The program reported that it could not decide (the CLI's exit 4)."""


class Pool:
    """A workload's fixed inputs with the call under test and its check.

    ``prepare`` writes what the call reads from disk; ``cleanup`` removes it.
    """

    def __init__(self, size, call, check, prepare=None, cleanup=None):
        self.size, self.call, self.check = size, call, check
        self.prepare = prepare or (lambda: None)
        self.cleanup = cleanup or (lambda: None)


def _affine_problem(inst):
    return checks.affine_problem(inst.c, inst.A_g, inst.b_g, inst.A_h, inst.b_h,
                                 inst.A_G, inst.b_G, inst.A_H, inst.b_H)


def certify_pool(base, size, p, objective):
    datas, probs = [], []
    for i in range(size):
        inst = random_affine_instance(np.random.default_rng([base, i]), 2 * p, 3, 1, p,
                                      objective=objective, min_biactive=p)
        datas.append(evaluate_affine(inst, np.zeros(inst.n)))
        probs.append(_affine_problem(inst))

    def call(i):
        return stationarity.certify_m_stationarity(datas[i])

    def check(i, v):
        w = v.witness
        witness = None if w is None else (w.lam, w.eta, w.mu, w.nu)
        failed = None if v.failed_branch is None else v.failed_branch.choices
        return checks.certify_problems(probs[i], objective == "seeded", v.kind.value,
                                       witness, failed)

    return Pool(size, call, check)


def combine_pool(base, size, p):
    families = [random_branch_points(np.random.default_rng([base, i]), p) for i in range(size)]
    # the inputs come in lexicographic assignment order, the order of the weights
    stacked = [np.array([np.concatenate([m.mu, m.nu]) for m, _ in fam]) for fam in families]

    def call(i):
        return stationarity.schinabeck_combine(families[i], range(p))

    def check(i, res):
        return checks.combine_problems(stacked[i], res.weights,
                                       res.multiplier.mu, res.multiplier.nu)

    return Pool(size, call, check)


def cli_pool(base, size):
    """Affine problem files in the acceptance-2 mix, 70% with seeded objectives."""
    folder = OUT / "cli-small"
    files, texts, probs, seeded = [], [], [], []
    for i in range(size):
        rng = np.random.default_rng([base, i])
        n, l, m, p = (int(rng.integers(2, 7)), int(rng.integers(0, 4)),
                      int(rng.integers(0, 4)), int(rng.integers(1, 5)))
        seeded.append(i % 10 < 7)
        inst = random_affine_instance(rng, n, l, m, p,
                                      objective="seeded" if seeded[-1] else "random")
        doc = {"mode": "affine", "c": inst.c.tolist(), "x_bar": [0.0] * n}
        for mat, rhs in (("A_g", "b_g"), ("A_h", "b_h"), ("A_G", "b_G"), ("A_H", "b_H")):
            if getattr(inst, rhs).size:
                doc[mat] = getattr(inst, mat).tolist()
                doc[rhs] = getattr(inst, rhs).tolist()
        files.append(str(folder / f"{i:05d}.json"))
        texts.append(json.dumps(doc))
        probs.append(_affine_problem(inst))

    def prepare():
        folder.mkdir(parents=True, exist_ok=True)
        for path, text in zip(files, texts):
            Path(path).write_text(text, encoding="utf-8")

    def call(i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["certify", files[i], "--json", "--oracle"])
        if code == EXIT_NUMERICAL:
            raise ProgramFailure(err.getvalue().strip())
        return code, out.getvalue()

    def check(i, out):
        return checks.cli_problems(probs[i], seeded[i], *out)

    return Pool(size, call, check, prepare,
                cleanup=lambda: shutil.rmtree(folder, ignore_errors=True))


WORKLOADS = {
    "seeded-wide": lambda: certify_pool(objective="seeded", **SEEDED_WIDE),
    "random-wide": lambda: certify_pool(objective="random", **RANDOM_WIDE),
    "combine-distinct": lambda: combine_pool(**COMBINE_DISTINCT),
    "cli-small": lambda: cli_pool(**CLI_SMALL),
}


class Tally:
    """Every call's start, wall time and outcome; wrong outputs with their problems."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong, self.raised = [], {}
        self.start, self.seconds, self.ok = [], [], []

    def record(self, pool, i, out, exc, start, seconds):
        problems = [] if exc is not None else pool.check(i, out)
        if problems:
            self.wrong.append((i, problems))
        if exc is not None:
            self.raised.setdefault(i, f"{type(exc).__name__}: {exc}")
        ok = exc is None and not problems
        self.attempted += 1
        self.failed += not ok
        self.start.append(start)
        self.seconds.append(seconds)
        self.ok.append(ok)

    def reference_seconds(self, gauge):
        return gauge.to_reference(self.start, self.seconds)


def one_round(pool, call, order, tally, gauge):
    """Call every input once in ``order``; return the wall time spent calling."""
    gc.collect()  # garbage from the last round's checks is not this round's cost
    gauge.sample()
    results = []
    clock = time.perf_counter
    busy = 0.0
    for i in order:
        t = clock()
        try:
            out, exc = call(i), None
        except Exception as error:  # a failed operation; counted, not timed
            out, exc = None, error
        took = clock() - t
        busy += took
        results.append((i, out, exc, t, took))
        gauge.sample_if_due()
    gauge.sample()
    for result in results:
        tally.record(pool, *result)
    return busy


def set_up(name):
    """Build the workload's pool and make one warm-up call.

    Returns the pool and the wall time taken, less the time spent writing
    files: creating 2000 small files took this filesystem 0.5 to 2 s, a
    spread that belongs to the disk, not the program.
    """
    clock = time.perf_counter
    start = clock()
    pool = WORKLOADS[name]()
    took = clock() - start
    pool.prepare()
    start = clock()
    try:
        pool.call(0)
    except Exception:  # the warm-up input may be one a fault hits
        pass
    return pool, took + clock() - start


def run_untraced(name, seed, seconds):
    gauge = speed.Gauge()
    gauge.sample(5)
    import_s = gauge.to_reference(gauge.at[0], IMPORT_S)[0]
    starts, setups = [], []
    for _ in range(SETUP_REPEATS):
        starts.append(time.perf_counter())
        pool, took = set_up(name)
        setups.append(took)
        gauge.sample(5)
    rng = np.random.default_rng(seed)
    tally, busy, took = Tally(), 0.0, 0.0
    # the whole number of rounds nearest to --seconds, at least one
    while busy == 0.0 or busy + took / 2 < seconds:
        took = one_round(pool, pool.call, rng.permutation(pool.size), tally, gauge)
        busy += took
    pool.cleanup()
    ref = tally.reference_seconds(gauge)
    ok = np.array(tally.ok)
    lat_ms = 1000.0 * ref[ok]
    wall_ms = 1000.0 * np.array(tally.seconds)[ok]
    print(f"certbench: wall clock p50 {np.median(wall_ms):.4g} ms, "
          f"p90 {np.percentile(wall_ms, 90):.4g} ms, {ok.sum() / busy:.4g} ops/s; "
          f"kernel median {1000 * np.median(gauge.seconds):.4g} ms", file=sys.stderr)
    metrics = {
        "ops_per_s": (int(ok.sum()) / float(ref.sum()), "ops/s"),
        "latency_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (float(import_s + np.median(gauge.to_reference(starts, setups))), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def run_traced(name, seed, seconds):
    pools = {wl: set_up(wl)[0] for wl in WORKLOADS}
    gauge = speed.Gauge()
    rng = np.random.default_rng(seed)
    plain = Tally()
    one_round(pools[name], pools[name].call, rng.permutation(pools[name].size), plain, gauge)
    tracer = tracing.Tracer()
    traced = {wl: Tally() for wl in pools}
    roots = {wl: [] for wl in pools}
    rounds, busy = 0, 0.0
    with tracer.installed():
        while rounds == 0 or busy < seconds:
            rounds += 1
            for wl, pool in pools.items():
                first = len(tracer.spans)
                busy += one_round(pool, tracer.wrap(pool.call, "op." + wl),
                                  rng.permutation(pool.size), traced[wl], gauge)
                roots[wl] += [s for s in range(first, len(tracer.spans))
                              if tracer.spans[s][tracing.PARENT] < 0]
    for pool in pools.values():
        pool.cleanup()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")

    metrics = {}
    for wl, names in PER_LAYER.items():
        # span times are converted with the workload's own wall-to-reference ratio
        scale = traced[wl].reference_seconds(gauge).sum() / sum(traced[wl].seconds)
        stats = tracing.summarize(tracer.spans, roots[wl])
        for key in names:
            if key.endswith("ms"):
                metrics[f"{wl}.{key}"] = (scale * stats[key] / rounds, "ms")
            else:
                metrics[f"{wl}.{key}"] = (int(stats[key]) // rounds, "count")
    plain_s = plain.reference_seconds(gauge).sum()
    traced_s = traced[name].reference_seconds(gauge).sum() / rounds
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    tally = Tally()
    for wl, part in [(name, plain), *traced.items()]:
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.wrong += [((wl, i), problems) for i, problems in part.wrong]
        tally.raised.update({(wl, i): error for i, error in part.raised.items()})
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = run_traced if args.trace else run_untraced
    tally, metrics = run(args.workload, args.seed, args.seconds)
    for i, error in sorted(tally.raised.items()):
        error = error.replace("\n", " | ")
        print(f"certbench: input {i} raised {error}", file=sys.stderr)
    for i, problems in tally.wrong[:10]:
        print(f"certbench: wrong output on input {i}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
