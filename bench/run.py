"""Benchmark for weylcyc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: weylcyc is imported from that checkout's
src/ directory, and the `weylcyc` command is run from there too.  Inputs are
generated from the seed (inputs.py), every output is checked against the
benchmark's own constructions (checks.py), and the last line printed is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics.  --trace 1 alternates untraced and
traced passes over the inputs, records a span around each call into weylcyc,
and gives the per-layer metrics, the tracing overhead among them.  Traces and
results are written to bench/out/.

Timings are kept per input: a run repeats every input many times and keeps
each input's fastest repetition, then reports the median over inputs.  On a
machine whose speed swings between states for seconds at a time, the
fastest repetition of an input is steady from run to run where the median of
all repetitions is not: it jumps with the share of the run spent in each
state.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import operator
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import checks
import inputs
import ops
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REPEATS = 5  # timed repetitions of every input per run, traced and untraced each
SETUP_RUNS = 15  # set-up processes per run; setup_s is their median
PROBE_RUNS = 5  # repetitions of each per-layer probe; each reports its fastest


def calibration_ms() -> list[float]:
    """Five timings of a fixed pure-Python loop: they tell a slow machine from a slow program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return times


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds(wires) -> float:
    """Process start to "ready" for one set-up probe process."""
    payload = json.dumps(wires).encode()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    proc.stdin.write(payload)
    proc.stdin.close()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed: {err.decode()[-500:]}")
    return elapsed


def process_ms(code: str) -> float:
    """Wall time of `python -c code`, the fastest of PROBE_RUNS."""
    times = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return min(times)


def best_of(samples) -> dict:
    """{key: smallest value} of (key, value) samples: each input's fastest repetition."""
    best: dict = {}
    for key, value in samples:
        best[key] = min(value, best.get(key, value))
    return best


def counts(workload: str, case: dict, out) -> tuple[int, list, int]:
    """Violations reported, hw_closure results, and ordered pairs is_irreducible scanned."""
    if workload == "pairwise_scan":
        cyc, irr = out
        k = len(case["obj"].factors)
        return len(cyc.violations) + len(irr.evidence), [], k * (k - 1)
    if workload == "rank1_closure":
        return len(out[1].violations), [out[3], out[4]], 0
    k = len(case["obj"].factors)
    return len(out[3].violations) + len(out[4].evidence), [out[1]], k * (k - 1)


IN_PROCESS = {
    "pairwise_scan": (ops.scan_op, checks.check_scan),
    "rank1_closure": (ops.string_op, checks.check_string),
    "rank1_oracle": (ops.oracle_op, checks.check_oracle),
}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tracer = spans.Tracer() if trace else None
        self.api = ops.Api()
        self.traced_api = ops.Api(self.tracer) if trace else None
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        rounds = inputs.make(workload, seed)
        self.cases = [((r, i), case) for r, cases in enumerate(rounds) for i, case in enumerate(cases)]
        self.decoded = [case for _, case in self.cases if "wire" in case]
        self.wires = [c["wire"] for c in self.decoded]
        self.cli = ops.CliRound(child_env()) if workload == "cli_oneshot" else None
        self.op_seq = 0

    # -- set-up -----------------------------------------------------------

    def build(self) -> None:
        """Decode every input, check that it encodes back to its wire form,
        and fill the caches the first operation would otherwise fill."""
        api = self.traced_api or self.api
        for i, case in enumerate(self.decoded):
            with self.tracer.operation(f"setup:{i}") if self.trace else contextlib.nullcontext():
                case["obj"] = ops.decode(api, case["wire"])
                back = ops.encode(api, case["wire"], case["obj"])
            if back != case["wire"][1]:
                self.errors.append(f"codec round trip changed {case['wire'][1]} into {back}")
        ops.warm(self.api, [case["obj"] for case in self.decoded])

    # -- operations -------------------------------------------------------

    def op(self, case: dict, traced: bool):
        """Run one operation: (seconds, problems, counts or None)."""
        self.op_seq += 1
        start = time.perf_counter()
        try:
            with self.tracer.operation(self.op_seq) if traced else contextlib.nullcontext():
                if self.cli is not None:
                    call = self.cli.call
                    if traced:
                        call = self.tracer.wrap("cli.weylcyc", call)
                    checked, proc, twice_of = call(case)
                else:
                    fn, _ = IN_PROCESS[self.workload]
                    out = fn(self.traced_api if traced else self.api, case["obj"])
        except Exception as exc:  # the run goes on; the operation counts as failed
            return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], None
        elapsed = time.perf_counter() - start
        try:
            if self.cli is not None:
                problems = checks.check_cli(checked, proc.returncode, proc.stdout, proc.stderr, twice_of)
            else:
                problems = IN_PROCESS[self.workload][1](case, out)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problems = [f"output of unexpected shape: {type(exc).__name__}: {exc}"]
        if self.cli is not None:
            self.cli.record(checked, proc, twice_of, not problems)
            return elapsed, problems, None
        return elapsed, problems, counts(self.workload, case, out) if traced and not problems else None

    def loop(self):
        """Whole passes over every input until the time is up and each input
        has been timed MIN_REPEATS times.  Pass 0 warms up and is not timed.
        With tracing, odd passes are traced.  Without, set-up probes are spread
        over the run, between operations, so that setup_s sees the same machine
        as the operations.  Timings are (input key, seconds)."""
        plain, traced, layer_counts, setup = [], [], [], []
        n, start = 0, None
        while True:
            is_traced = self.trace and n % 2 == 1
            for key, case in self.cases:
                elapsed, problems, got = self.op(case, is_traced)
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.errors.extend(problems)
                if n > 0:
                    (traced if is_traced else plain).append((key, elapsed))
                if is_traced:
                    layer_counts.append((self.op_seq, key, got))
                if not self.trace and start is not None and len(setup) < SETUP_RUNS:
                    if time.perf_counter() - start >= len(setup) * self.seconds / SETUP_RUNS:
                        setup.append(setup_seconds(self.wires))
            n += 1
            if start is None:
                start = time.perf_counter()
            enough = MIN_REPEATS * len(self.cases)
            if (
                time.perf_counter() - start >= self.seconds
                and len(plain) >= enough
                and (not self.trace or len(traced) >= enough)
                and (not self.trace or n % 2 == 1)
            ):
                while not self.trace and len(setup) < SETUP_RUNS:
                    setup.append(setup_seconds(self.wires))
                return plain, traced, layer_counts, setup

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, plain: list, setup: list[float]) -> dict:
        best = best_of(plain)
        who = resource.RUSAGE_CHILDREN if self.cli is not None else resource.RUSAGE_SELF
        return {
            "setup_s": (median(setup), "s"),
            "op_best_ms": (median(best.values()) * 1e3, "ms"),
            "ops_per_s": (len(best) / sum(best.values()), "1/s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }

    def sweep(self) -> list:
        """One traced and checked operation of each other in-process workload,
        so that every per-layer metric is measured; a metric falls back on these
        only when the workload's own operations never call that function."""
        got = []
        for name, (fn, check) in IN_PROCESS.items():
            if name == self.workload:
                continue
            case = inputs.make(name, self.seed)[0][0]
            case["obj"] = ops.setup(self.api, [case["wire"]])[0]
            with self.tracer.operation(f"sweep:{name}"):
                out = fn(self.traced_api, case["obj"])
            self.errors.extend(check(case, out))
            got.append((f"sweep:{name}", name, counts(name, case, out)))
        return got

    def cli_main_ms(self) -> float:
        """In-process weylcyc.cli.main(argv) on each cli_oneshot input, stdout
        captured: the median over inputs of each one's fastest of PROBE_RUNS calls."""
        from weylcyc import cli

        cases = [case for cases in inputs.make("cli_oneshot", self.seed) for case in cases]
        samples = []
        for _ in range(PROBE_RUNS):
            for i, case in enumerate(cases):
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(ops.argv_of(case))
                samples.append((i, (time.perf_counter() - start) * 1e3))
                self.errors.extend(checks.check_cli(case, code, out.getvalue(), err.getvalue()))
        return median(best_of(samples).values())

    def cartan_cold_ms(self) -> float:
        """cartan_data for every type of the inputs, after clearing its caches:
        the fastest of PROBE_RUNS."""
        from weylcyc import rootsys

        types = sorted({case["obj"].type for case in self.decoded}, key=str)
        times = []
        for _ in range(PROBE_RUNS):
            rootsys.kappa.cache_clear()
            rootsys.cartan_data.cache_clear()
            start = time.perf_counter()
            for lt in types:
                rootsys.cartan_data(lt)
            times.append((time.perf_counter() - start) * 1e3)
        return min(times)

    def per_layer(self, plain, traced, layer_counts) -> dict:
        """Self times are per input, like the end-to-end timings: each input's
        fastest traced repetition, then the median over inputs."""
        own = [(op, key, c) for op, key, c in layer_counts if c is not None]
        swept = self.sweep()
        self_times = self.tracer.self_times()

        def function_ms(*names):
            samples = spans.self_ms(self_times, [(op, key) for op, key, _ in own], names)
            samples = samples or spans.self_ms(self_times, [(op, key) for op, key, _ in swept], names)
            return median(best_of(samples).values())

        def doing(index):
            """The ops that did this kind of work: the workload's own, else the sweep's."""
            return [c for _, _, c in own if c[index]] or [c for _, _, c in swept if c[index]]

        counted = [c for _, _, c in own] or [c for _, _, c in swept]
        closing, scanning = doing(1), doing(2)
        closures = [cl for c in closing for cl in c[1]]
        operands = [x for _, basis in closures for vec in basis for x in vec if x]
        bits = max(
            max(q.numerator.bit_length(), q.denominator.bit_length())
            for x in operands
            for q in (x.re, x.im)
        )
        pairs = list(zip(operands, operands[1:]))[:512]
        codec = ("drinfeld.word_from_dict", "drinfeld.word_to_dict",
                 "drinfeld.tuple_from_dict", "drinfeld.tuple_to_dict")
        setup_ops = [(f"setup:{i}", i) for i in range(len(self.wires))]
        interp = process_ms("pass")
        traced_ms = median(best_of(traced).values()) * 1e3
        plain_ms = median(best_of(plain).values()) * 1e3
        return {
            "drinfeld.codec_ms": (median(best_of(spans.self_ms(self_times, setup_ops, codec)).values()), "ms"),
            "drinfeld.crational_mul_ns": (_per_call_ns(pairs, operator.mul), "ns"),
            "drinfeld.crational_add_ns": (_per_call_ns(pairs, operator.add), "ns"),
            "drinfeld.max_bits": (bits, "count"),
            "rootsys.cartan_data_ms": (self.cartan_cold_ms(), "ms"),
            "criteria.is_cyclic_ms": (function_ms("criteria.is_cyclic"), "ms"),
            "criteria.is_irreducible_ms": (function_ms("criteria.is_irreducible"), "ms"),
            "criteria.pairs_per_s": (median(c[2] for c in scanning) * 1e3 / function_ms("criteria.is_irreducible"), "1/s"),
            "criteria.violations": (sum(c[0] for c in counted) / len(counted), "count"),
            "criteria.weyl_factorize_ms": (function_ms("criteria.weyl_factorize"), "ms"),
            "sl2.build_ms": (function_ms("sl2.irrep_Wm", "sl2.tensor"), "ms"),
            "sl2.hw_closure_ms": (function_ms("sl2.hw_closure"), "ms"),
            "sl2.closure_rank": (sum(rank for rank, _ in closures) / len(closing), "count"),
            "sl2.burnside_ms": (function_ms("sl2.burnside_dim"), "ms"),
            "cli.interp_ms": (interp, "ms"),
            "cli.import_ms": (process_ms("import weylcyc") - interp, "ms"),
            "cli.main_ms": (self.cli_main_ms(), "ms"),
            "trace.op_best_ms": (traced_ms, "ms"),
            "trace.overhead_pct": ((traced_ms / plain_ms - 1) * 100, "%"),
        }


def _per_call_ns(pairs, fn) -> float:
    times = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        times.append((time.perf_counter_ns() - start) / len(pairs))
    return min(times)


def _spread(values) -> str:
    values = list(values)
    q1, q2, q3 = quantiles(values, n=4)
    return (
        f"n={len(values)} min={min(values):.3f} q1={q1:.3f} p50={q2:.3f} q3={q3:.3f} "
        f"p90={quantiles(values, n=10)[8]:.3f} max={max(values):.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylcyc" / "__init__.py").is_file():
        print(f"bench: no weylcyc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weylcyc

    if Path(weylcyc.__file__).resolve().parent != SRC / "weylcyc":
        print(f"bench: imported weylcyc from {weylcyc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {inputs.WORKLOADS}", file=sys.stderr)
        return 2

    calibration_before = calibration_ms()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.build()
    plain, traced, layer_counts, setup = run.loop()
    if run.trace:
        metrics = run.per_layer(plain, traced, layer_counts)
    else:
        metrics = run.end_to_end(plain, setup)
    calibration_after = calibration_ms()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for when, times in (("before", calibration_before), ("after", calibration_after)):
        print(f"calibration_ms {when} median={median(times):.3f} best={min(times):.3f}")
    kinds = (("untraced", plain), ("traced", traced)) if run.trace else (("untraced", plain),)
    for kind, timings in kinds:
        print(f"op_ms {kind} every op {_spread(t * 1e3 for _, t in timings)}")
        print(f"op_ms {kind} best per input {_spread(t * 1e3 for t in best_of(timings).values())}")
    if run.trace:
        own = {op for op, _, _ in layer_counts}
        by_module: dict[str, float] = {}
        for op, names in run.tracer.self_times().items():
            if op in own:
                for name, ns in names.items():
                    module = name.split(".")[0]
                    by_module[module] = by_module.get(module, 0) + ns / 1e6 / len(own)
        print("self_ms_per_op " + " ".join(f"{m}={v:.3f}" for m, v in sorted(by_module.items())))
    else:
        print("setup_s " + " ".join(f"{s:.4f}" for s in setup))
    print(f"attempted {run.attempted} failed {run.failed}")
    for problem in run.errors[:20]:
        print(f"FAIL {problem}")

    correct = not run.errors
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.trace:
        run.tracer.write(OUT / f"trace-{stem}.json")
    line = json.dumps(result)
    (OUT / f"result-{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
