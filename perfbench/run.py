"""Benchmark of the `behrend` CLI and library: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  With --trace 0 the run times whole passes over the workload's query
list for S seconds and prints the end-to-end metrics; with --trace 1 it
replays one pass of every workload with each layer wrapped and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W  # perfbench/ is on sys.path as the script's directory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"  # run outputs (SVGs, child stderr); removed after the run
SETUP_PROBES = 7  # at least
PROBE_EVERY = 2.5  # seconds
TRACE_PROBES = 5
TRACE_VERIFY_SEEDS = 4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("BEHREND_FORMAT", None)
    return env


def timed_child(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


class SetupProbes:
    """Fresh interpreters that import behrend and build the workload's inputs.

    The machine's speed drifts over seconds, so the probes are spread over
    the whole run (one every PROBE_EVERY seconds, between queries) and the
    median is reported.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--setup-probe"]
        timed_child(self.argv)  # writes the bytecode caches a user's install already has
        self.times: list[float] = []
        self.last = float("-inf")

    def between_queries(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.times.append(timed_child(self.argv))
            self.last = time.perf_counter()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.times.append(timed_child(self.argv))
        return statistics.median(self.times)


# -- running one query ------------------------------------------------------------


class ProcessRunner:
    """Each query is a fresh `python -m behrend` process (cli-session)."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = child_env()
        self.peak_rss_kb = 0

    def __call__(self, argv):
        with tempfile.TemporaryFile(dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "behrend", *argv], cwd=ROOT,
                                    env=self.env, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode(errors="replace")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return latency, proc.returncode, out.decode(), message


class InProcessRunner:
    """Each query is one `behrend.cli.main(argv)` call with stdout captured."""

    def __init__(self):
        from behrend import cli

        self.cli = cli  # looked up per call, so a tracer's wrapper is seen

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as stop:  # argparse refusing the command line
                code = stop.code
            except Exception as error:  # a traceback is a failed query, not a crash
                code = f"{type(error).__name__}: {error}"
            latency = time.perf_counter() - start
        return latency, code, out.getvalue(), err.getvalue()


# -- passes -----------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; failures other than the known fault are problems."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


class CliPasses:
    """Passes over command-line queries: the first checks every output, later
    passes must reproduce it byte for byte."""

    def __init__(self, queries, runner, scratch: Path, schema=None):
        self.queries, self.runner, self.scratch, self.schema = queries, runner, scratch, schema
        self.digests: list = [None] * len(queries)

    def run_pass(self, tally: Tally, between=lambda: None) -> list[float]:
        latencies = []
        for i, query in enumerate(self.queries):
            between()
            svg_path = self.scratch / f"q{i}.svg"
            argv = [*query.argv, "--svg", str(svg_path)] if query.svg else list(query.argv)
            latency, code, out, err = self.runner(argv)
            latencies.append(latency)
            svg = svg_path.read_text() if query.svg and svg_path.exists() else None
            problems = self._problems(i, query, code, out, err, svg)
            tally.add(1, 1 if problems else 0,
                      [f"{' '.join(query.argv)}: {p}" for p in problems[:3]])
        return latencies

    def _problems(self, i, query, code, out, err, svg) -> list[str]:
        if code != 0:
            return [f"exit {code}: {err.strip()[-300:]}"]
        digest = hashlib.blake2b(f"{out}\0{svg}".encode()).digest()
        if self.digests[i] is not None:
            return [] if digest == self.digests[i] else ["output differs from the first pass"]
        self.digests[i] = digest
        problems = query.check(out, svg)
        if self.schema is not None and out.startswith("{"):
            problems += self.schema(json.loads(out))
        return problems


class VerifyPasses:
    """Passes over verify.run_all seeds; every call's results are checked."""

    def __init__(self, seeds):
        from behrend import verify

        self.seeds, self.verify = seeds, verify

    def run_pass(self, tally: Tally, between=lambda: None) -> list[float]:
        latencies = []
        for seed in self.seeds:
            between()
            start = time.perf_counter()
            try:
                results = self.verify.run_all(seed, self.verify.PRESETS["default"])
            except Exception as error:  # a library self-check tripped: a failed call
                latencies.append(time.perf_counter() - start)
                tally.add(1, 1, [f"run_all({seed}) raised {type(error).__name__}: {error}"])
                continue
            latencies.append(time.perf_counter() - start)
            ops, failed, problems = W.check_run_all(results)
            tally.add(ops, failed, [f"run_all({seed}): {p}" for p in problems])
        return latencies


def schema_validator():
    import jsonschema

    schema = json.loads((SRC / "behrend" / "schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    return lambda data: [f"schema: {e.message}" for e in validator.iter_errors(data)]


def make_passes(workload: str, seed: int, scratch: Path, in_process: bool = False):
    if workload == "verify-sweep":
        return VerifyPasses(W.verify_seeds(seed))
    queries = W.BUILDERS[workload](seed)
    if workload == "cli-session" and not in_process:
        return CliPasses(queries, ProcessRunner(scratch), scratch, schema_validator())
    return CliPasses(queries, InProcessRunner(), scratch)


# -- the two kinds of run ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[Tally, dict]:
    """Whole passes until the next one would end past `seconds` (at least one)."""
    probes = SetupProbes(workload, seed)
    passes = make_passes(workload, seed, scratch)
    tally = Tally()
    per_query: list[list[float]] = []
    totals = []
    start = time.perf_counter()
    last = 0.0
    while not totals or time.perf_counter() - start + last <= seconds:
        gc.collect()
        began = time.perf_counter()
        latencies = passes.run_pass(tally, probes.between_queries)
        last = time.perf_counter() - began
        totals.append(sum(latencies))
        per_query = per_query or [[] for _ in latencies]
        for samples, latency in zip(per_query, latencies):
            samples.append(latency)
    runner = getattr(passes, "runner", None)
    if isinstance(runner, ProcessRunner):
        peak_kb = runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    medians = sorted(statistics.median(s) for s in per_query)
    metrics = {
        "setup_s": (probes.median(), "s"),
        "wall_s": (statistics.median(totals), "s"),
        "query_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "query_tail_ms": (medians[-W.TAIL_BEYOND - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    print(f"# {workload}: seed {seed}, {len(totals)} passes of {len(medians)} queries",
          file=sys.stderr)
    return tally, metrics


def import_ms() -> float:
    """Cumulative import time of `import behrend.cli`, from -X importtime."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import behrend.cli"],
                            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True)
    total_us = 0
    for line in result.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if match and not match[2] and match[3].split(".")[0] == "behrend":
            total_us += int(match[1])  # top-level entries only; nested ones are inside
    return total_us / 1e3


def trace(workload: str, seed: int, scratch: Path) -> tuple[Tally, dict]:
    """One warm, one traced and one plain pass of every workload, in-process."""
    from layers import COUNTS, LAYERS, Tracer

    interpreter = statistics.median(
        timed_child([sys.executable, "-c", "pass"]) for _ in range(TRACE_PROBES))
    imports = statistics.median(import_ms() for _ in range(TRACE_PROBES))
    tally = Tally()
    tracers, traced_total, plain_total = {}, 0.0, 0.0
    for name in W.WORKLOADS:
        passes = make_passes(name, seed, scratch, in_process=True)
        if name == "verify-sweep":
            passes.seeds = passes.seeds[:TRACE_VERIFY_SEEDS]
        own = tally if name == workload else Tally()
        passes.run_pass(own)  # warm
        gc.collect()
        with Tracer() as tracers[name]:
            traced_total += sum(passes.run_pass(own))
        gc.collect()
        plain_total += sum(passes.run_pass(own))
        if own is not tally:
            tally.problems += own.problems
    missing = sorted({m for t in tracers.values() for m in t.missing})
    if missing:
        print(f"# layers not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
    metrics = {
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": (imports, "ms"),
    }
    for metric, (homes, _) in LAYERS.items():
        metrics[metric] = (sum(tracers[h].ms[metric] for h in homes), "ms")
    for metric, (homes, _, _) in COUNTS.items():
        metrics[metric] = (sum(tracers[h].counts[metric] for h in homes), "count")
    metrics["trace.overhead_pct"] = ((traced_total / plain_total - 1) * 100, "%")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "behrend" / "__init__.py").is_file():
        print(f"perfbench: no behrend package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import behrend.cli

    if Path(behrend.cli.__file__).resolve().parent != SRC / "behrend":
        print(f"perfbench: imported behrend from {behrend.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        if args.workload == "verify-sweep":
            W.verify_seeds(args.seed)
        else:
            W.BUILDERS[args.workload](args.seed)
        return 0

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.trace:
            tally, metrics = trace(args.workload, args.seed, scratch)
        else:
            tally, metrics = measure(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only if no other run is using it
    for problem in tally.problems[:20]:
        print(f"# PROBLEM {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.4f} {unit}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, "
          f"unexpected problems {len(tally.problems)}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
