"""taxotext benchmark: seeded, offline runs of the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a source checkout. Each run generates its inputs from
the seed, then repeats the workload's command chain, each time in a fresh
child process, until ``--seconds`` have passed (at least MIN_REPS times).
The mock search/LLM servers run in a process of their own. Every repetition
checks the outputs byte for byte. With ``--trace 1`` one more, traced,
repetition gives the per-layer metrics.

The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Human-readable tables go to stderr, and full
results (with the environment record) to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 0
MIN_REPS = 2
SETUP_SAMPLES = 12
SETUPS_PER_REP = 2  # set-up-only starts after each chain, spread over the run
CHILD_TIMEOUT_S = 150
SEARCH_LATENCY_S = 0.005
LLM_LATENCY_S = 0.020
MAX_PARALLEL = len(os.sched_getaffinity(0))
API_KEY = "bench-key"
# Low thresholds: with 27 or 17 classes and few training rows, confidences
# sit well under the pipeline's defaults, which would sweep nothing.
THRESHOLDS = "0.05,0.06,0.07,0.08,0.1,0.15"
WARMUP_STEPS = 10


@dataclass(frozen=True)
class Workload:
    spec: gen.WorkloadSpec
    chain: tuple[tuple[str, ...], ...]  # timed CLI steps
    fill: tuple[str, ...] | None  # untimed acquire that warms the shared cache
    artifacts: tuple[str, ...]  # run-directory globs checked byte for byte

    @property
    def cold(self) -> bool:
        return self.fill is None


_PAIR = "gsnip10+gptsum"
WORKLOADS = {
    w.spec.name: w
    for w in (
        Workload(
            gen.WorkloadSpec("ingest_cold", "SIC", 400, 10, True, None),
            (("acquire", "--sources", "gsnip10,gptsum"), ("build", "--sources", _PAIR)),
            None,
            ("corpus/*/*.jsonl", "finetune/*/*.jsonl"),
        ),
        Workload(
            gen.WorkloadSpec("train_score_warm", "SIC", 240, 10, True, (96, 32, 112)),
            tuple(
                (cmd, "--sources", _PAIR)
                for cmd in ("build", "train", "predict", "eval", "sweep")
            ),
            ("acquire", "--sources", "gsnip10,gptsum"),
            (
                "corpus/*/*.jsonl", "model/*.model", "predictions/*.jsonl",
                "reports/*-eval.json", "reports/*-class_scores.csv", "reports/*-sweep.csv",
            ),
        ),
        Workload(
            gen.WorkloadSpec("ablate_hc_warm", "HEALTHCARE", 100, 20, False, None),
            (("ablate", "--ks", "1,5,10,15,20", "--cached-depth", "20"),),
            ("acquire", "--sources", "gsnip20"),
            ("reports/ablation.csv",),
        ),
    )
}

E2E_UNITS = {"entities_per_s": "entities/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("us_per_call", "us"),
                         ("us_per_instance", "us"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchError(Exception):
    """A helper process or the cache fill failed, so nothing was measured."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Rep:
    setup_s: float
    result: dict
    server: dict


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": MAX_PARALLEL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "max_parallel": MAX_PARALLEL,
        "search_latency_s": SEARCH_LATENCY_S,
        "llm_latency_s": LLM_LATENCY_S,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SEARCH_API_KEY"] = env["LLM_API_KEY"] = API_KEY
    return env


class Mocks:
    """The mock servers' process; stats() reads and resets its counters."""

    def __init__(self, workdir: Path, task: str, search_latency: float, llm_latency: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mocks.py"), str(workdir / "fixtures.json"), task,
             str(search_latency), str(llm_latency)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(),
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError("mock servers did not start")
        urls = json.loads(line)
        self.search_url, self.llm_url = urls["search"], urls["llm"]

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_config(path: Path, w: Workload, workdir: Path, cache_dir: Path, mocks: Mocks | None):
    lines = [
        "[task]",
        f"name = {w.spec.task}",
        f"dataset = {workdir / 'entities.csv'}",
        "split_seed = 0",
        "[acquisition]",
        f"top_k = {w.spec.depth}",
        f"max_parallel = {MAX_PARALLEL}",
        f"cache_dir = {cache_dir}",
    ]
    if mocks:
        lines += [f"search_base_url = {mocks.search_url}", f"llm_base_url = {mocks.llm_url}"]
    lines += ["[training]", f"warmup_steps = {WARMUP_STEPS}", "[eval]", f"thresholds = {THRESHOLDS}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_child(rep_dir: Path, config: Path, steps, *, servers: list[str], trace: bool):
    """Start one pipeline process; returns (set-up seconds, its result)."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    base = ["--config", str(config), "--runs-dir", str(rep_dir / "runs"), "--run-id", "bench"]
    job = {
        "src": str(SRC),
        "config": str(config),
        "servers": servers,
        "trace": trace,
        "chain": [{"command": s[0], "argv": base + list(s)} for s in steps],
        "out": str(rep_dir / "result.json"),
    }
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(rep_dir / "stderr.log", "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path)],
            stdout=subprocess.PIPE, stderr=log, text=True, env=_child_env(), cwd=rep_dir,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:  # interrupted: never leave the pipeline running
                proc.kill()
                proc.wait()
    if ready.strip() != "READY" or code != 0:
        tail = (rep_dir / "stderr.log").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"pipeline process failed (exit {code}):\n{tail}")
    return setup_s, json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))


class Run:
    """One benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.workdir = WORK_DIR / f"{w.spec.name}-s{seed}-{os.getpid()}"
        self.tally = Tally()
        self.reference: dict[str, str] | None = None
        expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
        if seed == expected["seed"] and w.spec.name in expected["workloads"]:
            self.reference = expected["workloads"][w.spec.name]
        self.first_digests: dict[str, str] | None = None

    def prepare(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.inputs = gen.generate(self.w.spec, self.seed)
        gen.write_inputs(self.inputs, self.workdir)

    def fill(self) -> None:
        """Warm the shared cache with the program's own acquire (not timed)."""
        with Mocks(self.workdir, self.w.spec.task, 0.0, 0.0) as mocks:
            config = write_config(self.workdir / "fill" / "config.ini", self.w, self.workdir,
                                  self.workdir / "cache", mocks)
            _, result = run_child(self.workdir / "fill", config, [self.w.fill],
                                  servers=[mocks.search_url, mocks.llm_url], trace=False)
        step = result["steps"][0]
        acquired = checks.parse_acquired(step["stdout"])
        if step["code"] != 0 or acquired is None or acquired["failures"]:
            raise BenchError(f"cache fill failed: {step['stdout'][-2000:]}")

    def rep(self, i: int, mocks: Mocks | None, *, trace: bool = False, steps=None) -> Rep:
        rep_dir = self.workdir / f"rep{i}"
        cache_dir = rep_dir / "cache" if self.w.cold else self.workdir / "cache"
        config = write_config(rep_dir / "config.ini", self.w, self.workdir, cache_dir, mocks)
        servers = [mocks.search_url, mocks.llm_url] if mocks else []
        steps = self.w.chain if steps is None else steps
        setup_s, result = run_child(rep_dir, config, steps, servers=servers, trace=trace)
        server = {}
        if mocks:
            stats = mocks.stats()
            search, llm = stats["search"], stats["llm"]
            server = {
                "requests": search["requests"] + llm["requests"],
                "peak_in_flight": max(search["peak_in_flight"], llm["peak_in_flight"]),
                "search_wait_s": search["requests"] * SEARCH_LATENCY_S,
                "llm_wait_s": llm["requests"] * LLM_LATENCY_S,
            }
        rep = Rep(setup_s, result, server)
        if steps:
            self.check(rep, rep_dir / "runs" / "bench")
        return rep

    def check(self, rep: Rep, run_dir: Path) -> None:
        t, n = self.tally, self.w.spec.entities
        by_command = {}
        for step in rep.result["steps"]:
            t.check(step["code"] == 0, f"{step['command']} exited {step['code']}")
            by_command[step["command"]] = step["stdout"]
        if "acquire" in by_command:
            planned_requests = n * (2 if self.w.spec.summaries else 1)
            planned = {"fetched": planned_requests, "hits": 0,
                       "refusals": self.inputs.refusals, "failures": 0}
            got = checks.parse_acquired(by_command["acquire"])
            t.check(got == planned, f"acquire printed {got}, planned {planned}")
            # every request beyond the planned ones is a retry: a failed call
            t.attempted += rep.server["requests"]
            t.failed += max(0, rep.server["requests"] - planned_requests)
            t.check(rep.server["peak_in_flight"] <= MAX_PARALLEL,
                    f"peak in flight {rep.server['peak_in_flight']} > {MAX_PARALLEL}")
        if "build" in by_command:
            built = checks.parse_built(by_command["build"])
            planned_empty = 0  # every entity has snippets, even when its summary is refused
            t.check(built == (n, planned_empty), f"build printed {built}, planned {(n, 0)}")
        got = checks.digests(run_dir, self.w.artifacts)
        t.check(bool(got), "no artifacts to check")
        if self.reference is None:
            self.reference = got
        if self.first_digests is None:
            self.first_digests = got
        bad = checks.compare(self.reference, got)
        t.attempted += len(self.reference.keys() | got.keys())
        t.failed += len(bad)
        t.problems += [f"{path} differs from the reference" for path in bad]

    def measure(self, seconds: float, trace: bool) -> tuple[dict, dict | None]:
        self.prepare()
        if not self.w.cold:
            self.fill()
        mocks = (
            Mocks(self.workdir, self.w.spec.task, SEARCH_LATENCY_S, LLM_LATENCY_S)
            if self.w.cold else None
        )
        try:
            reps: list[Rep] = []
            setups: list[float] = []
            starts = itertools.count()  # one rep directory per process start

            def setup_only() -> None:
                setups.append(self.rep(next(starts), mocks, steps=()).setup_s)

            start = time.perf_counter()
            while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
                reps.append(self.rep(next(starts), mocks))
                setups.append(reps[-1].setup_s)
                for _ in range(SETUPS_PER_REP):
                    setup_only()
            while len(setups) < SETUP_SAMPLES:
                setup_only()
            traced = self.rep(next(starts), mocks, trace=True) if trace else None
        finally:
            if mocks:
                mocks.close()
        e2e = {
            "entities_per_s": statistics.median(self.w.spec.entities / r.result["chain_s"]
                                                for r in reps),
            "cpu_s": statistics.median(r.result["cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(setups),
        }
        samples = {"chain": len(reps), "setup": len(setups),
                   "chain_s": [r.result["chain_s"] for r in reps],
                   "cpu_s": [r.result["cpu_s"] for r in reps], "setup_s": setups}
        layers = None
        if traced:
            layers = self.layers(traced, statistics.median(r.result["chain_s"] for r in reps))
        return {"values": e2e, "samples": samples}, layers

    def layers(self, traced: Rep, untraced_chain_s: float) -> dict:
        result = traced.result
        span_list = [spans.Span(**s) for s in result["spans"]]
        acquired = {}
        for step in result["steps"]:
            if step["command"] == "acquire":
                acquired = checks.parse_acquired(step["stdout"]) or {}
        metrics = spans.layer_metrics(
            span_list,
            result["counters"],
            command_walls={s["command"]: s["wall_s"] for s in result["steps"]},
            server=traced.server,
            acquired=acquired,
            chain_s=result["chain_s"],
            untraced_chain_s=untraced_chain_s,
        )
        return {"metrics": metrics, "table": spans.layer_table(span_list)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(WORKLOADS[name], seed)
    try:
        e2e, layers = run.measure(seconds, trace)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    t = run.tally
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "failed_share": t.failed / max(1, t.attempted),
        "problems": t.problems[:20],
        "end_to_end": e2e,
        # sha256 of the first repetition's artifacts, for expected.json
        "digests": run.first_digests,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-s{seed}-e2e.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if layers:
        traced = dict(record, per_layer=layers)
        del traced["end_to_end"]
        (OUT_DIR / f"{name}-s{seed}-trace.json").write_text(
            json.dumps(traced, indent=2), encoding="utf-8")
    record["per_layer"] = layers
    return record


def _print_layer_table(record: dict) -> None:
    layers = record["per_layer"]
    print(f"per-layer spans, {record['workload']} seed {record['seed']} (traced run):", file=sys.stderr)
    print(f"  {'span':34} {'calls':>8} {'busy_s':>10} {'self_s':>10}", file=sys.stderr)
    for span_name, row in sorted(layers["table"].items()):
        print(f"  {span_name:34} {row['calls']:>8} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}",
              file=sys.stderr)
    m = layers["metrics"]
    print(f"  traced chain {m['trace.chain_s']:.3f} s, tracing overhead {m['trace.overhead_s']:+.3f} s",
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "taxotext" / "__init__.py").is_file():
        print(f"no taxotext source tree at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the generator reads the bundled schemes
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    for record in records:
        for problem in record["problems"]:
            print(f"check failed: {record['workload']}: {problem}", file=sys.stderr)
        if record["per_layer"]:
            _print_layer_table(record)
    ok = all(r["correct"] for r in records)
    if args.workload == "all":
        print(f"{'workload':18} {'metric':16} {'value':>12} {'unit':12} samples")
        for r in records:
            e2e = r["end_to_end"]
            for metric, value in e2e["values"].items():
                n = e2e["samples"]["setup" if metric == "setup_s" else "chain"]
                print(f"{r['workload']:18} {metric:16} {value:>12.4f} {E2E_UNITS[metric]:12} {n}")
            print(f"{r['workload']:18} {'failed_share':16} {r['failed_share']:>12.4f} "
                  f"{'share':12} {r['attempted']}")

    # With several workloads, each metric name is prefixed by its workload.
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if args.workload == "all" else ""
        if args.trace:
            values, unit = r["per_layer"]["metrics"], per_layer_unit
        else:
            values, unit = r["end_to_end"]["values"], E2E_UNITS.__getitem__
        metrics.update({prefix + k: {"value": v, "unit": unit(k)} for k, v in values.items()})
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
