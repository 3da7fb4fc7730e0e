"""The repository benchmark: the served index, measured out of process.

One run of one workload::

    python3 perfbench/run.py --workload cold-read --seed 1 --seconds 10 --trace 0

sets up the fixture (seeded key generation, a bulk load in its own
process, then the server in another), starts the load generator as a
third process, kills the server with SIGKILL when the generator is done,
reopens the page file with ``recover_index`` and checks that every
acknowledged insert is present and every acknowledged delete absent.
Set-up is repeated :data:`SETUP_REPEATS` times and its median reported.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced window, installs the span wrappers in the server, reconnects
and runs a traced window, and reports the per-layer metrics of
:mod:`layers` with the tracing overhead between the two windows.  The
last line of standard output is the result as JSON; the lines before it
are the report, with every figure by name and unit.

``--all`` runs every workload over ``--seeds`` seeds plus one traced run
each and prints medians and quartile spreads.  ``--self-test`` runs every
workload at toy scale, checks that each emits every named metric, and
checks that a seeded wrong reply and a seeded lost acknowledged write
are both caught.

Everything is read and written under the checkout: ``src`` is the
program, ``.perfbench_run/`` holds a run's files and is removed after.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3
#: Client CPU share of one core above which the generator is flagged as
#: saturated (its own lateness, not the server's, then shapes the run).
SATURATED = 0.9
#: Fixture size cap and run length for ``--self-test``.
TOY_KEYS = 3000
TOY_SECONDS = 1.5
TOY_WARMUP = 0.5

def _placement() -> tuple[set[int] | None, set[int] | None]:
    """The server on the last CPU, the load generator on the first, so a
    run does not land on whatever placement the scheduler picks; no
    pinning on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, {cpus[0]}


SERVER_CPUS, CLIENT_CPUS = _placement()

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p95_ms", "ms", "lower"),
    ("server_cpu_us_per_op", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("server_rss_mb", "MB", "lower"),
    ("disk_bytes_per_key", "B", "lower"),
]


class BenchError(RuntimeError):
    """The benchmark could not complete a run."""


class Proc:
    """A child Python process with line-oriented stdin/stdout control."""

    def __init__(
        self, argv: list[str], workdir: str, name: str, cpus: set[int] | None = None
    ) -> None:
        self.name = name
        self._err_path = os.path.join(workdir, name + ".err")
        self._err = open(self._err_path, "wb")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._err,
            text=True,
        )
        if cpus:
            # Threads the child starts later inherit its main thread's set.
            os.sched_setaffinity(self.proc.pid, cpus)
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def stderr_tail(self) -> str:
        self._err.flush()
        with open(self._err_path, "rb") as err:
            return err.read()[-3000:].decode("utf-8", "replace")

    def expect(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(remaining, 0.01))
            except queue.Empty:
                raise BenchError(f"{self.name}: no {prefix!r} in {timeout}s") from None
            if line is None:
                self.proc.wait()
                raise BenchError(
                    f"{self.name} exited ({self.proc.returncode}) before "
                    f"{prefix!r}:\n{self.stderr_tail()}"
                )
            if line.startswith(prefix):
                return line

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def wait(self, timeout: float) -> None:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name}: still running after {timeout}s") from None
        if code != 0:
            raise BenchError(f"{self.name} exited {code}:\n{self.stderr_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._reader.join(timeout=5)
        self._err.close()


def _script(name: str) -> str:
    return os.path.join(HERE, name)


def setup(
    workload: Any, seed: int, workdir: str, n: int, repeats: int, fault: str | None
) -> tuple[Proc, int, list[float]]:
    """Generate the fixture, bulk-load it and start the server,
    ``repeats`` times; the last server is returned running, with the
    seconds each set-up took."""
    import numpy as np

    import workloads as wl

    times = []
    server = None
    for attempt in range(repeats):
        if server is not None:
            server.kill()
        for leftover in ("pages.db", "pages.db.wal", "fixture.npz"):
            path = os.path.join(workdir, leftover)
            if os.path.exists(path):
                os.remove(path)
        started = time.perf_counter()
        keys, values = wl.fixture(seed, n)
        np.savez(os.path.join(workdir, "fixture.npz"), keys=keys, values=values)
        loader = Proc([_script("server.py"), "load", "--dir", workdir], workdir, "load")
        try:
            loader.wait(timeout=150)
        finally:
            loader.kill()
        argv = [_script("server.py"), "serve", "--dir", workdir]
        if fault:
            argv += ["--fault", fault]
        server = Proc(argv, workdir, "server", cpus=SERVER_CPUS)
        port = int(server.expect("READY", timeout=60).split()[1])
        times.append(time.perf_counter() - started)
    assert server is not None
    return server, port, times


def recovery_check(workdir: str, result: dict, n: int) -> dict:
    """Reopen the killed server's page file; count acknowledged writes
    that did not survive, and measure the bytes on disk per live key."""
    import numpy as np

    from repro.storage.wal import recover_index

    page_file = os.path.join(workdir, "pages.db")
    index = recover_index(page_file, page_size=8192)
    if index is None:
        raise BenchError("recover_index found no committed index")
    try:
        with np.load(os.path.join(workdir, "fixture.npz")) as data:
            keys = data["keys"].tolist()
            values = data["values"].tolist()
        unknown = {tuple(k) for k in result["unknown"]}
        deleted = {tuple(k) for k in result["acked_deletes"]}
        inserted = {tuple(k): v for k, v in result["acked_inserts"]}
        expected_live = n + len(inserted) - len(deleted)
        # Every acknowledged write, plus an even sample of the fixture.
        probes = dict(inserted)
        stride = max(1, n // 2000)
        for i in range(0, n, stride):
            probes.setdefault(tuple(keys[i]), values[i])
        lost = 0
        for key, value in probes.items():
            if key in deleted or key in unknown:
                continue
            if key not in index or index.search(key) != value:
                lost += 1
        lost += sum(1 for key in deleted - unknown if key in index)
        live = len(index)
        if not unknown and live != expected_live:
            lost += abs(live - expected_live)
    finally:
        index.store.close()
    disk = os.path.getsize(page_file) + os.path.getsize(page_file + ".wal")
    return {"lost": lost, "live": live, "disk_bytes_per_key": disk / max(live, 1)}


def report(
    phase: dict, result: dict, check: dict, setup_times: list[float], figures: dict
) -> dict:
    """Every end-to-end figure of one untraced phase, per kind and overall."""
    out: dict[str, Any] = {}
    for kind, stats in figures.items():
        if kind == "all":
            continue
        out[f"{kind}_ops_per_s"] = stats["ops_per_s"]
        out[f"{kind}_p50_ms"] = stats["p50_ms"]
        out[f"{kind}_p95_ms"] = stats["p95_ms"]
        out[f"{kind}_p99_ms"] = stats["p99_ms"]
        out[f"{kind}_samples"] = stats["completed"]
    every = figures["all"]
    failed = result["failed"] + result["wrong"] + check["lost"]
    out.update(
        {
            "ops_per_s": every["ops_per_s"],
            "p50_ms": every["p50_ms"],
            "p95_ms": every["p95_ms"],
            "p99_ms": every["p99_ms"],
            "server_cpu_us_per_op": every["server_cpu_us_per_op"],
            "error_rate": failed / max(result["attempted"], 1),
            "setup_s": statistics.median(setup_times),
            "server_rss_mb": statistics.median(
                s["bench"]["vm_rss_kb"] / 1024 for s in phase["stats"]
            ),
            "server_peak_rss_mb": phase["stats"][-1]["bench"]["vm_hwm_kb"] / 1024,
            "disk_bytes_per_key": check["disk_bytes_per_key"],
            "host_slowness": every["host_slowness"],
        }
    )
    for name in ("ops_per_s", "p50_ms", "p95_ms", "p99_ms", "server_cpu_us_per_op"):
        out["raw_" + name] = every["raw_" + name]
    return out


def all_figures(phase: dict, probe: Any, open_loop: bool) -> dict:
    """Figures of every request (``all``) and of each kind present."""
    from figures import KINDS, phase_figures

    present = {KINDS[sample[1]] for sample in phase["samples"]}
    out = {"all": phase_figures(phase, probe, KINDS, open_loop)}
    for kind in KINDS:
        if kind in present:
            out[kind] = phase_figures(phase, probe, (kind,), open_loop)
    return out


#: Units of the report's figures that are not in :data:`layers.LAYERS`,
#: by name suffix.
UNITS = {
    "host_slowness": "ratio", "ops_per_s": "1/s", "p50_ms": "ms",
    "p95_ms": "ms", "p99_ms": "ms", "samples": "count", "server_cpu_us_per_op": "us",
    "error_rate": "share", "setup_s": "s", "rss_mb": "MB",
    "disk_bytes_per_key": "B", "key_conflicts": "count", "saturated": "flag",
    "wrong_replies": "count", "lost_writes": "count",
}


def unit_of(name: str) -> str:
    from layers import LAYERS

    for layer, unit, *_ in LAYERS:
        if layer == name:
            return unit
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return ""


def run_once(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    toy: bool = False,
    fault: str | None = None,
) -> dict:
    """One measured run; returns the result object and the report."""
    import layers
    import tracing
    import workloads as wl
    from figures import SpeedProbe

    workload = wl.WORKLOADS[workload_name]
    open_loop = workload.loop == "open"
    n = min(workload.fixture_keys, TOY_KEYS) if toy else workload.fixture_keys
    workdir = os.path.join(ROOT, ".perfbench_run", f"{os.getpid()}-{workload_name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    procs: list[Proc] = []
    try:
        server, port, setup_times = setup(
            workload, seed, workdir, n, 1 if toy else SETUP_REPEATS, fault
        )
        procs.append(server)
        with SpeedProbe(SERVER_CPUS) as probe:
            phases = 2 if trace else 1
            argv = [
                _script("loadgen.py"), "--workload", workload_name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--port", str(port), "--dir", workdir, "--phases", str(phases),
            ]
            warmup = TOY_WARMUP if toy else wl.WARMUP_S
            if toy:
                argv += ["--warmup", str(warmup)]
            client = Proc(argv, workdir, "loadgen", cpus=CLIENT_CPUS)
            procs.append(client)
            budget = phases * (warmup + seconds) + 90
            if trace:
                client.expect("PHASE_DONE", timeout=budget)
                server.send("trace")
                server.expect("TRACING", timeout=30)
                client.send("go")
            client.wait(timeout=budget)
            server.kill()
        with open(os.path.join(workdir, "client.json")) as f:
            result = json.load(f)
        check = recovery_check(workdir, result, n)
        first = result["phases"][0]
        first_figures = all_figures(first, probe, open_loop)
        figures = report(first, result, check, setup_times, first_figures)
        figures.update(layers.counted(first))
        figures["workload.key_conflicts"] = result["key_conflicts"]
        figures["workload.saturated"] = int(first["client_cpu_share"] > SATURATED)
        figures["check.wrong_replies"] = result["wrong"]
        figures["check.lost_writes"] = check["lost"]
        if trace:
            last = result["phases"][1]
            spans = tracing.Spans(
                os.path.join(workdir, "spans.npz"),
                last["stats"][0]["bench"]["clock_ns"],
                last["stats"][-1]["bench"]["clock_ns"],
            )
            metrics = layers.counted(last)
            metrics.update(layers.traced(last, spans))
            before = first_figures["all"]
            after = all_figures(last, probe, open_loop)["all"]
            metrics["trace.overhead_cpu_share"] = (
                after["server_cpu_us_per_op"] / before["server_cpu_us_per_op"] - 1
            )
            metrics["trace.overhead_p50_share"] = after["p50_ms"] / before["p50_ms"] - 1
            names = [name for name, *_ in layers.LAYERS]
        else:
            metrics = figures
            names = [name for name, *_ in END_TO_END]
        failed = result["failed"] + result["wrong"] + check["lost"]
        return {
            "report": figures,
            "errors": result["errors"],
            "result": {
                "correct": result["wrong"] == 0 and check["lost"] == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in names
                },
            },
        }
    finally:
        for proc in procs:
            proc.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def print_report(name: str, seed: int, outcome: dict) -> None:
    print(f"# {name} seed={seed}")
    for key, value in outcome["report"].items():
        print(f"{key:40s} {value!r:>24} {unit_of(key)}")
    for error in outcome["errors"]:
        print(f"error: {error}")


def _spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def run_all(seeds: int, seconds: float) -> int:
    """Every workload over ``seeds`` seeds, then one traced run each."""
    import workloads as wl

    status = 0
    for name in wl.WORKLOADS:
        runs = [run_once(name, seed, seconds, trace=False) for seed in range(1, seeds + 1)]
        traced = run_once(name, seeds + 1, seconds, trace=True)
        print(f"# {name}: median and quartile spread (share of median) over {seeds} seeds")
        for key in runs[0]["report"]:
            values = [run["report"].get(key) for run in runs]
            if any(v is None for v in values):
                continue
            median, spread = _spread(values)
            print(f"{key:40s} {median:>14.4f} {unit_of(key):6s} spread {spread:.3f}")
        print(f"# {name}: traced run, per layer")
        for key, metric in traced["result"]["metrics"].items():
            print(f"{key:40s} {metric['value']:>14.4f} {metric['unit']}")
        for outcome in runs + [traced]:
            if not outcome["result"]["correct"]:
                status = 1
                for error in outcome["errors"]:
                    print(f"error: {error}")
    return status


def self_test() -> int:
    """Toy-scale runs of every workload, then the two seeded faults."""
    import layers
    import workloads as wl

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    if declared != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != {(n, u, b) for n, u, b, *_ in layers.LAYERS}:
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    if not {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS):
        problems.append("BENCHMARK.json names a workload workloads.py lacks")
    for name in wl.WORKLOADS:
        for trace, wanted in ((False, END_TO_END), (True, layers.LAYERS)):
            outcome = run_once(name, 7, TOY_SECONDS, trace, toy=True)
            result = outcome["result"]
            metrics = result["metrics"]
            for metric_name, unit, *_ in wanted:
                metric = metrics.get(metric_name)
                if metric is None or metric["unit"] != unit:
                    problems.append(f"{name} trace={trace}: {metric_name} missing or mis-united")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: clean run flagged: {outcome['errors']}")
            print(f"self-test: {name} trace={int(trace)} ok={result['correct']}", flush=True)
    for name, fault, field in (
        ("cold-read", "wrong-reply", "check.wrong_replies"),
        ("hot-churn", "lost-write", "check.lost_writes"),
    ):
        outcome = run_once(name, 7, TOY_SECONDS, False, toy=True, fault=fault)
        caught = outcome["report"][field] >= 1 and not outcome["result"]["correct"]
        print(f"self-test: {name} seeded {fault} caught={caught}", flush=True)
        if not caught:
            problems.append(f"seeded {fault} on {name} was not caught")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    print("self-test passed" if not problems else "self-test failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources ({SRC}/repro) are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seeds, args.seconds)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    try:
        outcome = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
