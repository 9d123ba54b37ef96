"""The four benchmark workloads, and the child process that runs one.

``run.py`` starts this file in a fresh interpreter, once per setup
sample and once per measured run:

    python3 perfbench/workloads.py setup <workload> <seed>
    python3 perfbench/workloads.py run <workload> <seed> <seconds> <trace>

Each prints one JSON object. Every workload is a closed loop: one client,
one thread, and each task starts after the previous one returned. Inputs
come from the seed alone; the package only sees the generated scripts
and command lines.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup time counts from here: imports + first inputs

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from overlist import cli, difftest  # noqa: E402
from overlist.difftest import ADD_HEAVY_WEIGHTS, BALANCED_WEIGHTS  # noqa: E402
from overlist.listcore import FAULTS, CheckMode, SizePolicy  # noqa: E402

now = time.perf_counter

#: census rows the paper's split predicts at every width
INDEX_BASED = frozenset({
    "size", "get", "set_at", "add_at", "remove_at", "index_of", "last_index_of",
    "contains", "to_array", "remove_item", "remove_first_occurrence",
    "remove_last_occurrence",
})
ENDPOINT = frozenset({
    "add_first", "add_last", "get_first", "get_last", "peek_first", "peek_last",
    "poll_first", "poll_last", "remove_first", "remove_last",
})


class Checks:
    """Output checks; ``failed / attempted`` is the run's error rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class _Cell:
    __slots__ = ("prev", "item", "next")

    def __init__(self, prev, item, next):
        self.prev, self.item, self.next = prev, item, next


def _reference_job() -> int:
    """Fixed pure-Python work shaped like the package's hot paths (object
    allocation, dict inserts and lookups, small tuples, a pointer-chasing
    walk) that uses nothing from the package."""
    cells = {i: _Cell(i - 1, (i, "a"), i + 1) for i in range(6000)}
    total, node = 0, 0
    while node in cells:
        cell = cells[node]
        total += cell.item[0]
        node = cell.next
    return total


#: the reference job's time on a quiet 2-vCPU VM (Python 3.11); paced
#: seconds read as wall seconds would there
REFERENCE_S = 0.0032


def pace() -> float:
    """How long the reference job takes right now: the median of three."""
    times = []
    for _ in range(3):
        t0 = now()
        _reference_job()
        times.append(now() - t0)
    return statistics.median(times)


class Clock:
    """Times the segments of one task. Each segment's wall time is also
    scaled to the reference pace: by REFERENCE_S over the mean pace
    measured just before and just after it. The factor depends on the
    machine's current speed only, never on the package's."""

    def __init__(self):
        self.raw = 0.0
        self.paced = 0.0
        self.parts: dict[str, float] = {}
        self._pace = pace()

    def __call__(self, part: str | None, fn, *args, **kwargs):
        before = self._pace
        t0 = now()
        result = fn(*args, **kwargs)
        seconds = now() - t0
        self._pace = pace()
        self.raw += seconds
        self.paced += seconds * 2 * REFERENCE_S / (before + self._pace)
        if part is not None:
            self.parts[part] = self.parts.get(part, 0.0) + seconds
        return result


@dataclass
class Task:
    seconds: float  # wall
    paced: float  # at the reference pace
    ops: int
    output: object
    parts: dict[str, float]  # wall seconds per labelled segment kind


def run_task(workload, inputs, checks: Checks) -> Task:
    clock = Clock()
    ops, output = workload.run(inputs, checks, clock)
    return Task(clock.raw, clock.paced, ops, output, clock.parts)


class Overflow:
    """``repro 1``-``5`` plain and ``--fixed``, then ``census`` for both
    policies. The seed shuffles the order of the twelve calls."""

    traced_tasks = 1

    def __init__(self, width: int = 16):
        self.width = width

    def inputs(self, seed: int, i: int) -> list[tuple]:
        calls = [("repro", case, fixed) for fixed in (False, True) for case in range(1, 6)]
        calls += [("census", policy) for policy in (SizePolicy.UNCHECKED, SizePolicy.FAIL_FAST)]
        random.Random(f"{seed}:{i}").shuffle(calls)
        return calls

    def _adds(self, call) -> int:
        """add() calls the preparation issues: 2^(W-1) to flip the sign,
        2^W to wrap to zero; the census builds both states."""
        flip, wrap = 1 << (self.width - 1), 1 << self.width
        if call[0] == "census":
            return flip + wrap
        return flip if call[1] <= 3 else wrap

    def run(self, calls, checks: Checks, clock: Clock) -> tuple[int, list]:
        output = []
        for call in calls:
            if call[0] == "repro":
                _, case, fixed = call
                argv = ["repro", str(case), "--width", str(self.width), "--format", "json"]
                argv += ["--fixed"] if fixed else []
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = clock("repro_s", cli.main, argv)
                report = json.loads(out.getvalue())
                verdict = report["as_predicted"] if fixed else report["reproduced"]
                checks.expect(code == 0 and verdict is True, f"repro {' '.join(argv[1:])}: exit {code}")
                output.append(report)
            else:
                policy = call[1]
                rows = {r.method: r.classification
                        for r in clock("census_s", difftest.census, self.width, policy)}
                for method, cls in sorted(rows.items()):
                    if policy is SizePolicy.FAIL_FAST:
                        expected, ok = "OK", cls == "OK"
                    elif method in INDEX_BASED:
                        expected, ok = "non-OK", cls != "OK"
                    elif method in ENDPOINT:
                        expected, ok = "OK", cls == "OK"
                    else:
                        continue
                    checks.expect(ok, f"census {policy.value} {method}: {cls}, expected {expected}")
                output.append((policy.value, sorted(rows.items())))
        return sum(map(self._adds, calls)), output


class Fuzz:
    """``run_script`` over generated width-8 scripts; FailFast must never
    diverge from the oracle."""

    def __init__(self, weights, length: int, mode: CheckMode, scripts_per_task: int,
                 traced_tasks: int):
        self.weights = weights
        self.length = length
        self.mode = mode
        self.scripts_per_task = scripts_per_task
        self.traced_tasks = traced_tasks

    def inputs(self, seed: int, i: int) -> list:
        base = seed * 1_000_000 + i * self.scripts_per_task
        return [difftest.gen_script(base + k, 8, self.length, self.weights)
                for k in range(self.scripts_per_task)]

    def run(self, scripts, checks: Checks, clock: Clock) -> tuple[int, list]:
        results = clock(None, lambda: [difftest.run_script(s, check_mode=self.mode)
                                       for s in scripts])
        output = []
        for script, result in zip(scripts, results):
            aborted = result.aborted["failfast"]
            checks.expect(result.total("failfast") == 0 and aborted is None,
                          f"script seed {script.seed}: FailFast diverged")
            output.append((result.total("unchecked"), result.total("failfast"), aborted))
        return sum(len(s.steps) for s in scripts), output


class ShrinkFaults:
    """For each injected fault: find the first diverging ADD_HEAVY script
    among the task's candidates under invariant checking, then shrink it
    with the predicate ``overlist fuzz`` uses, "FailFast still diverges"."""

    candidates = 4

    def __init__(self, length: int, traced_tasks: int):
        self.length = length
        self.traced_tasks = traced_tasks

    def inputs(self, seed: int, i: int) -> list:
        base = seed * 1_000_000 + i * self.candidates
        return [difftest.gen_script(base + k, 8, self.length, ADD_HEAVY_WEIGHTS)
                for k in range(self.candidates)]

    def run(self, scripts, checks: Checks, clock: Clock) -> tuple[int, list]:
        ops, output = 0, []
        for fault in FAULTS:
            faults = frozenset({fault})
            steps_run = [0]

            def diverges(script):
                steps_run[0] += len(script.steps)
                result = difftest.run_script(script, check_mode=CheckMode.INVARIANT, faults=faults)
                return result.total("failfast") > 0

            def detect_and_shrink():
                found = next((s for s in scripts if diverges(s)), None)
                return found, None if found is None else difftest.shrink(found, diverges)

            found, small = clock(None, detect_and_shrink)
            ops += steps_run[0]
            checks.expect(found is not None, f"{fault}: no divergence in {len(scripts)} scripts")
            if small is not None:
                checks.expect(diverges(small), f"{fault}: shrunk script no longer diverges")
                output.append((fault, found.seed, small.steps))
        return ops, output


WORKLOADS = {
    "overflow-w16": Overflow(16),
    "fuzz-full-long": Fuzz(ADD_HEAVY_WEIGHTS, 1600, CheckMode.FULL,
                           scripts_per_task=1, traced_tasks=3),
    "fuzz-default": Fuzz(BALANCED_WEIGHTS, 100, CheckMode.INVARIANT,
                         scripts_per_task=100, traced_tasks=5),
    "shrink-faults": ShrinkFaults(400, traced_tasks=2),
}


def digest(tasks: list[Task]) -> str:
    return hashlib.sha256(repr([t.output for t in tasks]).encode()).hexdigest()


def measure(workload, seed: int, seconds: float, first_inputs, checks: Checks) -> list[Task]:
    """Closed loop until ``seconds`` are used; a further task starts only
    when a typical task still fits, and at least one always runs."""
    tasks, walls, inputs, started = [], [], first_inputs, now()
    while True:
        t0 = now()
        tasks.append(run_task(workload, inputs, checks))
        walls.append(now() - t0)
        if now() - started + statistics.median(walls) > seconds:
            return tasks
        inputs = workload.inputs(seed, len(tasks))


def fixed_pass(workload, seed: int, checks: Checks) -> tuple[float, list[Task]]:
    """The traced run's fixed amount of work, with input generation; its
    wall time at the reference pace."""
    clock = Clock()
    tasks = clock(None, lambda: [run_task(workload, workload.inputs(seed, i), checks)
                                 for i in range(workload.traced_tasks)])
    return clock.paced, tasks


def traced(workload, name: str, seed: int, checks: Checks) -> dict[str, float]:
    """Run the fixed pass untraced, then traced; per-layer metrics come
    from the traced pass, and both passes must agree on every output."""
    from spans import Tracer

    wall_plain, plain = fixed_pass(workload, seed, checks)
    tracer = Tracer()
    with tracer.installed():
        wall_traced, spanned = fixed_pass(workload, seed, checks)
    checks.expect(digest(plain) == digest(spanned), "traced outputs differ from untraced ones")
    metrics = tracer.summary()
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-{seed}.bin")
    return metrics


def main(argv: list[str]) -> dict:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    first_inputs = workload.inputs(seed, 0)
    setup_raw = now() - _STARTED
    result: dict = {"setup_raw_s": setup_raw, "setup_s": setup_raw * REFERENCE_S / pace()}
    if mode == "setup":
        return result
    seconds, trace = float(argv[3]), argv[4] == "1"
    checks = Checks()
    if trace:
        result["per_layer"] = traced(workload, name, seed, checks)
    else:
        tasks = measure(workload, seed, seconds, first_inputs, checks)
        result["task_s"] = [t.paced for t in tasks]
        result["ops_per_s"] = [t.ops / t.paced for t in tasks]
        result["task_raw_s"] = [t.seconds for t in tasks]
        result["ops_per_raw_s"] = [t.ops / t.seconds for t in tasks]
        result["parts"] = {k: [t.parts[k] for t in tasks] for k in tasks[0].parts}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
