"""freediv benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload binomial_grid --seed 1 --seconds 25 --trace 0

One process, one outstanding item at a time.  With --trace 0 the workload runs
untraced for --seconds of item time (whole rounds, at least MIN_ITEMS items)
and the end-to-end metrics are printed.  With --trace 1 each entry of a fixed
sample runs twice, untraced and under the layer spans of layers.py, and the
per-layer metrics are printed.  Every result is checked against the
references in workloads.py outside the timed region.

Times are reported at reference machine speed: a machine-speed probe runs
after every PROBE_EVERY_S of item time, and each block's wall time is scaled by
PROBE_REF_MS / (probe time around the block).  Raw wall-clock figures are
printed beside them.  The last line of stdout is one JSON object; details
(item list, samples, failures, probes, spans) go to perfbench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")

WORKLOADS = ("cli_oneshot", "binomial_grid", "jet_tower", "refute_syzygy")
DEFAULT_SEED = 20260819
SETUP_REPEATS = 3
MIN_ITEMS = 110          # so that at least ten samples lie beyond p90
ITEM_CAP_S = 10.0        # in-process time cap per item (SIGALRM)
TRACE_GRID_ITEMS = 400   # traced sample of binomial_grid; other workloads trace one round
CLI_PROBES = 5
PROBE_REF_MS = 5.0       # reference machine speed: the probe takes this long
PROBE_EVERY_S = 0.2      # item time between two probes


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside an item that ran past ITEM_CAP_S."""


def _on_alarm(signum, frame):
    raise ItemTimeout(f"over the {ITEM_CAP_S} s time cap")


def load_freediv():
    """Import freediv from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "freediv", "__init__.py")):
        raise SystemExit(f"error: no freediv sources under {SRC}")
    sys.path.insert(0, SRC)
    import freediv

    if not os.path.abspath(freediv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: freediv imported from {freediv.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_ms() -> float:
    """Machine-speed probe: a fixed pure-Python Fraction loop, garbage collector off
    so that the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 1000):
            s += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        return (time.perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Probes machine speed between blocks of work and scales each block to reference speed.

    Other tenants of a shared VM slow the whole machine, by up to 1.8x for
    seconds to minutes; the probe between blocks slows with it.
    """

    def __init__(self):
        self.probes = [probe_ms()]

    def factor(self) -> float:
        """Scale for the block that ended now: reference speed over the speed around it."""
        self.probes.append(probe_ms())
        return PROBE_REF_MS / ((self.probes[-2] + self.probes[-1]) / 2)


class Run:
    """Runs items, checks each outside the timed region, and keeps the record."""

    def __init__(self, seed: int, out_terms):
        self.out_terms = out_terms
        self.check_rng = random.Random(seed * 7919 + 1)
        self.records: dict[str, dict] = {}
        self.samples: list[tuple[str, float]] = []  # (item id, wall seconds)
        self.scaled: list[float] = []               # seconds at reference speed, by sample
        self.failures: list[tuple[str, str]] = []

    def one(self, item) -> float:
        start = time.perf_counter()
        try:
            if item.in_process:
                signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
            try:
                result = item.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (ItemTimeout, Exception) as exc:
            result = exc
        elapsed = time.perf_counter() - start
        if isinstance(result, ItemTimeout):
            msg = f"time cap: {result}"
        else:
            try:
                msg = item.check(result, self.check_rng)
            except Exception as exc:  # a result the reference cannot even read
                msg = f"check raised {type(exc).__name__}: {exc}"
        if item.id not in self.records:
            record = item.record()
            record["out_terms"] = self.out_terms(result)
            self.records[item.id] = record
        self.samples.append((item.id, elapsed))
        if msg:
            self.failures.append((item.id, msg))
        return elapsed

    def rounds(self, rounds, seconds: float, min_items: int, clock: SpeedClock) -> None:
        """Whole rounds until `seconds` of item time and `min_items` items.

        The clock probes after every PROBE_EVERY_S of item time, and each
        sample is scaled by the factor of the block it fell in.
        """
        timed, block, r = 0.0, 0.0, 0
        while timed < seconds or len(self.samples) < min_items:
            for item in rounds[r % len(rounds)]:
                dt = self.one(item)
                timed += dt
                block += dt
                if block >= PROBE_EVERY_S:
                    self._scale(clock)
                    block = 0.0
            r += 1
        if len(self.scaled) < len(self.samples):
            self._scale(clock)

    def _scale(self, clock: SpeedClock) -> None:
        factor = clock.factor()
        self.scaled += [dt * factor for _, dt in self.samples[len(self.scaled):]]


def setup(workloads, name: str, seed: int, import_s: float, clock: SpeedClock):
    """Build the inputs and warm up, SETUP_REPEATS times; the median counts."""
    times, raw, wl = [], [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.build(name, seed, ROOT)
        warm = Run(seed, workloads.out_terms)
        for item in wl.warmup:
            warm.one(item)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * clock.factor())
    return wl, import_s + statistics.median(times), statistics.median(raw)


def _latency_metrics(seconds: list[float], good: int) -> dict:
    return {
        "items_per_s": (good / sum(seconds), "1/s"),
        "latency_ms.p50": (statistics.median(seconds) * 1000, "ms"),
        "latency_ms.p90": (statistics.quantiles(seconds, n=10)[-1] * 1000, "ms"),
    }


def end_to_end(workloads, wl, seed, seconds, setup_s, clock):
    """The end-to-end metrics at reference speed, and the same figures in wall-clock time."""
    run = Run(seed, workloads.out_terms)
    run.rounds(wl.rounds, seconds, MIN_ITEMS, clock)
    good = len(run.samples) - len(run.failures)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    metrics = {"setup_s": (setup_s, "s"), **_latency_metrics(run.scaled, good),
               "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB")}
    raw = _latency_metrics([dt for _, dt in run.samples], good)
    return run, metrics, raw


def _timed_main(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def _subprocess_ms(argv, env, clock: SpeedClock) -> float:
    times = []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - start) * clock.factor())
    return statistics.median(times) * 1000


def _paired(entries, run_entry, tracer) -> tuple[float, dict]:
    """Run each (id, entry) untraced and traced back to back, alternating which goes
    first, so that neither machine drift nor a cold first run reads as tracing cost.

    Returns the untraced seconds and the traced seconds by entry id.
    """
    untraced, traced = 0.0, {}
    for k, (entry_id, entry) in enumerate(entries):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.item = entry_id
                tracer.install()
            try:
                dt = run_entry(entry, on)
            finally:
                if on:
                    tracer.uninstall()
            if on:
                traced[entry_id] = dt
            else:
                untraced += dt
    return untraced, traced


def traced(workloads, wl, seed, clock: SpeedClock):
    """Paired untraced and traced runs of a fixed sample; per-layer metrics and split notes."""
    import layers

    run = Run(seed, workloads.out_terms)
    tracer = layers.Tracer()
    notes = []
    if wl.name == "cli_oneshot":
        from freediv import cli

        seen: dict[str, str] = {}

        def run_command(command, label: str, serial: bool) -> float:
            name, argv, doc_check = command
            if serial and argv[:2] == ["corpus", "run"]:
                argv = argv + ["--jobs", "1"]  # spans nest on one thread
            dt, code, out = _timed_main(cli.main, argv)
            msg = workloads.check_cli_output(name, code, out, doc_check, seen)
            if msg:
                run.failures.append((f"{label}:{name}", msg))
            run.samples.append((f"{label}:{name}", dt))
            return dt

        per_command = {c[0]: run_command(c, "main", False) for c in wl.commands}
        scale = clock.factor()
        untraced_s, per_item = _paired(
            [(c[0], c) for c in wl.commands],
            lambda c, on: run_command(c, "traced" if on else "untraced", True), tracer)
        values = tracer.metrics(per_item)
        env = workloads.cli_env(ROOT)
        interp = _subprocess_ms([sys.executable, "-c", "pass"], env, clock)
        values["cli.interpreter_ms"] = interp
        values["cli.import_ms"] = _subprocess_ms([sys.executable, "-c", "import freediv.cli"],
                                                 env, clock) - interp
        values["cli.main_ms"] = statistics.median(per_command.values()) * scale * 1000
        values["cli.corpus_run_ms"] = per_command["corpus-run"] * scale * 1000
        parse_argv = next(argv for name, argv, _ in wl.commands if name == "parse")
        parse_ms = _subprocess_ms([sys.executable, "-m", "freediv.cli"] + parse_argv, env, clock)
        share = (values["cli.interpreter_ms"] + values["cli.import_ms"]) / parse_ms
        notes.append(f"cli.interpreter_ms + cli.import_ms is {share:.0%} of a `parse` item "
                     f"({parse_ms:.1f} ms): {'holds' if share > 0.5 else 'does not hold'}")
    else:
        if wl.name == "binomial_grid":
            sample = [item for rnd in wl.rounds for item in rnd][:TRACE_GRID_ITEMS]
        else:
            sample = wl.rounds[0]
        untraced_s, per_item = _paired([(item.id, item) for item in sample],
                                       lambda item, on: run.one(item), tracer)
        values = tracer.metrics(per_item)
        self_s, inclusive = tracer.times()
        top = max(self_s, key=self_s.get)
        if wl.name in ("binomial_grid", "jet_tower"):
            holds = top == "poly.squarefree_gcd"
            notes.append(f"poly.squarefree_gcd.self_s is the largest self time: "
                         f"{'holds' if holds else 'does not hold'} (largest: {top}, "
                         f"{self_s[top]:.3f} s; squarefree_gcd inclusive of its poly_gcd "
                         f"calls: {inclusive.get('poly.squarefree_gcd', 0.0):.3f} s of "
                         f"{sum(per_item.values()):.3f} s traced item time)")
        else:
            linalg = {k: v for k, v in self_s.items() if k.startswith("linalg.")}
            share = linalg.get("linalg.rref", 0.0) / sum(linalg.values()) if linalg else 0.0
            notes.append(f"linalg.rref.self_s is {share:.0%} of linalg self time: "
                         f"{'holds' if share > 0.5 else 'does not hold'}")
    values["trace.overhead_share"] = 1 - untraced_s / sum(per_item.values())
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS}
    return run, metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clock = SpeedClock()
    start = time.perf_counter()
    workloads = load_freediv()
    import_raw = time.perf_counter() - start
    signal.signal(signal.SIGALRM, _on_alarm)
    wl, setup_s, setup_raw = setup(workloads, args.workload, args.seed,
                                   import_raw * clock.factor(), clock)

    notes, tracer, raw = [], None, {}
    probe_first = len(clock.probes) - 1
    if args.trace:
        run, metrics, notes, tracer = traced(workloads, wl, args.seed, clock)
    else:
        run, metrics, raw = end_to_end(workloads, wl, args.seed, args.seconds, setup_s, clock)
        raw["setup_s"] = (import_raw + setup_raw, "s")
    probes = clock.probes[probe_first:]

    attempted, failed = len(run.samples), len(run.failures)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "attempted": attempted, "failed": failed,
            "probe_ref_ms": PROBE_REF_MS,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "wall_clock_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
            "probe_ms": probes, "notes": notes, "failures": run.failures,
            "items": list(run.records.values()),
            "samples_ms": [[i, dt * 1000] for i, dt in run.samples],
        }, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {attempted}  failed {failed}  fail_share {failed / attempted:.4f} ratio")
    for name, (value, unit) in metrics.items():
        wall = f"   (wall clock {raw[name][0]:.6f})" if name in raw else ""
        print(f"  {name:45s} {value:14.6f} {unit}{wall}")
    print(f"  machine probe (Fraction loop, reference {PROBE_REF_MS} ms): before {probes[0]:.2f} ms, "
          f"after {probes[-1]:.2f} ms, min {min(probes):.2f}, median {statistics.median(probes):.2f}, "
          f"max {max(probes):.2f} over {len(probes)} probes")
    for note in notes:
        print(f"  split: {note}")
    for item_id, msg in run.failures[:10]:
        print(f"  FAIL {item_id}: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
