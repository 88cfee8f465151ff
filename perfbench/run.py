"""The repository's benchmark: seeded workloads through ``repro.community``.

Run from the repository root::

    python3 perfbench/run.py --workload card-pull --seed 1 --seconds 10 --trace 0

``--workload`` is ``card-pull``, ``served-mix`` or ``feed-video`` (see
``workloads.py`` and ``README.md``).  A run sets the world up several
times and reports the median set-up time, measures the op stream for
``--seconds``, checks every view against the reference, and prints a
report followed by one JSON line::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, at the
reference speed of ``calibration.py``.  With
``--trace 1`` the layers are wrapped in spans (``tracer.py``): the run
prints the per-layer ledger and reports the per-layer metrics, then
replays the same ops untraced to measure the tracing overhead.  Spans
are written to ``.perfbench-out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: How many times a run builds its world; ``setup_s`` is the median.
SETUPS = 5

#: The measured phase is cut into this many equal time windows, each
#: brought to the reference speed by its own calibration samples.
WINDOWS = 5

#: The tracing overhead is measured by replaying this share of a
#: traced run's ops with tracing off.
OVERHEAD_SHARE = 1 / 3

#: Per-layer metrics: name, unit.  Values are per op unless a ratio.
PER_LAYER = [
    ("community.self_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.semantic_hits", "count"),
    ("cache.evictions", "count"),
    ("terminal.self_ms", "ms"),
    ("terminal.apdus", "count"),
    ("terminal.wasted_ratio", "ratio"),
    ("dsp.busy_ms", "ms"),
    ("dsp.requests", "count"),
    ("dsp.bytes", "B"),
    ("wire.codec_ms", "ms"),
    ("reactor.requests", "count"),
    ("reactor.cache_hit_ratio", "ratio"),
    ("reactor.rejected", "count"),
    ("store.read_ms", "ms"),
    ("store.write_ms", "ms"),
    ("smartcard.busy_ms", "ms"),
    ("smartcard.skip_ratio", "ratio"),
    ("smartcard.modeled_ms", "ms"),
    ("crypto.open_ms", "ms"),
    ("crypto.bytes_decrypted", "B"),
    ("crypto.seal_ms", "ms"),
    ("crypto.wraps", "count"),
    ("skipindex.decode_ms", "ms"),
    ("skipindex.encode_ms", "ms"),
    ("core.feed_ms", "ms"),
    ("core.events", "count"),
    ("core.compiles", "count"),
    ("core.token_share", "ratio"),
    ("xmlstream.emit_ms", "ms"),
    ("feeds.publish_ms", "ms"),
    ("feeds.broadcast_ms", "ms"),
    ("feeds.wraps_per_publish", "count"),
]

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "view_p50_ms": "ms",
    "view_p90_ms": "ms",
    "view_mbps": "MB/s",
    "rss_mb": "MB",
}


def bootstrap() -> None:
    """Put this checkout's ``src`` first on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _quantile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(share * 100) - 1]


@dataclass
class Result:
    """Everything one run measured."""

    setup_s: list[float] = field(default_factory=list)
    #: The machine's slowdown, sampled right before and after each set-up.
    setup_slowdown: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    tally: Any = None
    gate: Any = None
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)
    #: What the owner process measured (served-mix only).
    remote: dict[str, Any] = field(default_factory=dict)
    tracer: Any = None
    deprecations: list[str] = field(default_factory=list)


def drive(
    workload: Any,
    world: Any,
    stream: Iterator[tuple[Any, ...]],
    gate: Any,
    seconds: float | None = None,
    max_ops: int | None = None,
) -> tuple[Any, float]:
    """Run ops from ``stream`` until ``seconds`` pass or ``max_ops`` are done."""
    from workloads import Tally

    tracer = workload.tracer
    tally = Tally(seconds, WINDOWS, keep_op_times=tracer is not None)
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else math.inf
    next_sample = started
    for index, op in enumerate(stream):
        if tracer is not None:
            tracer.op_id = index
        workload.run(world, op, tally, gate)
        if max_ops is not None and index + 1 >= max_ops:
            break
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_sample:
            tally.window().calibration.add(calibration.sample())
            next_sample = now + calibration.PERIOD_S
    return tally, time.perf_counter() - started


def prepare(workload: Any, world: Any, gate: Any) -> Iterator[tuple[Any, ...]]:
    """The op stream, past the workload's prelude.

    The prelude runs the first ops untimed, so that caches reach the
    state they keep for the rest of the run before anything is timed;
    its views still go through the gate.
    """
    stream = workload.ops()
    if workload.PRELUDE_OPS:
        drive(workload, world, stream, gate, max_ops=workload.PRELUDE_OPS)
    return stream


def measure(
    name: str,
    seed: int,
    seconds: float | None,
    trace: bool,
    max_ops: int | None = None,
) -> Result:
    """Set up, run the measured phase, tear down."""
    from gate import Gate
    from tracer import Tracer
    from workloads import WORKLOADS

    result = Result(gate=Gate())
    workload = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        world = None
        workload.start()
        try:
            for _ in range(SETUPS):
                if world is not None:
                    workload.close(world)
                    world = None
                samples = [calibration.sample() for _ in range(3)]
                started = time.perf_counter()
                world = workload.setup()
                result.setup_s.append(time.perf_counter() - started)
                samples += [calibration.sample() for _ in range(3)]
                result.setup_slowdown.append(calibration.slowdown(samples))
            stream = prepare(workload, world, result.gate)
            result.before = workload.counters(world)
            workload.tracer = tracer
            workload.begin(world)
            if tracer is not None:
                tracer.install_reader()
            try:
                result.tally, result.elapsed = drive(
                    workload, world, stream, result.gate, seconds, max_ops
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            result.after = workload.counters(world)
        finally:
            try:
                if world is not None:
                    result.remote = workload.close(world)
            finally:
                workload.stop()
    result.tracer = tracer
    result.deprecations = [
        f"{w.filename}:{w.lineno}: {w.message}"
        for w in caught
        if issubclass(w.category, DeprecationWarning)
        and str(ROOT) in str(Path(w.filename).resolve())
    ]
    return result


def untraced_op_seconds(name: str, seed: int, ops: int) -> float:
    """Op time of the first ``ops`` ops with tracing off."""
    from gate import Gate
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.start()
    try:
        world = workload.setup()
        try:
            gate = Gate()
            stream = prepare(workload, world, gate)
            workload.begin(world)
            tally, _ = drive(workload, world, stream, gate, max_ops=ops)
        finally:
            workload.close(world)
    finally:
        workload.stop()
    return tally.op_seconds


def end_to_end(result: Result) -> dict[str, float]:
    """The end-to-end figures at the reference speed of ``calibration.py``.

    Each window's times are divided, and its rates multiplied, by that
    window's slowdown; the quantiles are taken over the views of all
    windows together.
    """
    tally = result.tally
    every = [took for window in tally.windows for took in window.calibration.values()]
    last = len(tally.windows) - 1
    times: list[float] = []
    view_seconds = 0.0
    view_bytes = 0
    ops = 0
    busy = 0.0
    for index, window in enumerate(tally.windows):
        samples = window.calibration.values() or every
        factor = calibration.slowdown(samples) if samples else 1.0
        width = tally.width if index < last else result.elapsed - last * tally.width
        busy += (width - window.calibration.total) / factor
        ops += window.ops
        times.extend(seconds / factor for seconds in window.views.values())
        view_seconds += window.views.total / factor
        view_bytes += window.view_bytes
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += result.remote.get("maxrss_kb", 0)
    setups = [took / slow for took, slow in zip(result.setup_s, result.setup_slowdown)]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / busy,
        "view_p50_ms": statistics.median(times) * 1e3,
        "view_p90_ms": _quantile(times, 0.90) * 1e3,
        "view_mbps": view_bytes / view_seconds / 1e6,
        "rss_mb": rss_kb / 1024,
    }


def per_layer(result: Result) -> dict[str, float]:
    tally, tracer = result.tally, result.tracer
    ops = tally.ops
    inclusive = tracer.inclusive_seconds()
    for span, seconds in result.remote.get("inclusive_s", {}).items():
        inclusive[span] += seconds
    calls = tracer.calls()
    ledger = tracer.ledger(tally.op_seconds)
    delta = {key: result.after[key] - result.before[key] for key in result.after}
    lookups = delta["cache_hits"] + delta["cache_semantic_hits"] + delta["cache_misses"]
    reactor = result.remote.get("reactor", {})
    requests = reactor.get("requests", 0)
    fetched = tally.chunks_sent + tally.chunks_wasted
    plaintext = tally.bytes_skipped + tally.bytes_decrypted
    engines = tracer.counts.get("token_engines", 0) + tracer.counts.get("product_engines", 0)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "community.self_ms": ms(ledger["community"]),
        "cache.hit_ratio": ratio(delta["cache_hits"] + delta["cache_semantic_hits"], lookups),
        "cache.semantic_hits": delta["cache_semantic_hits"] / ops,
        "cache.evictions": delta["cache_evictions"] / ops,
        "terminal.self_ms": ms(ledger["terminal"]),
        "terminal.apdus": calls["smartcard"] / ops,
        "terminal.wasted_ratio": ratio(tally.chunks_wasted, fetched),
        "dsp.busy_ms": ms(inclusive["dsp"]),
        "dsp.requests": calls["dsp"] / ops,
        "dsp.bytes": tally.bytes_from_dsp / ops,
        "wire.codec_ms": ms(inclusive["wire"]),
        "reactor.requests": requests / ops,
        "reactor.cache_hit_ratio": ratio(reactor.get("cache_hits", 0), requests),
        "reactor.rejected": reactor.get("rejected", 0) / ops,
        "store.read_ms": ms(inclusive["store.read"]),
        "store.write_ms": ms(inclusive["store.write"]),
        "smartcard.busy_ms": ms(inclusive["smartcard"]),
        "smartcard.skip_ratio": ratio(tally.bytes_skipped, plaintext),
        "smartcard.modeled_ms": ms(delta["modeled_s"]),
        "crypto.open_ms": ms(inclusive["crypto.open"]),
        "crypto.bytes_decrypted": tally.bytes_decrypted / ops,
        "crypto.seal_ms": ms(inclusive["crypto.seal"]),
        "crypto.wraps": delta["wraps"] / ops,
        "skipindex.decode_ms": ms(inclusive["skipindex.decode"]),
        "skipindex.encode_ms": ms(inclusive["skipindex.encode"]),
        "core.feed_ms": ms(inclusive["core.feed"]),
        "core.events": calls["core.feed"] / ops,
        "core.compiles": delta["compiles"] / ops,
        "core.token_share": ratio(tracer.counts.get("token_engines", 0), engines),
        "xmlstream.emit_ms": ms(inclusive["xmlstream.emit"]),
        "feeds.publish_ms": ms(inclusive["feeds.publish"]),
        "feeds.broadcast_ms": ms(inclusive["feeds.broadcast"]),
        "feeds.wraps_per_publish": ratio(tally.publish_wraps, tally.publishes),
    }


def _report_ops(result: Result) -> list[str]:
    tally = result.tally
    kinds = {kind: sample.count for kind, sample in sorted(tally.kinds.items())}
    lines = [f"ops: {tally.ops} in {result.elapsed:.2f} s, by kind: {kinds}"]
    for kind, sample in sorted(tally.kinds.items()):
        times = sample.values()
        line = f"  {kind:<12} n={sample.count:<6} p50 {statistics.median(times) * 1e3:9.3f} ms"
        if len(times) >= 100:
            line += f"  p90 {_quantile(times, 0.90) * 1e3:9.3f} ms"
        if len(times) >= 200:
            line += f"  p95 {_quantile(times, 0.95) * 1e3:9.3f} ms"
        lines.append(line)
    lines.append(
        f"error_rate: {tally.failed / tally.ops:.6f} ({tally.failed} of {tally.ops} ops failed, "
        f"{result.gate.checks} gate checks)"
    )
    lines.extend(f"  FAILED {example}" for example in result.gate.examples)
    lines.extend(f"  DEPRECATION {text}" for text in result.deprecations)
    return lines


def _ledger_lines(result: Result, replayed: int, untraced_s: float) -> tuple[list[str], bool]:
    from tracer import LAYERS, LEDGER_TOLERANCE

    tally = result.tally
    total = tally.op_seconds
    ledger = result.tracer.ledger(total)
    lines = [f"ledger: self time per layer, ms per op over {tally.ops} traced ops"]
    for layer in LAYERS + ["unattributed"]:
        share = ledger[layer] / total if total else 0.0
        lines.append(f"  {layer:<14} {ledger[layer] * 1e3 / tally.ops:10.4f}  {share:7.2%}")
    lines.append(f"  {'total':<14} {total * 1e3 / tally.ops:10.4f}  (traced op time)")
    unattributed = abs(ledger["unattributed"]) / total if total else 0.0
    ok = unattributed <= LEDGER_TOLERANCE
    lines.append(
        f"ledger check: |unattributed| = {unattributed:.3%} of op time, "
        f"tolerance {LEDGER_TOLERANCE:.0%}: {'ok' if ok else 'FAILED'}"
    )
    traced_s = sum(tally.op_times[:replayed])
    lines.append(
        f"tracing overhead on the first {replayed} ops: {traced_s * 1e3 / replayed:.4f} ms/op "
        f"traced vs {untraced_s * 1e3 / replayed:.4f} ms/op untraced "
        f"({traced_s / untraced_s - 1:+.1%})"
    )
    if result.remote.get("inclusive_s"):
        lines.append(
            "  (the owner process's store reads happen inside dsp waits and "
            "are reported as store.read_ms, not booked in the ledger)"
        )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    cpu = pin_to_one_cpu() if WORKLOADS[args.workload].PINNED else "any"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} cpu={cpu} "
        f"python={platform.python_version()}"
    )
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in result.setup_s)}")
    for line in _report_ops(result):
        print(line)
    correct = result.gate.correct and result.tally.failed == 0 and not result.deprecations
    if args.trace:
        replayed = max(1, int(result.tally.ops * OVERHEAD_SHARE))
        untraced_s = untraced_op_seconds(args.workload, args.seed, replayed)
        lines, ledger_ok = _ledger_lines(result, replayed, untraced_s)
        for line in lines:
            print(line)
        correct = correct and ledger_ok
        metrics = per_layer(result)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        result.tracer.write(str(spans))
        print(f"wrote {result.tracer.span_count()} spans to {spans.relative_to(ROOT)}")
    else:
        # The figures as measured are the reported ones times (rates:
        # divided by) these slowdowns.
        windows = [
            f"{calibration.slowdown(window.calibration.values()):.4f}"
            for window in result.tally.windows
            if window.calibration.count
        ]
        print(
            f"machine slowdown against the calibration reference: per window "
            f"{', '.join(windows)}; per set-up "
            f"{', '.join(f'{slow:.4f}' for slow in result.setup_slowdown)}"
        )
        print("at the reference speed (reported):")
        metrics = end_to_end(result)
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"  {key:<26} {value:14.6f} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.tally.ops,
        "failed": result.tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
