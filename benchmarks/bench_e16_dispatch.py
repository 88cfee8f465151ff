"""E16 -- per-event dispatch throughput of the product machine.

E14 measures the whole pipeline; E16 isolates the layer this repo's
table-driven product automaton actually changed: per-event evaluation
dispatch.  Three measurements, all wall-clock (``time.perf_counter``),
all over the E1 hospital corpus:

* **dispatch** -- pump every corpus document's event stream through the
  legacy token-stack engine and the product machine directly (same
  ``add_policy`` API, dummy sinks), at 1/4/16 lanes.  A lane is one
  subscriber registering the same compiled policy with its own sinks --
  the token engine's per-event work grows with the audience, the
  product machine's with *distinct automata*.  This is the headline:
  the product machine delivers >=2x event throughput on one lane and
  ~4x on a 16-lane audience.
* **multicast** -- a cold push-scenario session: one
  :class:`~repro.core.multicast.MultiSubjectEvaluator` evaluating the
  corpus for a 16-subscriber community, legacy vs product engine,
  reported as aggregate delivered-view MB/s.  Its ratio is modest
  (~1.1x) precisely *because* the engine is no longer the bottleneck
  there: per-subscriber view materialization is irreducible O(lanes)
  work either way.
* **end_to_end** -- cold card pull sessions (the E14 metric) under the
  sequential transfer policy and ``TransferPolicy.windowed(4)``, with
  the committed ``BENCH_E14.json`` numbers alongside for context.  The
  honest caveat lives here: engine dispatch was ~10% of a pull
  session's wall time, so Amdahl caps the end-to-end gain at ~1.1-1.2x
  -- the >=2x claim is about dispatch and multicast, where the product
  machine is the dominant cost.

``--check`` gates CI on the *same-process* speedup ratios (product vs
legacy in one interpreter), which need no machine calibration.

Usage::

    python benchmarks/bench_e16_dispatch.py                # full corpus
    python benchmarks/bench_e16_dispatch.py --quick        # CI subset
    python benchmarks/bench_e16_dispatch.py --json out.json
    python benchmarks/bench_e16_dispatch.py --quick --check
"""

import argparse
import json
import sys
import time
from pathlib import Path

from _common import emit
from bench_e14_wallclock import SUBJECTS, calibrate, publish_point, pull

from repro.core.compiled import compile_policy
from repro.core.product import ProductEngine
from repro.core.rules import Sign
from repro.core.runtime import EngineStats, TokenEngine
from repro.core.multicast import MultiSubjectEvaluator
from repro.skipindex.encoder import IndexMode
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.events import OpenEvent, ValueEvent
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

FULL_PATIENTS = (5, 10, 20, 40)
QUICK_PATIENTS = (5, 10)
FULL_LANES = (1, 4, 16)
QUICK_LANES = (1, 16)
FULL_E2E = [
    (patients, mode)
    for patients in FULL_PATIENTS
    for mode in (IndexMode.RECURSIVE, IndexMode.NONE)
]
QUICK_E2E = [(5, IndexMode.RECURSIVE), (10, IndexMode.RECURSIVE)]

#: CI gate floors (see ``check_speedups``) apply to the same-process
#: product/legacy speedup ratios: both arms run in one interpreter, so
#: the ratios are machine-independent and need no calibration.


class _CountingSink:
    """Match sink with no behavior -- isolates engine dispatch cost."""

    __slots__ = ("matches",)

    def __init__(self) -> None:
        self.matches = 0

    def on_match(self, conditions) -> None:
        self.matches += 1


def _corpus_events(patients_list) -> list[list]:
    return [
        list(tree_to_events(hospital(n_patients=n))) for n in patients_list
    ]


def _policies():
    rules = hospital_rules()
    return [
        compile_policy(rules, subject, Sign.DENY) for subject in SUBJECTS
    ]


def _pump_corpus(engine_cls, corpus, policies, lanes: int) -> tuple[int, int]:
    """One timed pass: fresh engine per (document, policy) pair.

    Engines are built inside the timed region -- a cold session pays
    automaton registration too, and the product machine's lazy
    transition tables mean its interning cost must not be hidden.
    Returns ``(events_pumped, matches)`` for cross-engine verification.
    """
    pumped = matches = 0
    for events in corpus:
        for policy in policies:
            engine = engine_cls(stats=EngineStats())
            sinks = [_CountingSink() for _ in range(lanes)]
            for sink in sinks:
                engine.add_policy(policy, [sink] * len(policy.automata))
            for event in events:
                kind = type(event)
                if kind is OpenEvent:
                    engine.open(event.tag)
                elif kind is ValueEvent:
                    engine.value(event.text)
                else:
                    engine.close()
                pumped += 1
            matches += sum(sink.matches for sink in sinks)
    return pumped, matches


def measure_dispatch(quick: bool = False) -> dict:
    """Token vs product event throughput at several audience sizes."""
    corpus = _corpus_events(QUICK_PATIENTS if quick else FULL_PATIENTS)
    policies = _policies()
    repeats = 2 if quick else 3
    lanes_axis = QUICK_LANES if quick else FULL_LANES
    points = []
    for lanes in lanes_axis:
        sample = {}
        for label, engine_cls in (
            ("legacy", TokenEngine), ("product", ProductEngine)
        ):
            best = float("inf")
            pumped = matches = 0
            for _ in range(repeats):
                start = time.perf_counter()
                pumped, matches = _pump_corpus(
                    engine_cls, corpus, policies, lanes
                )
                best = min(best, time.perf_counter() - start)
            sample[label] = {
                "kevents_per_s": pumped / best / 1e3,
                "events": pumped,
                "matches": matches,
            }
        if sample["legacy"]["matches"] != sample["product"]["matches"]:
            raise AssertionError(
                "engines disagree on match count: "
                f"{sample['legacy']['matches']} vs "
                f"{sample['product']['matches']}"
            )
        points.append({
            "lanes": lanes,
            "legacy_kevps": sample["legacy"]["kevents_per_s"],
            "product_kevps": sample["product"]["kevents_per_s"],
            "speedup": sample["product"]["kevents_per_s"]
            / sample["legacy"]["kevents_per_s"],
            "events": sample["product"]["events"],
            "matches": sample["product"]["matches"],
        })
    return {"points": points}


def measure_multicast(quick: bool = False) -> dict:
    """Cold community sessions: aggregate delivered-view MB/s."""
    patients_list = QUICK_PATIENTS if quick else FULL_PATIENTS
    corpus = _corpus_events(patients_list)
    base_policies = _policies()
    repeats = 2 if quick else 3
    lanes_axis = QUICK_LANES if quick else FULL_LANES
    points = []
    for lanes in lanes_axis:
        # Round-robin the subjects across the audience: 16 lanes is 8
        # accountants + 8 doctors, each with a private delivery lane.
        audience = [base_policies[i % len(base_policies)] for i in range(lanes)]
        delivered = 0
        for events in corpus:
            evaluator = MultiSubjectEvaluator(audience, engine="product")
            for view in evaluator.run(events):
                delivered += len(write_string(view).encode("utf-8"))
        sample = {}
        for label in ("legacy", "product"):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                for events in corpus:
                    MultiSubjectEvaluator(audience, engine=label).run(events)
                best = min(best, time.perf_counter() - start)
            sample[label] = delivered / best / 1e6
        points.append({
            "lanes": lanes,
            "delivered_view_bytes": delivered,
            "legacy_mbps": sample["legacy"],
            "product_mbps": sample["product"],
            "speedup": sample["product"] / sample["legacy"],
        })
    return {"points": points}


def _measure_cold_sessions(
    corpus, transfer: "TransferPolicy | None", repeats: int
) -> dict:
    """E14-style cold pull sessions under one transfer policy."""
    points = []
    total_s = 0.0
    total_bytes = 0
    for patients, mode in corpus:
        events = list(tree_to_events(hospital(n_patients=patients)))
        best = None
        for _ in range(repeats):
            readers, document, __ = publish_point(events, mode)
            cold_s = 0.0
            for reader in readers:
                start = time.perf_counter()
                pull(reader, document, transfer)
                cold_s += time.perf_counter() - start
            plaintext = document.container.header.total_length
            if best is None or cold_s < best[0]:
                best = (cold_s, plaintext)
        points.append({
            "patients": patients,
            "mode": mode.name,
            "cold_s": best[0],
            "plaintext_bytes": best[1],
        })
        total_s += best[0]
        total_bytes += best[1] * len(SUBJECTS)
    return {
        "points": points,
        "cold_s": total_s,
        "session_plaintext": total_bytes,
        "cold_session_mbps": total_bytes / total_s / 1e6,
    }


def measure_end_to_end(quick: bool = False) -> dict:
    corpus = QUICK_E2E if quick else FULL_E2E
    repeats = 1 if quick else 2
    return {
        "sequential": _measure_cold_sessions(corpus, None, repeats),
        "windowed4": _measure_cold_sessions(
            corpus, TransferPolicy.windowed(4), repeats
        ),
    }


def _e14_reference() -> "dict | None":
    committed = Path(__file__).resolve().parent.parent / "BENCH_E14.json"
    if not committed.exists():
        return None
    with open(committed) as handle:
        data = json.load(handle)
    current = data["current"]["full"]
    return {
        "cold_session_mbps": current["cold_session_mbps"],
        "calibration_s": current["calibration_s"],
        "source": "BENCH_E14.json current.full (committed)",
    }


def measure_all(quick: bool = False) -> dict:
    result = {
        "experiment": "E16",
        "suite": "quick" if quick else "full",
        "dispatch": measure_dispatch(quick=quick),
        "multicast": measure_multicast(quick=quick),
        "end_to_end": measure_end_to_end(quick=quick),
        "calibration_s": calibrate(),
    }
    reference = _e14_reference()
    if reference is not None:
        factor = result["calibration_s"] / reference["calibration_s"]
        e2e = result["end_to_end"]
        reference["machine_factor"] = factor
        reference["speedup_sequential_calibrated"] = (
            e2e["sequential"]["cold_session_mbps"] * factor
            / reference["cold_session_mbps"]
        )
        reference["speedup_windowed4_calibrated"] = (
            e2e["windowed4"]["cold_session_mbps"] * factor
            / reference["cold_session_mbps"]
        )
        result["e14_reference"] = reference
    return result


_TITLE = "E16: per-event dispatch throughput (product machine; E1 corpus)"
_HEADERS = ["measurement", "lanes", "legacy", "product", "speedup"]


def _table(result: dict):
    rows = []
    for point in result["dispatch"]["points"]:
        rows.append([
            "dispatch (kev/s)", point["lanes"],
            point["legacy_kevps"], point["product_kevps"], point["speedup"],
        ])
    for point in result["multicast"]["points"]:
        rows.append([
            "multicast (MB/s)", point["lanes"],
            point["legacy_mbps"], point["product_mbps"], point["speedup"],
        ])
    e2e = result["end_to_end"]
    rows.append([
        "cold session (MB/s)", "seq", "",
        e2e["sequential"]["cold_session_mbps"], "",
    ])
    rows.append([
        "cold session (MB/s)", "w4", "",
        e2e["windowed4"]["cold_session_mbps"], "",
    ])
    return _TITLE, _HEADERS, rows


def run_experiment(quick: bool = False):
    return _table(measure_all(quick=quick))


def check_speedups(result: dict) -> int:
    """CI gate on the same-process product/legacy speedup ratios."""
    failures = []
    checks = []
    for point in result["dispatch"]["points"]:
        # One-lane speedup on the small quick docs jitters between
        # ~1.1x and ~1.9x; gate it at parity (the product machine must
        # never be slower) and put the hard >=2x floor on the 16-lane
        # audience, where the measured margin is 3.3-4.5x.
        floor = 2.0 if point["lanes"] >= 16 else 1.0
        checks.append(("dispatch", point["lanes"], point["speedup"], floor))
    # The multicast speedup is reported but not gated: once engine
    # dispatch is fast, per-subscriber view materialization dominates
    # that measurement, and its ratio hovers near 1.1x by design.
    for name, lanes, speedup, floor in checks:
        status = "ok" if speedup >= floor else "REGRESSION"
        print(
            f"{name} lanes={lanes}: speedup {speedup:.2f}x "
            f"(floor {floor:.1f}x) -> {status}"
        )
        if speedup < floor:
            failures.append(f"{name}@{lanes}")
    if failures:
        print(f"dispatch speedup below floor in: {', '.join(failures)}")
        return 1
    return 0


def test_e16_dispatch(benchmark):
    corpus = _corpus_events((5,))
    policies = _policies()
    benchmark.pedantic(
        lambda: _pump_corpus(ProductEngine, corpus, policies, 4),
        rounds=3, iterations=1,
    )
    emit(*run_experiment(quick=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when the product/legacy dispatch speedup falls "
        "below the floors (>=1x at 1 lane, >=2x at 16 lanes)",
    )
    args = parser.parse_args()
    result = measure_all(quick=args.quick)
    emit(*_table(result))
    reference = result.get("e14_reference")
    if reference is not None:
        print(
            f"\nend-to-end vs committed E14 (calibrated): "
            f"sequential {reference['speedup_sequential_calibrated']:.2f}x, "
            f"windowed(4) {reference['speedup_windowed4_calibrated']:.2f}x "
            f"of {reference['cold_session_mbps']:.3f} MB/s"
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.check:
        return check_speedups(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
