"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload implies-deep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory.  The workload sends requests one after
another (one client, closed loop) until ``--seconds`` have passed, checks
every answer against its known value outside the timed region, and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` rounds alternate between traced and
untraced, and the metrics are the per-layer ones from the traced rounds
plus the tracing overhead.  Per-request records (and, traced, the spans)
are written to ``.perfbench_out/`` when the run ends.  Exit code: 0 when
every answer is correct, 1 on a wrong answer, 2 when the run cannot start.
``--workload all`` runs the three workloads one after another.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCRATCH = ROOT / ".perfbench_tmp"
#: Set-ups per run (this process plus fresh interpreters); setup_s is their median.
SETUP_SAMPLES = 5

#: The host's CPU speed drifts by up to 2x over minutes, so every end-to-end
#: time is scaled to a reference speed: the one at which ``_probe`` takes
#: PROBE_REF_S.  Probes run between requests, outside the timed region.
PROBE_REF_S = 0.02
PROBE_EVERY_S = 0.25

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("request_s_p50", "s"), ("request_s_p90", "s"),
    ("requests_per_s", "1/s"), ("work_per_s", "1/s"),
    ("answered_ratio", "ratio"), ("decided_ratio", "ratio"), ("peak_rss_mb", "MB"),
)
#: The per-workload name printed for work_per_s (what one unit of work is).
WORK_UNIT = {
    "implies-deep": "patterns_per_s",
    "exchange-auto": "target_facts_per_s",
    "decide-mix": "verdicts_per_s",
}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORK_UNIT) + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON, and exit")
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in a fresh interpreter; exit with the worst code."""
    worst = 0
    for name in WORK_UNIT:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=900, check=False,
        )
        worst = max(worst, completed.returncode)
    return worst


def _probe() -> float:
    """Time a fixed piece of interpreter work (tuples, dict updates, hashing)."""
    start = time.perf_counter()
    table: dict[tuple[int, int, int], int] = {}
    for i in range(80_000):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + 1
    frozenset(table)
    return time.perf_counter() - start


def _speed(probes: list[float]) -> float:
    """Scale factor from measured seconds to reference-speed seconds."""
    return PROBE_REF_S / statistics.median(probes)


def _setup(args: argparse.Namespace, scratch: Path) -> tuple[float, Any]:
    """Imports, input generation, store creation and warm-up; returns (seconds, workload)."""
    sys.path.insert(0, str(SRC))
    from repro.cache import configure
    from workloads import WORKLOADS

    configure(None)  # the store stays off unless the workload opens one
    bench = WORKLOADS[args.workload](args.seed, args.seconds, scratch)
    return time.perf_counter() - _START, bench


def _setup_sample(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter (imports are only cold there)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def _scaled_setup(setup_s: float) -> float:
    """Set-up time scaled by probes taken right after the set-up."""
    return setup_s * _speed([_probe() for __ in range(3)])


def _measure(
    bench: Any, args: argparse.Namespace, tracer: Any
) -> tuple[list[dict], list[str], list[float]]:
    """Send rounds of requests until the time is up.

    Returns the request records, the answer mismatches and the probe times.
    """
    from repro import perf
    from workloads import OK, Mismatch, reset_memory_tiers

    records: list[dict[str, Any]] = []
    mismatches: list[str] = []
    probes: list[float] = []
    last_probe = 0.0
    began = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 0
        requests = bench.round(index)
        if traced:
            tracer.install()
        try:
            for request in requests:
                reset_memory_tiers()
                gc.collect()
                if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    probes.append(_probe())
                    last_probe = time.perf_counter()
                rid = len(records) + 1
                error = None
                with perf.measuring() as stats:
                    if traced:
                        tracer.begin(rid)
                    start = time.perf_counter()
                    try:
                        output = request.call()
                    except Exception as exc:  # every raised request counts as failed
                        error = f"{type(exc).__name__}: {exc}"
                    latency = time.perf_counter() - start
                    if traced:
                        tracer.end()
                record: dict[str, Any] = {
                    "id": rid, "kind": request.kind, "traced": traced,
                    "latency_s": latency, "error": error, "status": "failed",
                    "work": 0, "tier": None, "counters": stats.snapshot(),
                    **request.meta,
                }
                if error is None:
                    try:
                        record["status"] = request.check(output)
                    except Mismatch as exc:
                        record["status"] = "mismatch"
                        mismatches.append(str(exc))
                    if record["status"] == OK:
                        record["work"] = request.work(output)
                    record["tier"] = request.tier(output)
                if traced:
                    record["decisions"] = tracer.decisions.pop(rid, [])
                records.append(record)
                # Free the output now: rebinding it inside the next timed call
                # would bill its deallocation to the next request.
                output = None
        finally:
            if traced:
                tracer.uninstall()
        index += 1
        enough_rounds = tracer is None or index >= 2
        if enough_rounds and time.perf_counter() - began >= args.seconds:
            return records, mismatches, probes


def _p90(latencies: list[float]) -> float:
    if len(latencies) < 2:
        return latencies[0]
    return statistics.quantiles(latencies, n=10)[8]


def _end_to_end(records: list[dict], setup: list[float], speed: float) -> dict[str, float]:
    """End-to-end metrics; times (and rates) at the reference speed."""
    answered = [r for r in records if r["error"] is None]
    if not answered:
        raise RuntimeError("no request was answered")
    latencies = [r["latency_s"] * speed for r in answered]
    wall = sum(r["latency_s"] for r in records) * speed
    refused = sum(r["status"] == "refused" for r in records)
    return {
        "setup_s": statistics.median(setup),
        "request_s_p50": statistics.median(latencies),
        "request_s_p90": _p90(latencies),
        "requests_per_s": len(answered) / wall,
        "work_per_s": sum(r["work"] for r in answered) / wall,
        "answered_ratio": len(answered) / len(records),
        "decided_ratio": 1 - refused / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(
    records: list[dict], tracer: Any
) -> tuple[dict[str, tuple[float, str, str]], dict[str, int]]:
    """Per-request means over the traced requests, name -> (value, unit, base),
    and the self time of each layer."""
    traced = [r for r in records if r["traced"]]
    ids = {r["id"] for r in traced}
    n = len(traced)
    self_ns = tracer.self_times_ns(ids)
    request_ns = sum(self_ns.values())
    counters: Counter[str] = Counter()
    for record in traced:
        counters.update(record["counters"])
    events = tracer.events

    def ms(layer: str) -> tuple[float, str, str]:
        return self_ns.get(layer, 0) / 1e6 / n, "ms", f"self time per request, {n} requests"

    def per(*names: str, unit: str = "count") -> tuple[float, str, str]:
        total = sum(counters[name] for name in names)
        return total / n, unit, f"{' + '.join(names)} = {total} / {n} requests"

    def per_call(name: str) -> tuple[float, str, str]:
        return events[name] / n, "count", f"{name} = {events[name]} / {n} requests"

    def ratio(label: str, hits: int, base: int) -> tuple[float, str, str]:
        return (hits / base if base else 0.0), "ratio", f"{label} {hits} / {base}"

    def total_ms(name: str) -> tuple[float, str, str]:
        return tracer.total_ns(ids, name) / 1e6 / n, "ms", f"{name} time per request"

    memo_hits = counters["core.memo_hits"] + counters["core.columnar.memo_hits"]
    memo_misses = counters["core.memo_misses"] + counters["core.columnar.memo_misses"]
    chase_hits, chase_misses = counters["implies.cache_hits"], counters["implies.cache_misses"]
    disk_hits, disk_misses = counters["cache.disk.hits"], counters["cache.disk.misses"]
    hom_ns = self_ns.get("engine.homomorphism", 0)
    layer = {
        "hom.self_ms": ms("engine.homomorphism"),
        "hom.share": ((hom_ns / request_ns if request_ns else 0.0), "ratio",
                      f"hom self {hom_ns / 1e6:.1f} ms / request {request_ns / 1e6:.1f} ms"),
        "hom.calls": per_call("hom.calls"),
        "hom.found_ratio": ratio("found/calls", events["hom.found"], events["hom.calls"]),
        "hom.search_nodes": per("hom.search_nodes"),
        "hom.backtracks": per("hom.backtracks"),
        "implication.self_ms": ms("core.implication"),
        "implies.patterns": per("implies.patterns"),
        "implies.chase_cache_hit_ratio": ratio(
            "hits/lookups", chase_hits, chase_hits + chase_misses),
        "implies.incremental_hits": per("implies.sweep.incremental_hits"),
        "canonical.self_ms": ms("core.canonical"),
        "chase.self_ms": ms("engine.chase"),
        "chase.facts": per_call("chase.facts"),
        **{
            f"dispatch.{what}.{backend}": per_call(f"dispatch.{what}.{backend}")
            for what in ("chase", "core") for backend in ("tuple", "columnar", "sql")
        },
        "columnar.self_ms": ms("engine.columnar"),
        "sql.self_ms": ms("engine.sql_backend"),
        "backend.sql.statements": per("backend.sql.statements"),
        **{
            f"backend.{engine}.{rows}": per(f"backend.{engine}.{rows}")
            for engine in ("sql", "columnar") for rows in ("encoded_rows", "decoded_rows")
        },
        "core.self_ms": ms("engine.core_instance"),
        "core.blocks": per("core.blocks", "core.columnar.blocks", "core.sql.blocks"),
        "core.eliminations": per(
            "core.eliminations", "core.columnar.eliminations", "core.sql.eliminations"),
        "core.fold_memo_hit_ratio": ratio("hits/lookups", memo_hits, memo_hits + memo_misses),
        "fblock.self_ms": ms("core.fblock_analysis"),
        "egd_chase.self_ms": ms("engine.egd_chase"),
        "analysis.self_ms": ms("analysis"),
        "containment.refused": per("containment.refused"),
        "parse.self_ms": ms("logic.parser"),
        "parse.calls": per_call("parse.calls"),
        "cache.get_ms": total_ms("disk_get"),
        "cache.put_ms": total_ms("disk_put"),
        "cache.disk.hit_ratio": ratio("hits/lookups", disk_hits, disk_hits + disk_misses),
        "cache.disk.read_bytes": per("cache.disk.read_bytes", unit="bytes"),
        "cache.disk.write_bytes": per("cache.disk.write_bytes", unit="bytes"),
    }
    untraced = [r["latency_s"] for r in records if not r["traced"] and r["error"] is None]
    on = [r["latency_s"] for r in traced if r["error"] is None]
    layer["trace.overhead_s"] = (
        statistics.median(on) - statistics.median(untraced), "s",
        f"traced p50 ({len(on)} requests) - untraced p50 ({len(untraced)} requests)",
    )
    return layer, self_ns


def _report(args: argparse.Namespace, records: list[dict], metrics: dict[str, float],
            setup: list[float], layer: dict | None, self_ns: dict[str, int] | None,
            probes: list[float]) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    attempted = len(records)
    answered = [r for r in records if r["error"] is None]
    failed = attempted - len(answered)
    refused = sum(r["status"] == "refused" for r in records)
    latencies = sorted(r["latency_s"] for r in answered)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} requests, {len(answered)} answered, {failed} failed, "
          f"{refused} refused")
    speed = _speed(probes)
    print(f"  speed: times x {speed:.4f} to the reference speed (median of {len(probes)} "
          f"probes {statistics.median(probes) * 1000:.2f} ms, reference "
          f"{PROBE_REF_S * 1000:.2f} ms); raw p50 {statistics.median(latencies):.6f} s")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    print(f"  latency samples: {len(latencies)} answered, "
          f"{sum(latency * speed > metrics['request_s_p90'] for latency in latencies)} above p90")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:>14.6f} {unit}")
    print(f"  {WORK_UNIT[args.workload]:<16} {metrics['work_per_s']:>14.6f} 1/s (= work_per_s)")
    for name, count in (("failed", failed), ("refused", refused)):
        print(f"  {name + '_ratio':<16} {count / attempted:>14.6f} ratio "
              f"({name} {count} / attempted {attempted})")
    errors = Counter(r["error"].split(":")[0] + " on " + r["kind"] for r in records if r["error"])
    for error, count in sorted(errors.items()):
        print(f"  failed: {count} x {error}")
    tiers = Counter(f"{r['kind']}={r['tier']}" for r in records if r["tier"] is not None)
    if tiers:
        print("  tiers: " + ", ".join(f"{k} x{v}" for k, v in sorted(tiers.items())))
    if layer is None or self_ns is None:
        return
    decisions = Counter(
        f"{d['layer']}={d['backend']} ({d['reason']})"
        for r in records for d in r.get("decisions", ())
    )
    for decision, count in sorted(decisions.items()):
        print(f"  decision: {count} x {decision}")
    total = sum(self_ns.values())
    print("  self time by layer (traced requests):")
    for name, ns in sorted(self_ns.items(), key=lambda item: -item[1]):
        print(f"    {name:<22} {ns / 1e6:>12.2f} ms  {ns / total:>7.2%}")
    for name, (value, unit, base) in layer.items():
        print(f"  {name:<32} {value:>14.6f} {unit:<6} ({base})")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(HERE))
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # SQLite (and anything using tempfile) spills into the checkout, not /tmp.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(scratch)
    bench = None
    try:
        setup_s, bench = _setup(args, scratch)
        setup_s = _scaled_setup(setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        from spans import Tracer

        tracer = Tracer() if args.trace else None
        records, mismatches, probes = _measure(bench, args, tracer)
        setup = [setup_s]
        if tracer is None:  # the traced run reports no set-up time
            setup += [_setup_sample(args) for __ in range(SETUP_SAMPLES - 1)]
        metrics = _end_to_end(records, setup, _speed(probes))
        layer, self_ns = _per_layer(records, tracer) if tracer is not None else (None, None)
        _report(args, records, metrics, setup, layer, self_ns, probes)
        for mismatch in mismatches:
            print(f"  MISMATCH: {mismatch}")
        OUT.mkdir(exist_ok=True)
        dump = {"records": records, "spans": tracer.spans if tracer is not None else []}
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(dump))
        if layer is not None:
            chosen = {name: {"value": value, "unit": unit}
                      for name, (value, unit, __) in layer.items()}
        else:
            units = dict(END_TO_END)
            chosen = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        print(json.dumps({
            "correct": not mismatches,
            "attempted": len(records),
            "failed": sum(r["error"] is not None for r in records),
            "metrics": chosen,
        }))
        return 0 if not mismatches else 1
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
