"""One repetition of a workload, in a fresh process started by bench/run.py.

    python3 worker.py '{"workload": ..., "seed": ..., "trace": null,
                        "fault": false, "limit": null, "spawned_at": ...}'

`trace` is null, "spans" (time the layers, see tracer.py) or "counters"
(count the `exact` calls only).

`spawned_at` is time.monotonic() in the parent just before it started
this process; the clock is system-wide, so setup_s spans the interpreter
start, `import flexk3` and making the inputs.  The benchmark's own modules
load only after `import flexk3`, and the time they take is left out of
setup_s (it is kept under "raw" as harness_import_s).  Items are issued one at a
time, and each answer is checked before the next item is issued.  An
item's latency covers only its call; the check runs outside it.  Times
are scaled to reference seconds by the calibration kernel (speed.py),
run throughout the repetition; the unscaled times are kept under "raw".
The last stdout line is one JSON object with the repetition's results.

    python3 worker.py --self-test

checks the tracer's self-time arithmetic and its patching instead, and
prints {"errors": [...]}.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FAULT_INDEX = 1  # the item whose answer a fault-injection run corrupts
# The calibration kernel runs before the first item, after the last, and
# each time the items since its last run took CHUNK_S, so that its median
# follows the machine's speed over the whole repetition.
CHUNK_S = 0.1


def import_package():
    """Import flexk3 and its cli, refusing any copy other than ../src/flexk3."""
    import flexk3
    from flexk3 import cli

    want = os.path.realpath(os.path.join(os.path.dirname(HERE), "src", "flexk3"))
    got = os.path.realpath(os.path.dirname(flexk3.__file__))
    if got != want:
        raise SystemExit(f"imported flexk3 from {got}, expected {want}")
    return flexk3, cli


def run(arg: str) -> dict:
    flexk3, cli = import_package()
    imported = time.monotonic()
    import json
    import resource

    import speed
    import tracer as tracing
    import workloads

    cfg = json.loads(arg)
    harness_loaded = time.monotonic()
    items = workloads.make_items(cfg["workload"], cfg["seed"])[: cfg["limit"]]
    ready = time.monotonic()
    refs = workloads.References()
    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracer.install(flexk3, spans=cfg["trace"] == "spans", counters=cfg["trace"] == "counters")
        tracer.measure_leak()
    calibration = speed.sample()
    latencies, failures = [], []
    in_chunk = 0.0
    for index, item in enumerate(items):
        failure = None
        start = time.perf_counter()
        try:
            answer = workloads.execute(item, flexk3, cli)
        except Exception as exc:  # a raising item is a failed item
            failure = f"{item}: raised {exc!r}"
        latencies.append(time.perf_counter() - start)
        in_chunk += latencies[-1]
        if in_chunk >= CHUNK_S:
            calibration += speed.sample(speed.CHUNK_SAMPLES)
            in_chunk = 0.0
        if failure is None:
            if cfg["fault"] and index == FAULT_INDEX:
                answer = workloads.corrupt(answer)
            try:
                workloads.check(item, answer, refs)
            except Exception as exc:  # a malformed answer is a wrong answer
                failure = f"{item}: {exc}"
        if failure is not None:
            failures.append(failure)
    calibration += speed.sample()
    scale = speed.scale(calibration)
    raw = {
        "setup_s": (imported - cfg["spawned_at"]) + (ready - harness_loaded),
        "harness_import_s": harness_loaded - imported,
        "wall_s": sum(latencies),
        "item_ms": [1000 * t for t in latencies],
    }
    result = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "item_ms": [t * scale for t in raw["item_ms"]],
        "raw": raw,
        "attempted": len(items),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {
            name: value * scale if name.endswith("_s") else value
            for name, value in tracer.layer_metrics().items()
        }
    return result


def self_test() -> list[str]:
    """Errors found in the tracer's arithmetic and coverage; empty when sound."""
    import tracer as tracing
    import workloads

    errors = []

    # Self time on nested spans, against a clock that only moves when told.
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap("leaf", lambda: advance(2))
    mid = tracer.wrap("mid", lambda: (advance(1), leaf(), advance(3)))
    tick = tracer.count("tick", lambda: advance(2))  # counted, not a span
    top = tracer.wrap("top", lambda: (advance(5), mid(), leaf(), tick(), advance(1)))

    def raising():
        advance(4)
        raise KeyError("expected")

    boom = tracer.wrap("boom", raising)

    def guarded():
        advance(1)
        try:
            boom()
        except KeyError:
            pass

    tracer.wrap("outer", guarded)()
    top()
    want = {  # name: (calls, total, self)
        "leaf": (2, 4.0, 4.0),
        "mid": (1, 6.0, 4.0),
        "top": (1, 16.0, 8.0),
        "tick": (1, 0.0, 0.0),
        "boom": (1, 4.0, 4.0),
        "outer": (1, 5.0, 1.0),
    }
    for name, expected in want.items():
        got = (tracer.calls[name], tracer.total_s[name], tracer.self_time(name))
        if got != expected:
            errors.append(f"span {name}: (calls, total, self) = {got}, expected {expected}")
    # Each direct child span takes leak_s off its parent's self time.
    tracer.leak_s = 0.5
    want_self = {"leaf": 4.0, "mid": 3.5, "top": 7.0, "boom": 4.0, "outer": 0.5}
    for name, expected in want_self.items():
        if tracer.self_time(name) != expected:
            errors.append(f"span {name}: self time {tracer.self_time(name)} at leak 0.5, expected {expected}")

    # Every name bound to a patched function, in every module, is the wrapper.
    flexk3, cli = import_package()
    tracer = tracing.Tracer()
    tracer.install(flexk3)
    replaced = tracer.originals()
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "flexk3" or mod_name.startswith("flexk3."):
            for attr, obj in vars(mod).items():
                if id(obj) in replaced:
                    errors.append(f"{mod_name}.{attr} escapes the trace")
    from flexk3 import flexdeg, qseries

    # Calls through names that flexdeg, qseries and cli took with `from ... import`.
    def nd_cli():
        return workloads.run_cli_inprocess(cli.main, ["nd", "-d", "3"])

    probes = (
        ("flexdeg -> exact.catalan", lambda: flexdeg.nd_closed(3), "exact.catalan"),
        ("flexdeg -> truncpoly.chern_total", lambda: flexdeg.nd_chern_monomial(3), "truncpoly.chern_total"),
        (
            "flexdeg -> schubert.monomial_integral",
            lambda: flexdeg.nd_chern_monomial(3),
            "schubert.monomial_integral",
        ),
        ("qseries -> flexdeg.nd_closed", lambda: qseries.asym_flex(3), "flexdeg.nd_closed"),
        ("qseries -> exact.binomial", lambda: qseries.euler_power_neg24_by_product(3), "exact.binomial"),
        ("cli -> cli.main", nd_cli, "cli.main"),
        ("cli -> flexdeg.flex_report", nd_cli, "flexdeg.flex_report"),
        (
            "cli -> schubert.monomial_integral",
            lambda: cli.monomial_integral(2, 0, 1),
            "schubert.monomial_integral",
        ),
        ("package -> qseries.yz_multiple", lambda: flexk3.yz_multiple(3), "qseries.yz_multiple"),
    )
    for label, call, span in probes:
        before = tracer.calls[span]
        call()
        if tracer.calls[span] == before:
            errors.append(f"{label}: the call was not traced")
    if tracer.open_spans:
        errors.append("a span was left open")
    tracer.uninstall()
    if any(id(obj) not in replaced for obj in (flexdeg.nd_closed, qseries.nd_closed, cli.main)):
        errors.append("uninstall did not restore the original functions")
    return errors


def main() -> int:
    result = {"errors": self_test()} if sys.argv[1:] == ["--self-test"] else run(sys.argv[1])
    import json

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
