"""One workload in one process: set up, run the closed loop, check.

run.py starts this as a child process under a wall-time cap:

    python3 bench/worker.py --workload sweep --seed 0 --seconds 20 [--trace] [--setup-only]

Set-up is the import of the program from ./src plus the corpus build.
The loop then runs the items one after another; each sweep or hard item
gets one absolute deadline, BUDGET_S after it starts, shared by all its
calls.  An item that reaches the deadline is a budget-out and costs what
it took, about BUDGET_S, whichever call it was in.  The answers are checked
after the loop.  The first stdout line is the corpus size, the last one
JSON with the results.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Speed reference: a fixed slice of the benchmark's own interpreter work,
# timed between items about every REF_EVERY_S.  Shared hosts drift by
# 10-40% within seconds, and the drift slows this slice too
# (reference_check.py measures how closely).  So the time of every item
# that finished is multiplied by REF_NOMINAL_S / the median of the slices
# taken from REF_WINDOW_S before the item starts to REF_WINDOW_S after it
# ends: seconds on a host where the slice takes REF_NOMINAL_S (a 2-core
# x86 box at 2.0 GHz with Python 3.11.7).  A budget-out lasts its
# wall-clock budget however fast the host is, so its time is kept as
# measured; scaling it would only add the slice's noise.  Set-up is
# scaled by five slices taken right after it.
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0
REF_NOMINAL_S = 0.006


def reference_slice() -> float:
    t0 = time.perf_counter()
    acc = 0
    for j in range(60000):
        acc += j * j % 7
    return time.perf_counter() - t0


class SpeedReference:
    """Reference slices taken between items, and the item spans they scale."""

    def __init__(self):
        self.at: list[float] = []  # when each slice started
        self.took: list[float] = []  # how long it took
        self.spans: list[tuple[float, float]] = []  # (start, end) of each item
        self.next = 0.0

    def sample(self, force: bool = False):
        now = time.perf_counter()
        if force or now >= self.next:
            self.at.append(now)
            self.took.append(reference_slice())
            self.next = time.perf_counter() + REF_EVERY_S

    def scales(self) -> list[float]:
        """The speed scale of each item, from the slices near it.  A slice
        starts less than REF_WINDOW_S before every item, so no window is
        empty."""
        out = []
        for t0, t1 in self.spans:
            lo = bisect.bisect_left(self.at, t0 - REF_WINDOW_S)
            hi = bisect.bisect_right(self.at, t1 + REF_WINDOW_S)
            out.append(REF_NOMINAL_S / statistics.median(self.took[lo:hi]))
        return out


def import_program():
    """Import minrank from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import minrank

    if not Path(minrank.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"minrank was imported from {minrank.__file__}, not {SRC}")
    return minrank


def run_item(workload: str, A, deadline: float | None):
    """The calls one item makes: report() for codes, else the
    evaluate_matrix record path (min_rank, then opt_exact) under the
    item's deadline."""
    import minrank

    if workload == "codes":
        return minrank.report(A)
    minrk = minrank.min_rank(A, deadline)
    opt, witness = minrank.opt_exact(A, deadline=deadline)
    return minrk, opt, witness


def run_loop(workload: str, items, budget_s: float | None, tracer=None, ref=None):
    """Closed loop over the items; returns (status, seconds, answer) each.

    status is "ok", "budget" (the deadline passed) or "error".  An "ok"
    answer is the report for codes, else (min rank, opt, witness bitmap).
    When `ref` is a SpeedReference, it samples between items and records
    each item's span.
    """
    import minrank

    clock = time.perf_counter
    outcomes = []
    for idx, item in enumerate(items):
        if ref is not None:
            ref.sample()
        if tracer is not None:
            tracer.item = idx
        t0 = clock()
        deadline = None if budget_s is None else time.monotonic() + budget_s
        try:
            answer = run_item(workload, item.A, deadline)
            status = "ok"
        except minrank.LimitError as exc:
            late = deadline is not None and time.monotonic() >= deadline
            status = "budget" if late else "error"
            answer = repr(exc)
        except Exception as exc:  # a crash is recorded, and the loop goes on
            status, answer = "error", repr(exc)
        elapsed = clock() - t0
        if status == "ok" and workload != "codes":
            # keep the witness as a bitmap, so that stored answers barely
            # add to the peak memory of the run
            minrk, opt, witness = answer
            answer = (minrk, opt, sum(1 << x for x in witness.members))
        outcomes.append((status, elapsed, answer))
        if ref is not None:
            ref.spans.append((t0, t0 + elapsed))
    if ref is not None:
        ref.sample(force=True)
    return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import_program()
    import checks
    import corpus
    from spans import Tracer, layer_metrics, percentile_ms

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    items = corpus.WORKLOADS[args.workload](args.seed, args.seconds)
    setup_s = time.perf_counter() - t0
    setup_s *= REF_NOMINAL_S / statistics.median(reference_slice() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps({"corpus": len(items)}), flush=True)

    ref = SpeedReference()
    budget_s = corpus.BUDGET_S[args.workload]
    outcomes = run_loop(args.workload, items, budget_s, tracer, ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    problems, properties, tight = checks.check_answers(
        args.workload, args.seed, items, outcomes
    )
    measured = [t for _, t, _ in outcomes]
    scales = ref.scales()
    times = [
        t if status == "budget" else t * k
        for (status, t, _), k in zip(outcomes, scales)
    ]
    budget_outs = sum(1 for status, _, _ in outcomes if status == "budget")
    p90_ms = percentile_ms(times, 90)
    if sum(1 for t in times if t * 1000 > p90_ms) < 10:
        p90_ms = None  # a percentile is reported with ten items beyond it
    result = {
        "setup_s": setup_s,
        "budget_s": budget_s,
        "wall_s": sum(times),
        "item_p50_ms": percentile_ms(times, 50),
        "item_p90_ms": p90_ms,
        "wall_s_measured": sum(measured),
        "item_p50_ms_measured": percentile_ms(measured, 50),
        "speed_scale": statistics.median(scales),
        "attempted": len(items),
        "budget_outs": budget_outs,
        "errors": sum(1 for status, _, _ in outcomes if status == "error"),
        "fail_share": budget_outs / len(items),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "properties": properties,
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = layer_metrics(tracer.spans, tight)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
