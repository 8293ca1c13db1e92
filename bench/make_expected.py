"""Regenerate expected/sweep-seed0.jsonl, the committed sweep answers.

    python3 bench/make_expected.py

For every item of the default-seed sweep corpus at the benchmark's
run_seconds whose budgeted record path finishes within BUDGET_S seconds,
writes the line the library's own evaluate_matrix gives for it, in
corpus order.  Items that do not finish are left out; the benchmark
compares the rest byte for byte.
"""

from __future__ import annotations

import time

from run import RUN_SECONDS
from worker import import_program, run_loop

BUDGET_S = 5.0


def main() -> None:
    minrank = import_program()
    import checks
    import corpus

    items = corpus.sweep(checks.DEFAULT_SEED, RUN_SECONDS)
    cfg = minrank.ToolConfig(seed=checks.DEFAULT_SEED)
    t0 = time.perf_counter()
    lines = [
        minrank.evaluate_matrix(item.A, cfg).to_json()
        for item, (status, _, _) in zip(items, run_loop("sweep", items, BUDGET_S))
        if status == "ok"
    ]
    checks.EXPECTED_SWEEP.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} of {len(items)} records in {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
