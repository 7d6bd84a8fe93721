"""Reference answers through the sweep engine.

``python perfbench/reference.py IN.json OUT.json`` (with the
program's sources on ``PYTHONPATH``) prices every ``{"point",
"budget"}`` of ``IN.json`` with :func:`repro.runner.run_grid` on two
worker processes -- the engine behind ``repro sweep`` -- grouped by
budget, and writes ``[[point, budget, answer bytes], ...]``.  The
caller sets ``REPRO_VALIDATE=1`` so the program's auditors check every
point as it is priced, and a fresh ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    from oracle import sweep_answers
    from repro.core.serialize import canonical_json, sweep_result_to_dict
    from repro.runner import GridPoint, run_grid

    wanted = json.loads(open(sys.argv[1]).read())
    groups = {}
    for entry in wanted:
        groups.setdefault(entry["budget"], []).append(
            GridPoint(**entry["point"]))
    rows = []
    for budget, points in sorted(groups.items(),
                                 key=lambda item: item[0] or 0):
        result = run_grid(points, jobs=2, budget=budget, strict=False)
        body = canonical_json({
            "ok": True, "budget": budget,
            "result": sweep_result_to_dict(result),
        })
        for (key, budget_key), answer in sweep_answers(body).items():
            point = dict(zip(
                ("executor", "model", "seq_len", "arch", "batch",
                 "causal"), key))
            rows.append([point, budget_key, answer])
    with open(sys.argv[2], "w") as out:
        json.dump(rows, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
