"""Output oracle, applied after timing.

Every answer the system gives is reduced to its *answer bytes*: the
canonical JSON of ``{"status", "report" | "infeasible"}`` for one
``(point, effective budget)``.  Three checks, each independent of the
path that produced the answer:

* golden points must match ``tests/golden/*.json`` byte for byte
  (re-rendered exactly as the corpus renders: indent 2, sorted keys);
* every answer for one identity must be byte-identical to every other
  answer for it within the run (repeats, re-plans, phases, passes);
* every identity must match a reference computed through a different
  path (served vs sweep engine vs CLI) with the program's auditors
  switched on (``REPRO_VALIDATE=1``).

Any failure is charged to each request that carried the identity.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Set, Tuple

from common import GOLDEN_DIR
from inputs import golden_requests, point_key

Key = Tuple[Tuple, Optional[int]]


class OracleError(ValueError):
    """An answer that is not a well-formed successful response."""


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def golden_file(request: Dict[str, Any]) -> str:
    p = request["point"]
    name = (f"{p['executor']}-{p['model']}-{p['arch']}"
            f"-p{p['seq_len']}-b{p['batch']}")
    if request.get("budget") is not None:
        name += f"-budget{request['budget']}"
    return name + ".json"


def golden_texts() -> Dict[Key, str]:
    """The frozen corpus, keyed by identity."""
    return {
        (point_key(request["point"]), request.get("budget")):
        (GOLDEN_DIR / golden_file(request)).read_text()
        for request in golden_requests()
    }


def render_golden(point: Dict[str, Any], report: Dict[str, Any],
                  budget: Optional[int]) -> str:
    document: Dict[str, Any] = {"point": point, "report": report}
    if budget is not None:
        document["budget"] = budget
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def answer_of(status: str, payload: Dict[str, Any]) -> str:
    """Answer bytes for one point outcome."""
    field = "report" if status == "ok" else "infeasible"
    return canonical({"status": status, field: payload})


def plan_answer(body: str, point: Dict[str, Any],
                request_id: Optional[str] = None) -> Tuple[Key, str]:
    """``(identity, answer bytes)`` of one ``plan`` response body."""
    try:
        document = json.loads(body)
    except ValueError as error:
        raise OracleError(f"body is not JSON: {error}") from None
    if not isinstance(document, dict) or document.get("ok") is not True:
        raise OracleError(f"not an ok response: {body[:200]}")
    if document.get("op") != "plan":
        raise OracleError(f"wrong op {document.get('op')!r}")
    if request_id is not None and document.get("id") != request_id:
        raise OracleError(
            f"id {document.get('id')!r} != {request_id!r}")
    status = document.get("status")
    if status == "ok":
        report = document.get("report")
        if not isinstance(report, dict):
            raise OracleError("ok response without a report")
        if document.get("provenance") != report.get(
                "provenance", "complete"):
            raise OracleError("provenance disagrees with the report")
        payload = report
    elif status == "infeasible":
        payload = document.get("infeasible")
    else:
        raise OracleError(f"unexpected status {status!r}")
    return (point_key(point), document.get("budget")), answer_of(
        status, payload)


def sweep_answers(body: str) -> Dict[Key, str]:
    """Answer bytes per point of one ``sweep --json`` body."""
    document = json.loads(body)
    if document.get("ok") is not True:
        raise OracleError(f"sweep failed: {body[:200]}")
    result = document["result"]
    budget = document.get("budget")
    infeasible = result.get("infeasible") or [None] * len(
        result["points"])
    answers = {}
    for index, point in enumerate(result["points"]):
        status = result["statuses"][index]
        payload = (result["reports"][index] if status == "ok"
                   else infeasible[index])
        if status in ("ok", "infeasible") and payload is not None:
            answer = answer_of(status, payload)
        else:
            # A failed point answers with its failure, which matches
            # no reference.
            answer = canonical({"status": status,
                                "failure": result["failures"][index]})
        answers[(point_key(point), budget)] = answer
    return answers


class Ledger:
    """Answers seen in one run, and the requests that failed."""

    def __init__(self) -> None:
        self.answers: Dict[Key, str] = {}
        self.points: Dict[Key, Dict[str, Any]] = {}
        self.carriers: Dict[Key, List[int]] = {}
        self.attempted = 0
        self.failed: Set[int] = set()
        self.problems: List[str] = []

    def attempt(self) -> int:
        """Register one request; returns its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, index: int, why: str) -> None:
        self.failed.add(index)
        if len(self.problems) < 20:
            self.problems.append(why)

    def fail_key(self, key: Key, why: str) -> None:
        for index in self.carriers.get(key, ()):
            self.fail(index, why)

    def record(self, index: int, key: Key, answer: str,
               point: Dict[str, Any]) -> None:
        """One answer for request ``index``; flags divergence from an
        earlier answer for the same identity."""
        self.carriers.setdefault(key, []).append(index)
        self.points.setdefault(key, point)
        first = self.answers.setdefault(key, answer)
        if answer != first:
            self.fail(index, f"answer for {key} changed within the run")

    def check_golden(self) -> int:
        """Compare golden identities; returns how many were checked."""
        checked = 0
        for key, text in golden_texts().items():
            answer = self.answers.get(key)
            if answer is None:
                continue
            checked += 1
            document = json.loads(answer)
            rendered = render_golden(
                self.points[key], document.get("report", {}), key[1])
            if rendered != text:
                self.fail_key(key, f"golden mismatch for {key}")
        return checked

    def check_reference(self, reference: Dict[Key, str]) -> None:
        for key, answer in self.answers.items():
            expected = reference.get(key)
            if expected is None:
                self.fail_key(key, f"no reference answer for {key}")
            elif expected != answer:
                self.fail_key(key, f"reference mismatch for {key}")

    @property
    def failures(self) -> int:
        return len(self.failed)
