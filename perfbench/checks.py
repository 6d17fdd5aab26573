"""Output checks: result digests, recorded values and the failed-op ledger.

Every op of a pass (a grid cell, a fuzz scheduler run, a fleet session, the
fleet result itself) is reduced to a short digest of its ``to_dict()``
payload.  :class:`OpLedger` counts an op as failed when

* its digest differs from the value recorded for this workload's input
  seed in ``perfbench/expected.json``, or a full-size run finds no
  recording to compare with;
* its digest or its engine counters differ from the first pass of the same
  run (the determinism guard; a traced pass is compared with the untraced
  passes, so wrapping must not perturb results);
* its oracle reported a violation, or the op raised.

``python3 perfbench/record.py`` rewrites ``expected.json``; nothing else
writes it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Hex digits kept per op digest in ``expected.json``.
DIGEST_CHARS = 8


def digest(payload: object) -> str:
    """Short stable digest of a JSON-serializable payload (order-sensitive)."""
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


@dataclass(frozen=True)
class Op:
    """One checked unit of work.

    Attributes:
        key: stable name of the op within the workload.
        digest: digest of the op's ``to_dict()`` (``None`` if it produced
            no result).
        counters: deterministic engine counters (``None`` for results read
            back from the store, which do not carry them).
        problem: oracle violation or error text; empty when clean.
    """

    key: str
    digest: Optional[str]
    counters: Optional[Mapping[str, int]] = None
    problem: str = ""


def op_sequence(ops: Sequence[Op]) -> dict:
    """The recorded form of a pass's ops: key-order hash + digests."""
    keys = [op.key for op in ops]
    return {"keys": digest(keys), "digests": "".join(op.digest or "-" * DIGEST_CHARS for op in ops)}


def load_expected(workload: str, input_seed: int) -> Optional[dict]:
    """The recorded op sequence for a workload and input seed, if any."""
    if not EXPECTED_PATH.is_file():
        return None
    payload = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return payload.get("workloads", {}).get(workload, {}).get(str(input_seed))


@dataclass
class OpLedger:
    """Counts attempted and failed ops across every pass of one run.

    ``expected`` is the recorded op sequence; with ``required`` set, a
    missing recording fails every op instead of skipping the comparison.
    """

    expected: Optional[dict] = None
    required: bool = False
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _reference: dict[str, tuple[Optional[str], Optional[Mapping[str, int]]]] = field(
        default_factory=dict
    )

    def _fail(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {reason}")

    def check(self, ops: Sequence[Op]) -> None:
        """Check the ops of one pass."""
        expected_digests: Optional[list[str]] = None
        if self.expected is None and self.required:
            expected_digests = []  # nothing recorded to compare with
        elif self.expected is not None:
            sequence = op_sequence(ops)
            if sequence["keys"] == self.expected["keys"]:
                text = self.expected["digests"]
                expected_digests = [
                    text[i:i + DIGEST_CHARS] for i in range(0, len(text), DIGEST_CHARS)
                ]
            else:
                expected_digests = []  # the op set itself changed
        for index, op in enumerate(ops):
            self.attempted += 1
            reasons = []
            if op.problem:
                reasons.append(op.problem)
            if op.digest is None:
                reasons.append("no result")
            if expected_digests is not None:
                want = expected_digests[index] if index < len(expected_digests) else None
                if want is None:
                    reasons.append("no recorded digest")
                elif want != op.digest:
                    reasons.append(f"digest {op.digest} != recorded {want}")
            reference = self._reference.get(op.key)
            if reference is None:
                self._reference[op.key] = (op.digest, op.counters)
            else:
                if reference[0] != op.digest:
                    reasons.append(f"digest {op.digest} != earlier pass {reference[0]}")
                if op.counters is not None:
                    if reference[1] is None:
                        self._reference[op.key] = (reference[0], op.counters)
                    elif dict(reference[1]) != dict(op.counters):
                        reasons.append("engine counters differ from an earlier pass")
            if reasons:
                self._fail(op.key, "; ".join(reasons))

    def fail_pass(self, count: int, error: str) -> None:
        """Count every op of a pass that raised as failed."""
        for _ in range(max(count, 1)):
            self.attempted += 1
            self._fail("pass", error)

    @property
    def error_rate(self) -> float:
        """Failed ops over attempted ops."""
        return self.failed / self.attempted if self.attempted else 0.0
