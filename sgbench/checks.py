"""Output checks. Every failed check counts as a failed operation.

Serving: a reply is 200, holds exactly k articles, every article id
exists in the snapshot of the reply's pool_version (the grounding
invariant), and served_from is one of the known cascade levels.

Offline: every confidence interval contains its point estimate, the
sample counts agree with the input, Hit@1 evaluated every
candidate-selection sample, and every SID is inside the layer sizes.
"""

from __future__ import annotations

import hashlib
import json

from .layers import SERVED_LEVELS

# Failure kinds, counted separately in the result record.
GROUNDING = "grounding"


def check_reply(status: int, body: bytes, k: int,
                snapshots: dict[int, frozenset[str]]) -> tuple[str | None, str | None]:
    """(failure kind or None, served_from or None) for one /recommend reply."""
    if status != 200:
        return f"status_{status}", None
    try:
        doc = json.loads(body)
    except ValueError:
        return "bad_json", None
    if not isinstance(doc, dict) or not isinstance(doc.get("articles"), list):
        return "bad_shape", None
    served_from = doc.get("served_from")
    if served_from not in SERVED_LEVELS:
        return "unknown_served_from", None
    articles = doc["articles"]
    if len(articles) != k:
        return "wrong_count", served_from
    ids = snapshots.get(doc.get("pool_version"))
    if ids is None:
        return "unknown_pool_version", served_from
    if any(not isinstance(a, dict) or a.get("article_id") not in ids for a in articles):
        return GROUNDING, served_from
    return None, served_from


def _ci_holds(point: float, lo: float, hi: float) -> bool:
    return lo <= point <= hi


def check_report(record: dict, n_samples: int, n_open: int, n_candidate: int) -> list[str]:
    """Violated report invariants of one run_eval result (empty when it holds)."""
    bad = []
    if record["n_samples"] != n_samples:
        bad.append(f"n_samples {record['n_samples']} != {n_samples}")
    if sum(record["intent_counts"].values()) != n_samples:
        bad.append("intent_counts do not sum to n_samples")
    for key, m in record["open_generation"].items():
        if not _ci_holds(m["point"], m["ci_lo"], m["ci_hi"]):
            bad.append(f"{key} CI excludes its point")
        if m["n"] != n_open:
            bad.append(f"{key} n {m['n']} != {n_open}")
    for mode, h in record["hit_at_1"].items():
        if n_candidate == 0:
            continue
        if h is None or h["n_evaluated"] != n_candidate:
            bad.append(f"hit_at_1.{mode} did not evaluate {n_candidate} samples")
        elif not _ci_holds(h["rate"], h["ci_lo"], h["ci_hi"]):
            bad.append(f"hit_at_1.{mode} CI excludes its point")
    for row in record["per_task"]:
        if not _ci_holds(row["value"], row["ci_lo"], row["ci_hi"]):
            bad.append(f"per_task {row['task']} CI excludes its point")
    return bad


def check_sids(sids, n_vectors: int, layer_sizes) -> list[str]:
    if len(sids) != n_vectors:
        return [f"assigned {len(sids)} SIDs for {n_vectors} vectors"]
    for sid in sids:
        if any(not (0 <= v < size) for v, size in zip(sid, layer_sizes)):
            return [f"SID {tuple(sid)} outside layer sizes {tuple(layer_sizes)}"]
    return []


def digest(obj) -> str:
    """sha256 of the canonical JSON form, for bit-for-bit comparison."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()
