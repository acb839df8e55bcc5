"""BENCH_trajectory.json: every entry carries what a reader needs to compare it."""

import json
import math
import re
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"
WORKLOADS = {"infer-xxs", "train-micro", "fwdbwd-xxs"}
HASH = re.compile(r"[0-9a-f]{7,40}")


def _number_or_none(v):
    if v is None:
        return True
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def test_every_trajectory_entry_has_the_required_fields():
    entries = json.loads(TRAJECTORY.read_text())["entries"]
    assert entries
    for i, e in enumerate(entries):
        where = (i, e.get("commit"), e.get("workload"), e.get("seed"))
        assert isinstance(e["commit"], str) and len(e["commit"]) >= 7, where
        assert isinstance(e["parent"], str) and len(e["parent"]) >= 7, where
        assert e["workload"] in WORKLOADS, where
        assert isinstance(e["seed"], int) and e["seed"] >= 0, where
        assert isinstance(e["pairs"], int) and e["pairs"] >= 1, where
        assert isinstance(e["transcribed"], bool), where
        assert isinstance(e["environment"], dict) and e["environment"], where
        assert e["metrics"], where
        for name, sides in e["metrics"].items():
            for side in ("parent", "change"):
                stat = sides[side]
                assert set(stat) == {"median", "iqr"}, (where, name, side)
                assert stat["median"] is not None and _number_or_none(stat["median"]), where
                assert _number_or_none(stat["iqr"]), (where, name, side)
        if not e["transcribed"]:  # measured here: full statistics and the per-pair runs
            assert all(s[side]["iqr"] is not None for s in e["metrics"].values()
                       for side in ("parent", "change")), where
            assert len(e["per_pair"]) == e["pairs"], where


def test_trajectory_is_seeded_from_the_earlier_perf_changes():
    entries = json.loads(TRAJECTORY.read_text())["entries"]
    transcribed = {e["commit"] for e in entries if e["transcribed"]}
    assert {"85d4557", "6d9a7f9", "0264654", "f6e0866"} <= transcribed


def test_trajectory_names_commits_by_hash():
    """commit and parent are hex hashes. Only the newest change's entries may say
    child-of-<parent>: its own hash is unknown until it lands."""
    entries = json.loads(TRAJECTORY.read_text())["entries"]
    newest = entries[-1]["commit"]
    for i, e in enumerate(entries):
        assert HASH.fullmatch(e["parent"]), (i, e["parent"])
        if e["commit"] != newest or e["commit"] != f"child-of-{e['parent']}":
            assert HASH.fullmatch(e["commit"]), (i, e["commit"])
