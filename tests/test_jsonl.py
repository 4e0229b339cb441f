"""Every JSONL loader goes through one reader: bad lines end in a typed
error that names the 1-based line, never in a bare Python error."""

import json

import pytest

from sidground.cli import dispatch
from sidground.codebook import load_embedding_corpus
from sidground.dualtrack import SIDCache
from sidground.errors import RecordParseError, SidRangeError
from sidground.evaluation import load_samples
from sidground.generator import load_replay
from sidground.padr import load_histories, load_profiles
from sidground.pool import load_snapshot


def article(i, sid=(1, 2, 3, 4)):
    return {"id": f"n{i}", "title": "t", "category": "c", "tags": [],
            "published_at": 1000.0, "sid": list(sid)}


def history(i, sid=(1, 2, 3, 4)):
    return {"user_id": f"u{i}",
            "clicks": [{"article_id": "a", "sid": list(sid), "timestamp": 1.0}]}


def sample(i, sid=(1, 2, 3, 4)):
    return {"sample_id": f"s{i}", "intent": "next_item", "user_id": "u", "query": "q",
            "target": {"article_id": "a", "sid": list(sid)}, "history_len": 0}


def replay(i, sid=(1, 2, 3)):
    return {"sample_id": f"s{i}", "prefixes": [list(sid)]}


def cache_entry(i, sid=(1, 2, 3)):
    return {"ctx_hash": i, "prefixes": [list(sid)], "reason": "", "ts": 1.0, "ttl_seconds": 10}


# name -> (loader, record(i, sid=...), a required field, an id field that must be a
# JSON string, out-of-range SID, lines before)
LOADERS = {
    "raw_articles": (load_snapshot, article, "published_at", "id", (32, 0, 0, 0), []),
    "snapshot": (load_snapshot, article, "id", "id", (0, 64, 0, 0),
                 [{"snapshot_meta": {"version": 3, "as_of": 0.0}}]),
    "profiles": (load_profiles, lambda i: {"user_id": f"u{i}"}, "user_id", "user_id", None, []),
    "histories": (load_histories, history, "user_id", "user_id", (32, 0, 0, 0), []),
    "samples": (load_samples, sample, "intent", "user_id", (0, 0, 128, 0), []),
    "replay": (load_replay, replay, "prefixes", "sample_id", (32, 0, 0), []),
    "embeddings": (load_embedding_corpus, lambda i: {"id": f"x{i}", "embedding": [1.0, 2.0]},
                   "embedding", "id", None, []),
    "cache": (lambda path: SIDCache().load(path), cache_entry, "ts", None, (0, 64, 0), []),
}


def bad_line(case, name):
    _, record, field, id_field, oor, _ = LOADERS[name]
    if case == "bad_json":
        return "{oops"
    if case == "not_object":
        return "[1,2]"
    if case == "missing_field":
        rec = record(1)
        del rec[field]
        return json.dumps(rec)
    if case == "null_id":      # str() would load it as the id 'None'
        return json.dumps({**record(1), id_field: None})
    return json.dumps(record(1, sid=oor))


CASES = [
    (name, case)
    for name, (_, _, _, id_field, oor, _) in LOADERS.items()
    for case in ("bad_json", "not_object", "missing_field", "null_id", "out_of_range_sid")
    if not (case == "null_id" and id_field is None or case == "out_of_range_sid" and oor is None)
]


@pytest.mark.parametrize("name,case", CASES)
def test_bad_line_raises_typed_error_naming_line(tmp_path, name, case):
    load, record, _, _, _, before = LOADERS[name]
    lines = [json.dumps(r) for r in before] + [json.dumps(record(0)), "", bad_line(case, name)]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n")
    expected = SidRangeError if case == "out_of_range_sid" else RecordParseError
    with pytest.raises(expected) as exc:
        load(path)
    assert f"line {len(lines)}:" in str(exc.value)


@pytest.mark.parametrize("name", list(LOADERS))
def test_blank_lines_skipped(tmp_path, name):
    load, record, _, _, _, before = LOADERS[name]
    lines = [json.dumps(r) for r in before] + ["", json.dumps(record(0)), "   ", ""]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n")
    load(path)


def test_cli_non_object_line_exits_2(tmp_path, capsys):
    path = tmp_path / "pool.jsonl"
    path.write_text(json.dumps(article(0)) + "\n[1,2]\n")
    code = dispatch(["pool", "ingest", "--in", str(path), "--out", str(tmp_path / "snap.jsonl")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


# int() would coerce 2.7, true and "3"; a negative length would cut clicks
# off the end of the user's history.
@pytest.mark.parametrize("history_len", [2.7, True, "3", -2])
def test_bad_history_len_names_line(tmp_path, history_len):
    path = tmp_path / "samples.jsonl"
    path.write_text(json.dumps(sample(0)) + "\n"
                    + json.dumps({**sample(1), "history_len": history_len}) + "\n")
    with pytest.raises(RecordParseError, match="line 2: .*history_len"):
        load_samples(path)


# tuple() would split "sports" into letters, and str() would load a null
# category as 'None'; a number among the interests would only fail later,
# when the user's context is rendered.
@pytest.mark.parametrize("field,value", [
    ("declared_interests", "sports"),
    ("declared_interests", [None, 5]),
    ("longterm_prefs_30d", [[None, 0.5]]),
    ("longterm_prefs_7d", [[5, 0.5]]),
])
def test_bad_profile_categories_name_line(tmp_path, field, value):
    path = tmp_path / "profiles.jsonl"
    path.write_text(json.dumps({"user_id": "u0", "declared_interests": ["sports"]}) + "\n"
                    + json.dumps({"user_id": "u1", field: value}) + "\n")
    with pytest.raises(RecordParseError, match=f"line 2: .*{field}"):
        load_profiles(path)


# str() would load a null as 'None', which the user's rendered context and
# its hash then carry; int() would load active hours [2.7, true] as (2, 1);
# float() would take true and "3".
@pytest.mark.parametrize("group,field,value", [
    ("demographics", "age_range", None),
    ("demographics", "gender", 1),
    ("demographics", "location", None),
    ("activity", "engagement_level", None),
    ("activity", "active_hours", [2.7]),
    ("activity", "active_hours", [True]),
    ("activity", "active_hours", ["3"]),
    ("activity", "daily_duration_minutes", "3"),
    ("activity", "daily_duration_minutes", True),
    ("format_affinity", "video", "0.5"),
    ("format_affinity", "text", False),
    (None, "longterm_prefs_30d", [["sports", "0.5"]]),
    (None, "longterm_prefs_7d", [["sports", True]]),
])
def test_bad_profile_fields_name_line(tmp_path, group, field, value):
    good = {"user_id": "u0", "demographics": {"age_range": "25-34"},
            "activity": {"active_hours": [7, 21], "daily_duration_minutes": 30},
            "format_affinity": {"video": 1, "text": 0.5},
            "longterm_prefs_30d": [["sports", 1]]}
    bad = {"user_id": "u1", **({group: {field: value}} if group else {field: value})}
    path = tmp_path / "profiles.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(RecordParseError, match=f"line 2: .*{field}"):
        load_profiles(path)


def test_profile_numbers_load_as_floats(tmp_path):
    path = tmp_path / "profiles.jsonl"
    path.write_text(json.dumps({"user_id": "u0", "activity": {"daily_duration_minutes": 30},
                                "format_affinity": {"video": 1},
                                "longterm_prefs_7d": [["sports", 2]]}) + "\n")
    profile = load_profiles(path)["u0"]
    assert profile.daily_duration_minutes == 30.0 and type(profile.daily_duration_minutes) is float
    assert type(profile.video_affinity) is float
    assert profile.longterm_prefs_7d == (("sports", 2.0),)
    assert type(profile.longterm_prefs_7d[0][1]) is float


# int() would truncate 2.7 and take true; str() would load a null reason
# as 'None'.
@pytest.mark.parametrize("field,value", [
    ("ctx_hash", 2.7), ("ctx_hash", True), ("ctx_hash", "5"),
    ("ts", True), ("ts", "1.0"),
    ("ttl_seconds", 9.9), ("ttl_seconds", False),
    ("reason", None),
])
def test_bad_cache_record_field_names_line(tmp_path, field, value):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({**cache_entry(0), "ts": 1}) + "\n"
                    + json.dumps({**cache_entry(1), field: value}) + "\n")
    with pytest.raises(RecordParseError, match=f"line 2: .*{field}"):
        SIDCache().load(path)
