"""Every JSONL loader goes through one reader: bad lines end in a typed
error that names the 1-based line, never in a bare Python error."""

import argparse
import ast
import copy
import dataclasses
import gc
import json
import weakref
from pathlib import Path

import pytest

from sidground import cli
from sidground.cli import dispatch
from sidground.codebook import load_codebook, load_embedding_corpus
from sidground.config import Config, load_config_file
from sidground.dualtrack import SIDCache
from sidground.errors import RecordParseError, SidgroundError, SidRangeError
from sidground.fixture import FixtureSpec
from sidground.evaluation import load_samples
from sidground.generator import load_replay
from sidground.jsonl import iter_jsonl
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


# Numbers beyond the float range. JSON decodes the literal 1e400 to inf,
# which json.dumps cannot write: _dumps writes OVERFLOW as that literal.
# float() overflows on HUGE, a 401-digit integer.
OVERFLOW = "<the literal 1e400>"
HUGE = 10**400


def _dumps(value) -> str:
    return json.dumps(value).replace(json.dumps(OVERFLOW), "1e400")


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


# json.loads reads NaN, Infinity and -Infinity, which JSON does not have, as
# floats: an article published at NaN or Infinity loaded (one at -Infinity
# failed only the > 0 check), and so did a cache entry stamped NaN.
@pytest.mark.parametrize("name,field,value", [
    ("raw_articles", "published_at", float("nan")),
    ("raw_articles", "published_at", float("inf")),
    ("raw_articles", "published_at", float("-inf")),
    ("cache", "ts", float("nan")),
])
def test_non_finite_constant_names_line(tmp_path, name, field, value):
    load, record, *_ = LOADERS[name]
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(record(0)) + "\n" + json.dumps({**record(1), field: value}) + "\n")
    with pytest.raises(RecordParseError,
                       match=r"^line 2: bad JSON: -?(NaN|Infinity) is not a JSON number"):
        load(path)


def test_non_finite_config_value_names_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lam": float("nan")}))
    with pytest.raises(RecordParseError) as exc:
        load_config_file(path)
    assert str(exc.value) == f"{path}: bad JSON: NaN is not a JSON number"


@pytest.mark.parametrize("published_at", [OVERFLOW, HUGE], ids=["1e400", "10**400"])
def test_cli_number_beyond_float_range_exits_2(tmp_path, capsys, published_at):
    # 1e400 loaded as inf; float() raised a bare OverflowError on the integer.
    path = tmp_path / "pool.jsonl"
    path.write_text(json.dumps(article(0)) + "\n"
                    + _dumps({**article(1), "published_at": published_at}) + "\n")
    code = dispatch(["pool", "ingest", "--in", str(path), "--out", str(tmp_path / "snap.jsonl")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("sidground: error: line 2:") and "published_at" in err


def test_cli_embedding_that_is_not_a_list_exits_2(tmp_path, capsys):
    # np.asarray would fail on it with a bare ValueError and a traceback.
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps({"id": "x", "embedding": "ab"}) + "\n")
    code = dispatch(["codebook", "train", "--corpus", str(path), "--out", str(tmp_path / "b.json")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("sidground: error: line 1:") and "embedding" in err


# -- One type policy: every typed field of every loader, each wrong JSON type ----
#
# FIELD_LOADERS holds, for every function in src/sidground that reads JSON
# through jsonl.py (the guard below finds them), a document that loads and
# a call that loads it from a path. A JSONL document is a list of records,
# one per line, and a field's path starts with its 0-based line; a
# one-document file's errors name the file instead of a line.

def _gen_run(path):
    args = argparse.Namespace(pool=None, context=str(path), generator="histpop")
    return cli._cmd_gen(args, Config())


CLICK = {"article_id": "a", "sid": [1, 2, 3, 4], "timestamp": 1.0, "dwell_seconds": 5.0,
         "title": "t", "category": "c"}
PROFILE = {"user_id": "u1", "demographics": {"age_range": "25-34", "gender": "f",
                                               "location": "x"},
           "declared_interests": ["sports"], "longterm_prefs_30d": [["sports", 1]],
           "longterm_prefs_7d": [["sports", 0.5]],
           "activity": {"active_hours": [7, 21], "daily_duration_minutes": 30,
                        "engagement_level": "high"},
           "format_affinity": {"video": 1, "text": 0.5}}
CODEBOOK = {"format": "sidground-codebook", "format_version": 1, "dim": 2,
            "layer_sizes": [1, 1, 1, 1], "seed": 0, "trained_on": "abc",
            "layers": [[[0.0, 1.0]]] * 4}
SIZES = [32, 64, 128, 1024]


def _defaults(cls) -> dict:
    """Every field of a settings dataclass at its default, as JSON writes it."""
    return json.loads(json.dumps(dataclasses.asdict(cls())))


# qualified name -> (load(path), the document that loads)
FIELD_LOADERS = {
    "pool.load_snapshot": (load_snapshot, [
        {"snapshot_meta": {"version": 3, "as_of": 1.0, "layer_sizes": SIZES}},
        article(0), {**article(1), "tags": ["x"]}]),
    "padr.load_profiles": (load_profiles, [{"user_id": "u0"}, PROFILE]),
    "padr.load_histories": (load_histories, [history(0), {"user_id": "u1", "clicks": [CLICK]}]),
    "evaluation.load_samples": (load_samples, [
        sample(0), {**sample(1), "intent": "candidate_selection",
                    "candidates": ["a", "b", "c", "d", "e"]}]),
    "generator.load_replay": (load_replay, [replay(0), {**replay(1), "reason": "r"}]),
    "dualtrack.SIDCache.load": (lambda path: SIDCache().load(path),
                                [{**cache_entry(0), "ts": 1}, cache_entry(1)]),
    "codebook.load_embedding_corpus": (load_embedding_corpus, [
        {"id": "x0", "embedding": [1.0, 2.0]}, {"id": "x1", "embedding": [3.0, 4]}]),
    "codebook.load_codebook": (load_codebook, CODEBOOK),
    "config.load_config_file": (load_config_file, _defaults(Config)),
    "fixture.FixtureSpec.from_file": (FixtureSpec.from_file, _defaults(FixtureSpec)),
    "cli._cmd_gen": (_gen_run, {"profile": PROFILE, "clicks": [CLICK], "query": "q",
                                "sample_id": "s1", "tau": 5}),
}

PROFILE_FIELDS = [
    (("user_id",), "str"), (("demographics",), "obj"),
    (("demographics", "age_range"), "str"), (("demographics", "gender"), "str"),
    (("demographics", "location"), "str"), (("declared_interests",), "strs"),
    (("longterm_prefs_30d",), "list"), (("longterm_prefs_30d", 0, 0), "str"),
    (("longterm_prefs_30d", 0, 1), "num"), (("longterm_prefs_7d",), "list"),
    (("longterm_prefs_7d", 0, 0), "str"), (("longterm_prefs_7d", 0, 1), "num"),
    (("activity",), "obj"), (("activity", "active_hours"), "list"),
    (("activity", "active_hours", 0), "int"), (("activity", "daily_duration_minutes"), "num"),
    (("activity", "engagement_level"), "str"), (("format_affinity",), "obj"),
    (("format_affinity", "video"), "num"), (("format_affinity", "text"), "num"),
]
CLICK_FIELDS = [((), "obj"), (("article_id",), "str"), (("sid",), "sid"),
                (("timestamp",), "num"), (("dwell_seconds",), "num"), (("title",), "str"),
                (("category",), "str")]


def _top_fields(name):
    """Each key of a flat settings document, with the kind of its value."""
    kinds = {int: "int", float: "num", bool: "bool", str: "str", list: "sizes", dict: "obj"}
    return [((key,), kinds[type(value)]) for key, value in FIELD_LOADERS[name][1].items()]


# qualified loader name -> [(path to the field, its JSON kind)]
FIELDS = {
    "pool.load_snapshot": [
        ((0, "snapshot_meta"), "obj"), ((0, "snapshot_meta", "version"), "int"),
        ((0, "snapshot_meta", "as_of"), "num"), ((0, "snapshot_meta", "layer_sizes"), "sizes"),
        *(((2, key), kind) for key, kind in [("id", "str"), ("title", "str"),
                                             ("category", "str"), ("tags", "strs"),
                                             ("published_at", "num"), ("sid", "sid")])],
    "padr.load_profiles": [((1, *path), kind) for path, kind in PROFILE_FIELDS],
    "padr.load_histories": [((1, "user_id"), "str"), ((1, "clicks"), "list"),
                            *(((1, "clicks", 0, *path), kind) for path, kind in CLICK_FIELDS)],
    "evaluation.load_samples": [
        ((1, key), kind) for key, kind in [
            ("sample_id", "str"), ("intent", "str"), ("user_id", "str"), ("query", "str"),
            ("target", "obj"), ("history_len", "int"), ("candidates", "strs")]
    ] + [((1, "target", "article_id"), "str"), ((1, "target", "sid"), "sid")],
    "generator.load_replay": [((1, "sample_id"), "str"), ((1, "prefixes"), "list"),
                              ((1, "prefixes", 0), "sid"), ((1, "reason"), "str")],
    "dualtrack.SIDCache.load": [
        ((1, key), kind) for key, kind in [
            ("ctx_hash", "int"), ("prefixes", "list"), ("reason", "str"), ("ts", "num"),
            ("ttl_seconds", "int")]
    ] + [((1, "prefixes", 0), "sid")],
    "codebook.load_embedding_corpus": [((1, "id"), "str"), ((1, "embedding"), "nums")],
    "codebook.load_codebook": [
        (("format",), "str"), (("format_version",), "int"), (("dim",), "int"),
        (("layer_sizes",), "sizes"), (("seed",), "int"), (("trained_on",), "str"),
        (("layers",), "list"), (("layers", 0, 0), "nums")],
    "config.load_config_file": _top_fields("config.load_config_file"),
    "fixture.FixtureSpec.from_file": _top_fields("fixture.FixtureSpec.from_file"),
    "cli._cmd_gen": [
        (("profile",), "obj"), *((("profile", *path), kind) for path, kind in PROFILE_FIELDS),
        (("clicks",), "list"), *((("clicks", 0, *path), kind) for path, kind in CLICK_FIELDS),
        (("query",), "str"), (("sample_id",), "str"), (("tau",), "int")],
}


def _wrong_values(kind, good) -> list:
    """Values of the wrong JSON type for a field of `kind` that holds `good`:
    null, a bool, a float for an integer, a numeric string for a number, a
    number for a string, a string or an object for a list, and a number
    beyond the float range where a number belongs."""
    if kind == "sid":
        return [None, "abc", [float(good[0]), *good[1:]], [True, *good[1:]],
                [str(good[0]), *good[1:]]]
    return {
        "str": [None, True, 7, 2.5],
        "int": [None, True, 2.7, "3"],
        "num": [None, True, "3", OVERFLOW, HUGE, -HUGE],
        "bool": [None, 1, "true"],
        "strs": [None, "abc", [7], ["x", None]],
        "nums": [None, "ab", [True, 0.5], [1, "2"], [1.0, OVERFLOW], [-HUGE, 0.5]],
        "sizes": [None, "abcd", [32.9, 64, 128, True], [32, 64, 128, "1024"],
                  [32, 64, 128, 1024.0], [32, 64, 128]],
        "list": [None, "abc", {}],
        "obj": [None, "abc", [1]],
    }[kind]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _rows():
    for name, fields in FIELDS.items():
        doc = FIELD_LOADERS[name][1]
        for path, kind in fields:
            for value in _wrong_values(kind, _at(doc, path)):
                label = _dumps(value).replace(str(HUGE), "10**400")
                yield pytest.param(name, path, kind, value,
                                   id=f"{name}:{'.'.join(map(str, path))}={label}")


def _write(tmp_path, doc):
    path = tmp_path / "in.json"
    if isinstance(doc, list):
        path.write_text("".join(_dumps(rec) + "\n" for rec in doc))
    else:
        path.write_text(_dumps(doc))
    return path


@pytest.mark.parametrize("name", list(FIELD_LOADERS))
def test_field_table_documents_load(tmp_path, name):
    load, doc = FIELD_LOADERS[name]
    load(_write(tmp_path, doc))


@pytest.mark.parametrize("name,path,kind,value", list(_rows()))
def test_wrong_json_type_is_a_typed_error(tmp_path, name, path, kind, value):
    load, doc = FIELD_LOADERS[name]
    doc = copy.deepcopy(doc)
    *parents, key = path
    _at(doc, parents)[key] = value
    file = _write(tmp_path, doc)
    with pytest.raises(SidgroundError) as exc:
        load(file)
    where = f"line {path[0] + 1}:" if isinstance(doc, list) else f"{file}:"
    assert str(exc.value).startswith(where), str(exc.value)
    if isinstance(doc, list) and kind != "sid":
        assert type(exc.value) is RecordParseError
    if kind in ("str", "int", "num", "bool", "strs", "sizes", "list", "obj"):
        assert [k for k in path if isinstance(k, str)][-1] in str(exc.value)


# -- Guard: the table covers every JSON reader, and no record parser coerces ----

SRC = Path(cli.__file__).parent
COERCIONS = {"str", "int", "float"}


def _calls(node):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)]


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


READERS = ("iter_jsonl", "read_keyed", "read_json")


def _json_readers():
    """{qualified name of each function in src/sidground, outside jsonl.py,
    that calls one of READERS: the record parsers it hands them}. A parser
    is the reader's second argument or, for a lambda, each function the
    lambda calls; a name resolves to a function nested in the reader
    first, then to any function of the package."""
    modules = {file.stem: ast.parse(file.read_text(encoding="utf-8"))
               for file in sorted(SRC.glob("*.py"))}
    defs = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, node)
    readers = {}
    for stem, tree in modules.items():
        if stem == "jsonl":
            continue
        funcs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        funcs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, ast.FunctionDef)]
        for qualname, func in funcs:
            nested = {n.name: n for n in ast.walk(func)
                      if isinstance(n, ast.FunctionDef) and n is not func}
            for call in _calls(func):
                if _called_name(call) in READERS:
                    parser = call.args[1]
                    names = ([_called_name(c) for c in _calls(parser.body)]
                             if isinstance(parser, ast.Lambda)
                             else [getattr(parser, "id", getattr(parser, "attr", None))])
                    readers.setdefault(f"{stem}.{qualname}", []).extend(
                        nested.get(n) or defs[n] for n in names if n in nested or n in defs)
    return readers


def test_field_table_covers_every_json_reader():
    readers = _json_readers()
    assert len(readers) >= 10
    assert set(readers) == set(FIELD_LOADERS) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(_json_readers()))
def test_record_parsers_do_not_coerce(name):
    parsers = _json_readers()[name]
    assert parsers, f"{name}: no record parser found"
    coercions = [f"{func.name} line {call.lineno}: {call.func.id}()"
                 for func in parsers for call in _calls(func)
                 if isinstance(call.func, ast.Name) and call.func.id in COERCIONS]
    assert not coercions


# -- A JSONL read pauses the cyclic collector and freezes what it loaded ----


@pytest.fixture
def collector():
    """Give the collector back to the rest of the suite as it was."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_load_runs_paused_then_freezes_what_it_loaded(tmp_path, collector):
    gc.enable()
    path = _write(tmp_path, [article(i) for i in range(50)])
    assert not any(gc.isenabled() for _ in iter_jsonl(path, lambda rec: rec))
    assert gc.isenabled()
    before = gc.get_freeze_count()
    pool = load_snapshot(path)
    assert gc.isenabled()
    assert gc.get_freeze_count() - before >= len(pool) == 50


def test_load_with_collector_disabled_keeps_it_disabled(tmp_path, collector):
    gc.disable()
    path = _write(tmp_path, [article(i) for i in range(50)])
    before = gc.get_freeze_count()
    load_snapshot(path)
    assert not gc.isenabled() and gc.get_freeze_count() == before


def test_failed_or_closed_read_enables_collector_and_freezes_nothing(tmp_path, collector):
    gc.enable()
    path = tmp_path / "pool.jsonl"
    path.write_text(json.dumps(article(0)) + "\n" + json.dumps(article(1)) + "\n{oops\n")
    before = gc.get_freeze_count()
    with pytest.raises(RecordParseError, match="^line 3:"):
        load_snapshot(path)
    assert gc.isenabled()
    reader = iter_jsonl(path, lambda rec: rec)
    next(reader)
    assert not gc.isenabled()
    reader.close()
    assert gc.isenabled() and gc.get_freeze_count() == before


def test_reference_counting_frees_a_loaded_pool(tmp_path, collector):
    # Frozen records are out of the collector's reach: only reference
    # counting frees them, which needs a snapshot without reference cycles.
    gc.enable()
    pool = load_snapshot(_write(tmp_path, [article(i) for i in range(50)]))
    gc.disable()
    pool_ref, article_ref = weakref.ref(pool), weakref.ref(pool.articles[0])
    del pool
    assert pool_ref() is None and article_ref() is None
