import json

import pytest

from conftest import random_pool

from sidground.codebook import SID
from sidground.errors import DuplicateKeyError, RecordParseError, SidRangeError
from sidground.pool import (
    Article,
    NewsPool,
    build_index,
    load_snapshot,
    refresh,
    save_snapshot,
    temporal_split,
)


def art(i, s1=0, s2=0, s3=0, s4=0, published=1000.0, category="cat"):
    return Article(id=f"n{i}", title=f"t{i}", category=category, tags=(),
                   published_at=published, sid=SID(s1, s2, s3, s4))


def write_jsonl(path, records):
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


def record(i, sid=(0, 0, 0, 0), published=1000.0):
    return {"id": f"n{i}", "title": f"t{i}", "category": "c", "tags": ["x"],
            "published_at": published, "sid": list(sid)}


class TestIngest:
    """Raw article JSONL, as `sidground pool ingest` reads it with load_snapshot."""

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text("")
        pool = load_snapshot(p)
        assert len(pool) == 0 and pool.version == 1

    def test_basic(self, tmp_path):
        p = tmp_path / "a.jsonl"
        write_jsonl(p, [record(0), record(1, sid=(31, 63, 127, 1023))])
        pool = load_snapshot(p)
        assert len(pool) == 2
        assert pool.by_id["n1"].sid == SID(31, 63, 127, 1023)

    def test_out_of_range_sid_names_field_and_line(self, tmp_path):
        p = tmp_path / "a.jsonl"
        write_jsonl(p, [record(0), record(1, sid=(32, 0, 0, 0))])
        with pytest.raises(SidRangeError) as exc:
            load_snapshot(p)
        assert "s1" in str(exc.value) and "line 2" in str(exc.value)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "a.jsonl"
        write_jsonl(p, [record(0), record(0)])
        with pytest.raises(DuplicateKeyError):
            load_snapshot(p)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text(json.dumps(record(0)) + "\n{oops\n")
        with pytest.raises(RecordParseError) as exc:
            load_snapshot(p)
        assert "line 2" in str(exc.value)


class TestIndex:
    def test_single_article_bucket(self):
        pool = NewsPool([art(0, 3, 5, 9, 100)])
        index = build_index(pool)
        assert index.buckets == {(3, 5): [(9, "n0", 1000.0)]}
        assert index.built_from == pool.version

    def test_bucket_sorted(self):
        pool = NewsPool([art(0, 1, 1, 40), art(1, 1, 1, 12, published=500.0)])
        index = build_index(pool)
        assert index.buckets[(1, 1)] == [(12, "n1", 500.0), (40, "n0", 1000.0)]

    def test_partition(self):
        pool = random_pool(seed=3, n=500)
        index = build_index(pool)
        assert sum(len(b) for b in index.buckets.values()) == len(pool)
        seen = set()
        for bucket in index.buckets.values():
            for _, aid, _ in bucket:
                assert aid not in seen
                seen.add(aid)

    def test_window(self):
        pool = NewsPool([art(i, 2, 2, s3) for i, s3 in enumerate([5, 10, 15, 20])])
        index = build_index(pool)
        window = index.bucket_window(2, 2, 8, 16)
        assert [s3 for s3, _, _ in window] == [10, 15]
        assert index.bucket_window(9, 9, 0, 127) == []

    def test_window_upper_edge_keeps_any_id(self):
        # An id sorting above "\uffff" (here one starting with an emoji)
        # still belongs to the window when its s3 is the upper bound.
        pool = NewsPool([Article(id=i, title="", category="c", tags=(), published_at=1.0,
                                 sid=SID(2, 2, 12, 0)) for i in ("plain", "\U0001F4F0news")])
        window = build_index(pool).bucket_window(2, 2, 8, 12)
        assert [aid for _, aid, _ in window] == ["plain", "\U0001F4F0news"]


class TestRefresh:
    def test_noop_refresh_bumps_version(self):
        pool = NewsPool([art(0)])
        nxt = refresh(pool)
        assert nxt.version == 2
        assert [a.id for a in nxt.articles] == [a.id for a in pool.articles]

    def test_remove_all_add_one(self):
        pool = NewsPool([art(0), art(1)])
        nxt = refresh(pool, add=[art(9)], remove=["n0", "n1"])
        assert [a.id for a in nxt.articles] == ["n9"]

    def test_versions_strictly_increase(self):
        pool = NewsPool([art(0)])
        versions = [pool.version]
        for _ in range(10):
            pool = refresh(pool)
            versions.append(pool.version)
        assert versions == list(range(1, 12))

    def test_prior_snapshot_unchanged(self):
        pool = NewsPool([art(0), art(1)])
        before = [a.id for a in pool.articles]
        refresh(pool, remove=["n0"])
        assert [a.id for a in pool.articles] == before

    def test_add_existing_id_rejected(self):
        pool = NewsPool([art(0)])
        with pytest.raises(DuplicateKeyError):
            refresh(pool, add=[art(0)])

    def test_remove_missing_warns_not_fatal(self, caplog):
        pool = NewsPool([art(0)])
        with caplog.at_level("WARNING"):
            nxt = refresh(pool, remove=["ghost"])
        assert nxt.version == 2
        assert any("ghost" in r.message for r in caplog.records)

    def test_readd_removed_id_ok(self):
        pool = NewsPool([art(0)])
        nxt = refresh(pool, add=[art(0, s3=7)], remove=["n0"])
        assert nxt.by_id["n0"].sid.s3 == 7


class TestTemporalSplit:
    def test_all_before_cutoff(self):
        arts = [art(i, published=100.0 + i) for i in range(5)]
        train, test = temporal_split(arts, cutoff=1000.0)
        assert len(train) == 5 and test == []

    def test_disjoint_and_exhaustive(self):
        arts = [art(i, published=float(i)) for i in range(50)]
        train, test = temporal_split(arts, cutoff=25.0)
        train_ids = {a.id for a in train}
        test_ids = {a.id for a in test}
        assert train_ids & test_ids == set()
        assert train_ids | test_ids == {a.id for a in arts}
        # Linear-scan oracle over every timestamp.
        for a in arts:
            assert (a.id in train_ids) == (a.published_at <= 25.0)

    def test_boundary_goes_to_train(self):
        arts = [art(0, published=25.0)]
        train, test = temporal_split(arts, cutoff=25.0)
        assert len(train) == 1 and test == []


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path):
        pool = random_pool(seed=5, n=40, version=3)
        path = tmp_path / "snap.jsonl"
        save_snapshot(pool, path)
        loaded = load_snapshot(path)
        assert loaded.version == 3
        assert [a.id for a in loaded.articles] == [a.id for a in pool.articles]
        assert all(loaded.by_id[a.id].sid == a.sid for a in pool.articles)

    def test_raw_jsonl_loads_as_version_1(self, tmp_path):
        p = tmp_path / "raw.jsonl"
        write_jsonl(p, [record(0)])
        pool = load_snapshot(p)
        assert pool.version == 1 and len(pool) == 1
