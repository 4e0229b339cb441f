import hashlib
import json

import numpy as np
import pytest

from sidground.codebook import (
    _DIST_BATCH,
    _kmeanspp_init,
    _pairwise_sq_dists,
    assign_sids,
    load_codebook,
    load_embedding_corpus,
    occupancy,
    reconstruction_error,
    save_codebook,
    train_codebook,
)
from sidground.errors import InsufficientDataError, InvalidInputError, RecordParseError


def tiny_corpus(seed=0, n=200, dim=8):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 10, size=(8, dim))
    return centers[rng.integers(0, 8, n)] + rng.normal(0, 0.5, size=(n, dim))


def brute_force_assign(codebook, corpus):
    """Independent per-layer nearest-centroid scan."""
    sids = []
    for x in np.asarray(corpus, dtype=np.float64):
        residual = x.copy()
        code = []
        for table in codebook.layers:
            dists = ((table - residual) ** 2).sum(axis=1)
            idx = int(np.argmin(dists))
            code.append(idx)
            residual = residual - table[idx]
        sids.append(tuple(code))
    return sids


def reference_sq_dists(points, centroids):
    """Batched squared distances recomputing every point norm per call,
    in the expression order the codebook has always used."""
    out = np.empty((len(points), len(centroids)))
    c_norm = (centroids * centroids).sum(axis=1)
    for i in range(0, len(points), _DIST_BATCH):
        chunk = points[i : i + _DIST_BATCH]
        d = (chunk * chunk).sum(axis=1, keepdims=True) - 2.0 * (chunk @ centroids.T)
        out[i : i + _DIST_BATCH] = d + c_norm[None, :]
    np.maximum(out, 0.0, out=out)
    return out


def reference_kmeanspp(points, k, rng):
    """k-means++ seeding that recomputes every distance per chosen
    centroid: the oracle for the seeding that keeps per-batch point
    norms."""
    n, dim = points.shape
    if k >= n:
        centroids = np.empty((k, dim))
        centroids[:n] = points
        centroids[n:] = points.mean(axis=0)
        return centroids
    centroids = np.empty((k, dim))
    centroids[0] = points[int(rng.integers(n))]
    closest = reference_sq_dists(points, centroids[0:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[j:] = points[int(rng.integers(n))]
            break
        centroids[j] = points[int(rng.choice(n, p=closest / total))]
        np.minimum(closest, reference_sq_dists(points, centroids[j : j + 1])[:, 0],
                   out=closest)
    return centroids


@pytest.mark.parametrize("case", ["over_one_batch", "k_at_least_n", "all_coincide",
                                  "few_distinct"])
def test_kmeanspp_matches_per_centroid_oracle(case):
    rng = np.random.default_rng(17)
    if case == "over_one_batch":
        points, k = rng.normal(0, 3, size=(9000, 16)), 48
        assert len(points) > _DIST_BATCH
    elif case == "k_at_least_n":
        points, k = rng.normal(size=(10, 4)), 16
    elif case == "all_coincide":
        points, k = np.tile(rng.normal(size=(1, 6)), (50, 1)), 8
    else:   # the zero-weight branch after some centroids were drawn
        points, k = rng.normal(size=(3, 5))[rng.integers(0, 3, 60)], 8
    got = _kmeanspp_init(points, k, np.random.default_rng(5))
    want = reference_kmeanspp(points, k, np.random.default_rng(5))
    assert np.array_equal(got, want)


def test_pairwise_sq_dists_bit_identical_to_reference():
    rng = np.random.default_rng(23)
    points, centroids = rng.normal(0, 3, size=(9000, 16)), rng.normal(size=(40, 16))
    assert np.array_equal(_pairwise_sq_dists(points, centroids),
                          reference_sq_dists(points, centroids))


def test_trained_tables_frozen():
    # Digest of the centroid tables as trained before k-means++ and
    # Lloyd kept per-batch point norms.
    corpus = np.random.default_rng(31).normal(size=(5000, 16))
    book = train_codebook(corpus, layer_sizes=(8, 16, 32, 64), seed=4)
    h = hashlib.sha256(b"".join(t.tobytes() for t in book.layers)).hexdigest()
    assert h == "575069f3acb2c58a54af43f6a06b67bc740bf90f6e9cfc8588b2213a34a2bfc3"


def test_kmeans_with_k_equal_n_recovers_points():
    rng = np.random.default_rng(3)
    points = rng.normal(0, 5, size=(16, 4))
    book = train_codebook(points, layer_sizes=(16, 1, 1, 1), seed=0, max_iters=30)
    # Layer-1 centroids equal the points up to permutation.
    got = {tuple(np.round(c, 9)) for c in book.layers[0]}
    want = {tuple(np.round(p, 9)) for p in points}
    assert got == want
    assert reconstruction_error(book, points)[0] == pytest.approx(0.0, abs=1e-18)


def test_determinism_bit_identical():
    corpus = tiny_corpus(seed=5)
    b1 = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=42, max_iters=20)
    b2 = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=42, max_iters=20)
    for l1, l2 in zip(b1.layers, b2.layers):
        assert np.array_equal(l1, l2)
    assert assign_sids(b1, corpus) == assign_sids(b2, corpus)


def test_different_seed_changes_codebook():
    corpus = tiny_corpus(seed=5)
    b1 = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=1, max_iters=20)
    b2 = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=2, max_iters=20)
    assert not all(np.array_equal(a, b) for a, b in zip(b1.layers, b2.layers))


def test_insufficient_corpus_rejected():
    with pytest.raises(InsufficientDataError):
        train_codebook(np.zeros((4, 8)), layer_sizes=(8, 2, 2, 2), seed=0)


def test_non_finite_embedding_rejected():
    corpus = tiny_corpus()
    corpus[3, 2] = np.nan
    with pytest.raises(InvalidInputError):
        train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=0)


def test_assign_dimension_mismatch():
    book = train_codebook(tiny_corpus(dim=8), layer_sizes=(8, 4, 4, 4), seed=0)
    with pytest.raises(InvalidInputError):
        assign_sids(book, np.zeros((1, 5)))


def test_assign_centroid_self_assignment():
    corpus = tiny_corpus(seed=9)
    book = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=0)
    [sid] = assign_sids(book, book.layers[0][7:8])
    assert sid.s1 == 7


def test_assign_ranges_and_oracle():
    corpus = tiny_corpus(seed=13, n=300)
    book = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=0)
    probe = np.random.default_rng(1).normal(0, 10, size=(1000, 8))
    sids = assign_sids(book, probe)
    for s in sids:
        assert 0 <= s.s1 < 8 and 0 <= s.s2 < 4 and 0 <= s.s3 < 4 and 0 <= s.s4 < 4
    assert [tuple(s) for s in sids] == brute_force_assign(book, probe)


def test_occupancy_single_point():
    corpus = tiny_corpus(seed=21)
    book = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=0)
    occ = occupancy(book, corpus[:1])
    assert occ == [1 / 8, 1 / 4, 1 / 4, 1 / 4]


def test_occupancy_full_layer1(emb_fixture):
    corpus = emb_fixture.embeddings
    book = train_codebook(corpus, layer_sizes=(32, 16, 16, 16), seed=0, max_iters=15)
    occ = occupancy(book, corpus)
    assert occ[0] >= 0.90


def test_reconstruction_error_monotone_and_oracle():
    corpus = tiny_corpus(seed=2, n=400)
    book = train_codebook(corpus, layer_sizes=(8, 4, 4, 4), seed=0)
    errors = reconstruction_error(book, corpus)
    assert errors[0] >= errors[1] >= errors[2] >= errors[3]
    # Independent recompute of mean ||residual||^2 per layer.
    residual = corpus.copy()
    for l, table in enumerate(book.layers):
        for i in range(len(residual)):
            d = ((table - residual[i]) ** 2).sum(axis=1)
            residual[i] -= table[int(np.argmin(d))]
        expect = float((residual ** 2).sum(axis=1).mean())
        assert errors[l] == pytest.approx(expect, rel=1e-12)


def test_errors_on_empty_corpus():
    book = train_codebook(tiny_corpus(), layer_sizes=(8, 4, 4, 4), seed=0)
    with pytest.raises(InvalidInputError):
        occupancy(book, np.zeros((0, 8)))
    with pytest.raises(InvalidInputError):
        reconstruction_error(book, np.zeros((0, 8)))


def test_save_load_roundtrip(tmp_path):
    book = train_codebook(tiny_corpus(seed=4), layer_sizes=(8, 4, 4, 4), seed=5)
    path = tmp_path / "book.json"
    save_codebook(book, path)
    loaded = load_codebook(path)
    assert loaded.layer_sizes == book.layer_sizes
    assert loaded.dim == book.dim
    assert loaded.seed == book.seed
    assert loaded.trained_on == book.trained_on
    for a, b in zip(loaded.layers, book.layers):
        assert np.array_equal(a, b)


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(RecordParseError):
        load_codebook(path)

    book = train_codebook(tiny_corpus(seed=4), layer_sizes=(8, 4, 4, 4), seed=5)
    save_codebook(book, tmp_path / "book.json")
    doc = json.loads((tmp_path / "book.json").read_text())
    doc["dim"] = 99
    (tmp_path / "mismatch.json").write_text(json.dumps(doc))
    with pytest.raises(RecordParseError):
        load_codebook(tmp_path / "mismatch.json")


def test_embedding_corpus_jsonl(tmp_path):
    path = tmp_path / "emb.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps({"id": "x1", "embedding": [1.0, 2.0]}) + "\n")
        f.write(json.dumps({"id": "x2", "embedding": [3.0, 4.0]}) + "\n")
    ids, arr = load_embedding_corpus(path)
    assert ids == ["x1", "x2"]
    assert arr.shape == (2, 2)

    with open(path, "a") as f:
        f.write(json.dumps({"id": "x3", "embedding": [1.0, 2.0, 3.0]}) + "\n")
    with pytest.raises(RecordParseError) as exc:
        load_embedding_corpus(path)
    assert "line 3" in str(exc.value)
