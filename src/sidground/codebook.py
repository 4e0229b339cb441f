"""Multi-layer residual quantization codebooks and 4-layer SID assignment.

A codebook holds four centroid tables. Layer 1 is fitted on the raw
embeddings; each deeper layer is fitted on the residuals left after
subtracting the reconstructions of the layers above it. Assigning an
embedding walks the layers greedily, taking the nearest centroid at each
step, which yields a 4-tuple code: coarse semantic region, mid-level
group, fine cluster, near-unique discriminator.

Training is plain residual k-means: k-means++ seeding from an explicit
seed, Lloyd iterations until max_iters or relative inertia improvement
below 1e-6. Nearest-centroid ties resolve to the lowest index and empty
clusters are re-seeded from the farthest point, so retraining with the
same inputs is bit-identical.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, RecordParseError, SidRangeError
from .jsonl import iter_jsonl, json_int, json_list, json_nums, json_str, read_json

DEFAULT_LAYER_SIZES = (32, 64, 128, 1024)

_CODEBOOK_FORMAT = "sidground-codebook"
_CODEBOOK_FORMAT_VERSION = 1

_REL_TOL = 1e-6
_DIST_BATCH = 4096


class SID(NamedTuple):
    """4-layer hierarchical semantic code. Orders lexicographically."""

    s1: int
    s2: int
    s3: int
    s4: int


class SIDPrefix(NamedTuple):
    """First three SID layers: the unit of generation and matching."""

    s1: int
    s2: int
    s3: int


def check_layer_sizes(sizes) -> tuple[int, int, int, int]:
    """`sizes` as a tuple if it is four integers (no bools), each >= 1, else
    InvalidInputError: the one check of a codebook's layer sizes."""
    if (type(sizes) not in (list, tuple) or len(sizes) != 4
            or any(type(k) is not int or k < 1 for k in sizes)):
        raise InvalidInputError(f"layer_sizes must be 4 positive integers, got {sizes!r}")
    return tuple(sizes)


def validate_sid(values, layer_sizes, what: str = "sid"):
    """Range-check a SID against the four layer sizes, or a SID prefix
    against the first three, naming the bad layer.

    Returns a SID, or a SIDPrefix when given three sizes.
    """
    if len(values) != len(layer_sizes):
        raise SidRangeError(f"{what} must have {len(layer_sizes)} layers, got {len(values)}")
    for l, (v, k) in enumerate(zip(values, layer_sizes), start=1):
        if type(v) is not int or not 0 <= v < k:     # bool is not an int here
            raise SidRangeError(f"{what} layer s{l} value {v!r} outside [0, {k - 1}]")
    return (SID if len(layer_sizes) == 4 else SIDPrefix)(*values)


@dataclass(frozen=True)
class Codebook:
    """Immutable trained codebook: one centroid table per layer."""

    layers: tuple[np.ndarray, ...]      # layer l: (K_l, dim) float64
    dim: int
    seed: int
    trained_on: str                     # corpus fingerprint (sha256 prefix)

    def __post_init__(self):
        if len(self.layers) != 4:
            raise InvalidInputError("codebook must have exactly 4 layers")
        for l, table in enumerate(self.layers, start=1):
            if table.ndim != 2 or table.shape[1] != self.dim:
                raise InvalidInputError(
                    f"layer {l} centroid table has shape {table.shape}, "
                    f"expected (K, {self.dim})"
                )

    @property
    def layer_sizes(self) -> tuple[int, int, int, int]:
        return tuple(table.shape[0] for table in self.layers)  # type: ignore[return-value]


def _as_corpus(corpus) -> np.ndarray:
    """Validate and convert an embedding corpus to a (N, D) float64 array."""
    arr = np.asarray(corpus, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError("corpus must be a nonempty list of equal-length nonempty vectors")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("corpus contains non-finite embedding values")
    return arr


def corpus_fingerprint(corpus: np.ndarray) -> str:
    """Stable fingerprint of a corpus: sha256 over shape and raw values."""
    h = hashlib.sha256()
    h.update(str(corpus.shape).encode())
    h.update(np.ascontiguousarray(corpus, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _batches(points: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(start, slice, squared norms) per _DIST_BATCH slice of the points:
    computed once, reused for every set of centroids."""
    chunks = [(i, points[i : i + _DIST_BATCH]) for i in range(0, len(points), _DIST_BATCH)]
    return [(i, chunk, (chunk * chunk).sum(axis=1, keepdims=True)) for i, chunk in chunks]


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray, batches=None) -> np.ndarray:
    """Squared Euclidean distances, (N, K), batched to bound memory."""
    out = np.empty((points.shape[0], centroids.shape[0]), dtype=np.float64)
    c_norm = (centroids * centroids).sum(axis=1)
    for i, chunk, p_norm in batches or _batches(points):
        out[i : i + _DIST_BATCH] = p_norm - 2.0 * (chunk @ centroids.T) + c_norm[None, :]
    # Float cancellation can leave tiny negatives; they would corrupt
    # k-means++ sampling weights.
    np.maximum(out, 0.0, out=out)
    return out


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding. If k >= n, uses every point then pads with the
    mean so the table shape stays (k, dim)."""
    n, dim = points.shape
    if k >= n:
        centroids = np.empty((k, dim), dtype=np.float64)
        centroids[:n] = points
        centroids[n:] = points.mean(axis=0)
        return centroids
    centroids = np.empty((k, dim), dtype=np.float64)
    batches = _batches(points)      # each new centroid costs one product per batch
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = _pairwise_sq_dists(points, centroids[0:1], batches)[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen centroid.
            centroids[j:] = points[int(rng.integers(n))]
            break
        probs = closest / total
        idx = int(rng.choice(n, p=probs))
        centroids[j] = points[idx]
        d_new = _pairwise_sq_dists(points, centroids[j : j + 1], batches)[:, 0]
        np.minimum(closest, d_new, out=closest)
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iters: int) -> np.ndarray:
    """Lloyd iterations with deterministic tie-break and empty-cluster
    re-seeding from the globally farthest point."""
    k = centroids.shape[0]
    batches = _batches(points)
    prev_inertia = np.inf
    for _ in range(max_iters):
        dists = _pairwise_sq_dists(points, centroids, batches)
        assign = dists.argmin(axis=1)           # argmin: lowest index on ties
        min_d = dists[np.arange(len(points)), assign]
        inertia = float(min_d.sum())

        new_centroids = centroids.copy()
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, points)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

        # Re-seed each empty cluster from the current farthest point,
        # excluding points already consumed by earlier re-seeds.
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            order = np.argsort(-min_d, kind="stable")
            for slot, point_idx in zip(empty, order):
                new_centroids[slot] = points[point_idx]

        centroids = new_centroids
        if prev_inertia - inertia <= _REL_TOL * max(prev_inertia, 1e-300):
            break
        prev_inertia = inertia
    return centroids


def train_codebook(
    corpus,
    layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES,
    seed: int = 0,
    max_iters: int = 25,
) -> Codebook:
    """Fit a 4-layer residual k-means codebook on an embedding corpus.

    Layer 1 clusters the raw embeddings; layer l>1 clusters the residuals
    after subtracting the layer 1..l-1 reconstructions. Deterministic for
    identical (corpus, layer_sizes, seed, max_iters).
    """
    layer_sizes = check_layer_sizes(layer_sizes)
    if max_iters < 1:
        raise InvalidInputError("max_iters must be >= 1")
    points = _as_corpus(corpus)
    if points.shape[0] < layer_sizes[0]:
        raise InsufficientDataError(
            f"corpus of {points.shape[0]} embeddings is smaller than K1={layer_sizes[0]}"
        )
    fingerprint = corpus_fingerprint(points)

    rng = np.random.default_rng(seed)
    residual = points.copy()
    layers = []
    for k in layer_sizes:
        centroids = _kmeanspp_init(residual, k, rng)
        centroids = _lloyd(residual, centroids, max_iters)
        layers.append(centroids)
        assign = _pairwise_sq_dists(residual, centroids).argmin(axis=1)
        residual = residual - centroids[assign]

    return Codebook(
        layers=tuple(layers),
        dim=points.shape[1],
        seed=int(seed),
        trained_on=fingerprint,
    )


def _check_dim(codebook: Codebook, arr: np.ndarray):
    if arr.shape[-1] != codebook.dim:
        raise InvalidInputError(
            f"embedding dimension {arr.shape[-1]} does not match codebook dim {codebook.dim}"
        )


def assign_sids(codebook: Codebook, corpus) -> list[SID]:
    """Assign a SID to every embedding in the corpus.

    At each layer the code is the index of the nearest centroid to the
    residual so far; ties break to the lowest index.
    """
    points = _as_corpus(corpus)
    _check_dim(codebook, points)
    residual = points.copy()
    codes = np.empty((points.shape[0], 4), dtype=np.int64)
    for l, centroids in enumerate(codebook.layers):
        assign = _pairwise_sq_dists(residual, centroids).argmin(axis=1)
        codes[:, l] = assign
        residual -= centroids[assign]
    return [SID(*map(int, row)) for row in codes]


def assign_sid(codebook: Codebook, embedding) -> SID:
    """Assign a single embedding (vector of length dim) a SID."""
    vec = np.asarray(embedding, dtype=np.float64)
    if vec.ndim != 1:
        raise InvalidInputError("assign_sid expects a single vector")
    return assign_sids(codebook, vec[None, :])[0]


def occupancy(codebook: Codebook, corpus) -> list[float]:
    """Per-layer fraction of codes actually used by the corpus assignment."""
    sids = assign_sids(codebook, corpus)
    arr = np.asarray(sids, dtype=np.int64)
    return [
        len(np.unique(arr[:, l])) / codebook.layer_sizes[l]
        for l in range(4)
    ]


def reconstruction_error(codebook: Codebook, corpus) -> list[float]:
    """Cumulative mean squared residual norm after using layers 1..l.

    Non-increasing in l on the corpus the codebook was trained on (each
    table holds cluster means of the residuals it was fitted to).
    """
    points = _as_corpus(corpus)
    _check_dim(codebook, points)
    residual = points.copy()
    errors = []
    for centroids in codebook.layers:
        assign = _pairwise_sq_dists(residual, centroids).argmin(axis=1)
        residual = residual - centroids[assign]
        errors.append(float((residual * residual).sum(axis=1).mean()))
    return errors


# -- Persistence --------------------------------------------------------


def save_codebook(codebook: Codebook, path):
    """Write a codebook as versioned JSON; floats round-trip exactly."""
    doc = {
        "format": _CODEBOOK_FORMAT,
        "format_version": _CODEBOOK_FORMAT_VERSION,
        "dim": codebook.dim,
        "layer_sizes": list(codebook.layer_sizes),
        "seed": codebook.seed,
        "trained_on": codebook.trained_on,
        "layers": [table.tolist() for table in codebook.layers],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")


def load_codebook(path) -> Codebook:
    """Load a codebook, rejecting format, dimension, or shape mismatches."""
    return read_json(path, _codebook_from_record)


def _codebook_from_record(doc: dict) -> Codebook:
    if doc.get("format") != _CODEBOOK_FORMAT:
        raise RecordParseError(f"unrecognized codebook format {doc.get('format')!r}")
    if json_int(doc["format_version"], "format_version") != _CODEBOOK_FORMAT_VERSION:
        raise RecordParseError(f"unsupported codebook version {doc['format_version']!r}")
    layer_sizes = check_layer_sizes(doc["layer_sizes"])
    dim = json_int(doc["dim"], "dim")
    layers = []
    for l, (table, k) in enumerate(zip(json_list(doc["layers"], "layers"), layer_sizes), start=1):
        arr = np.asarray([json_nums(row, f"layer {l} centroid") for row in table],
                         dtype=np.float64)
        if arr.shape != (k, dim):
            raise RecordParseError(
                f"layer {l} table has shape {arr.shape}, expected {(k, dim)}"
            )
        layers.append(arr)
    return Codebook(
        layers=tuple(layers),
        dim=dim,
        seed=json_int(doc["seed"], "seed"),
        trained_on=json_str(doc["trained_on"], "trained_on"),
    )


def load_embedding_corpus(path) -> tuple[list[str], np.ndarray]:
    """Read an embedding corpus from JSONL ({"id": ..., "embedding": [...]}).

    Returns ids and a (N, D) array; all rows must share one dimension.
    """
    ids: list[str] = []
    rows: list[list[float]] = []

    def parse(rec):
        vec = json_nums(rec["embedding"], "embedding")
        if rows and len(vec) != len(rows[0]):
            raise RecordParseError(f"embedding dimension {len(vec)} != {len(rows[0])}")
        return json_str(rec["id"], "id"), vec

    for _, (aid, vec) in iter_jsonl(path, parse):
        ids.append(aid)
        rows.append(vec)
    if not rows:
        raise InvalidInputError(f"no embeddings found in {path}")
    return ids, np.asarray(rows, dtype=np.float64)
