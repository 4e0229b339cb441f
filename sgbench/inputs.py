"""Seeded workload inputs: fixture files for the program, request plans for the client.

The program only ever sees the files written here; the plans and the
snapshot id sets stay with the harness, which uses them to drive the
server and to check its replies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from sidground.fixture import FixtureSpec, make_synthetic_fixture, write_fixture
from sidground.padr import route

# Both serving workloads send the (user, query) contexts of the fixture's
# own eval samples, in a seeded order: the fixture's intent mix and its
# intent -> query model decide which users and queries come, and how often
# a context repeats. The stream's length is fixed, so run time does not
# change which requests exist, only how far into the stream a run gets.
STREAM_REQUESTS = 30_000
HIT_REQUESTS = 2_000     # serve_hit cycles through the stream's first this many
WARMUP_QUERY = "recommend news"   # the fixture sends it only to cold-start users


@dataclass
class ServeInputs:
    paths: dict[str, str]
    spec: dict
    snapshots: dict[int, frozenset[str]]   # pool_version -> article ids
    paths_by_user: dict[str, str]          # user -> warm | hybrid | cold
    users: list[str]
    stream: list[tuple[str, str]]          # (user, query) requests, in sending order


def make_serve_inputs(seed: int, outdir, n_articles: int, n_users: int) -> ServeInputs:
    spec = FixtureSpec(seed=seed, n_articles=n_articles, n_users=n_users,
                       n_samples=STREAM_REQUESTS, embeddings=False)
    fixture = make_synthetic_fixture(spec)
    paths = write_fixture(fixture, outdir)
    order = np.random.default_rng([seed, 2]).permutation(len(fixture.samples))
    return ServeInputs(
        paths=paths,
        spec={"seed": seed, "n_articles": n_articles, "n_users": n_users,
              "n_samples": STREAM_REQUESTS, "tau": spec.tau},
        snapshots={fixture.pool.version: frozenset(fixture.pool.by_id)},
        paths_by_user={u: route(p, fixture.histories[u], "", tau=spec.tau).path
                       for u, p in fixture.profiles.items()},
        users=sorted(fixture.profiles),
        stream=[(fixture.samples[i].user_id, fixture.samples[i].query) for i in order],
    )


def hit_plan(inputs: ServeInputs) -> list[tuple[str, str]]:
    return inputs.stream[:HIT_REQUESTS]


def warmup_pairs(inputs: ServeInputs, n: int) -> list[tuple[str, str]]:
    """Contexts the stream does not contain, for requests sent before measuring."""
    sent = set(inputs.stream)
    return [pair for pair in ((u, WARMUP_QUERY) for u in inputs.users)
            if pair not in sent][:n]


def plan_properties(plan: list[tuple[str, str]], inputs: ServeInputs) -> dict:
    """Path mix and context-repeat share of the requests in a plan."""
    mix = Counter(inputs.paths_by_user[u] for u, _ in plan)
    seen: set[tuple[str, str]] = set()
    repeats = 0
    for pair in plan:
        repeats += pair in seen
        seen.add(pair)
    return {
        "path_mix": {p: mix[p] / len(plan) for p in ("warm", "hybrid", "cold")},
        "context_repeat_share": repeats / len(plan),
        "distinct_contexts": len(seen),
    }


@dataclass
class OfflineInputs:
    paths: dict[str, str]
    spec: dict


def make_offline_inputs(seed: int, outdir, n_articles: int, n_users: int,
                        n_samples: int, n_vectors: int) -> OfflineInputs:
    spec = FixtureSpec(seed=seed, n_articles=n_articles, n_users=n_users,
                       n_samples=n_samples, embeddings=True, embedding_cap=n_vectors)
    fixture = make_synthetic_fixture(spec)
    paths = write_fixture(fixture, outdir)
    return OfflineInputs(
        paths=paths,
        spec={"seed": seed, "n_articles": n_articles, "n_users": n_users,
              "n_samples": n_samples, "n_vectors": n_vectors,
              "layer_sizes": list(spec.layer_sizes)},
    )
