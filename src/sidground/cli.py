"""Unified command-line entry point.

    sidground codebook train|assign|stats ...
    sidground pool ingest|refresh|split ...
    sidground match ...
    sidground padr route ...
    sidground gen run ...
    sidground rank ...
    sidground serve ... | bench ...
    sidground eval run|fixture ...

Exit codes: 0 success, 1 usage error, 2 data error. Every setting takes
one path: dispatch hands the flags that name Config fields (--ttl sets
ttl_seconds, --layers layer_sizes, --lambda lam) to resolve_config, which
applies flag > SIDGROUND_* env (port, data dir, seed) > --config file >
default and type-checks the result; commands read settings only from the
Config they are given.
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import re
import sys
from dataclasses import fields
from dataclasses import replace as dc_replace
from datetime import datetime, timezone

import numpy as np

from . import codebook as cb
from . import pool as poolmod
from .config import Config, check_fields, parse_int_list, resolve_config
from .dualtrack import SIDCache, run_benchmark, warm_cache
from .errors import InvalidInputError, SidgroundError
from .evaluation import load_samples
from .fixture import FixtureSpec, make_synthetic_fixture, write_fixture
from .generator import from_spec as generator_from_spec
from .generator import PoolSampledGenerator
from .jsonl import json_obj, json_str, read_json, write_jsonl
from .matcher import fuzzy_match, grid_search_delta
from .padr import (
    EMPTY_HISTORY,
    UserProfile,
    history_from_record,
    load_histories,
    load_profiles,
    preset_queries,
    profile_from_record,
    route,
)
from .pool import NewsPool, build_index, load_snapshot, save_snapshot, write_article_jsonl
from .ranking import rank as rank_candidates
from .report import run_eval, write_report
from .server import RecommendService, serve_forever

logger = logging.getLogger(__name__)

class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors and typo suggestions."""

    def error(self, message):
        m = re.search(r"invalid choice: '([^']+)'", message)
        if m:
            close = difflib.get_close_matches(m.group(1), _HANDLERS, n=2)
            if close:
                message += f" (did you mean: {', '.join(close)}?)"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_prefix(text: str, pool: NewsPool):
    """--prefix s1,s2,s3, range-checked against the snapshot's layer sizes."""
    values = parse_int_list(text, "--prefix")
    return cb.validate_sid(values, pool.layer_sizes[:3], what="--prefix")


def _parse_cutoff(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as e:
        raise InvalidInputError(
            f"--cutoff expects an ISO 8601 time or epoch seconds, got {text!r}") from e
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _emit(doc):
    print(json.dumps(doc, indent=2))


def build_parser() -> _Parser:
    top = _Parser(prog="sidground", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="JSON config file", default=None)
    top.add_argument("-v", "--verbose", action="store_true")
    sub = top.add_subparsers(dest="command", metavar="command")

    # codebook
    p_cb = sub.add_parser("codebook", help="train/apply semantic-ID codebooks")
    cb_sub = p_cb.add_subparsers(dest="subcommand", metavar="subcommand")
    p = cb_sub.add_parser("train", help="train a residual k-means codebook")
    p.add_argument("--corpus", required=True)
    p.add_argument("--layers", dest="layer_sizes", default=None,
                   help="K1,K2,K3,K4 (default: the configured layer_sizes)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=25)
    p.add_argument("--out", required=True)
    p = cb_sub.add_parser("assign", help="assign SIDs to an embedding corpus")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p = cb_sub.add_parser("stats", help="occupancy and reconstruction error")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)

    # pool
    p_pool = sub.add_parser("pool", help="ingest/refresh/split article pools")
    pool_sub = p_pool.add_subparsers(dest="subcommand", metavar="subcommand")
    p = pool_sub.add_parser("ingest", help="article JSONL -> version-1 snapshot")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p = pool_sub.add_parser("refresh", help="base snapshot + add/remove -> next snapshot")
    p.add_argument("--base", required=True)
    p.add_argument("--add", default=None, help="article JSONL to add")
    p.add_argument("--remove", default=None, help="file with one article id per line")
    p.add_argument("--out", required=True)
    p = pool_sub.add_parser("split", help="temporal train/test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cutoff", required=True, help="ISO8601 timestamp or epoch seconds")
    p.add_argument("--train-out", default=None)
    p.add_argument("--test-out", default=None)

    # match
    p = sub.add_parser("match", help="fuzzy-match a prefix against a snapshot")
    p.add_argument("--index", required=True, help="pool snapshot to index")
    p.add_argument("--prefix", required=True, help="s1,s2,s3")
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--deltas", default=None, help="comma list switches to grid mode")

    # padr
    p_padr = sub.add_parser("padr", help="context routing")
    padr_sub = p_padr.add_subparsers(dest="subcommand", metavar="subcommand")
    p = padr_sub.add_parser("route", help="route one request and print the context")
    p.add_argument("--profile", required=True, help="profile JSONL")
    p.add_argument("--history", default=None, help="history JSONL")
    p.add_argument("--query", required=True)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--user-id", default=None, help="defaults to the first profile in the file")

    # gen
    p_gen = sub.add_parser("gen", help="run a prefix generator")
    gen_sub = p_gen.add_subparsers(dest="subcommand", metavar="subcommand")
    p = gen_sub.add_parser("run", help="generate prefixes for a context request")
    p.add_argument("--generator", required=True,
                   help="random|popular|histpop|profile|replay:<path>")
    p.add_argument("--context", required=True,
                   help="JSON file: {profile, clicks, query, tau?, sample_id?}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--pool", default=None, help="training pool (popular/profile generators)")

    # rank
    p = sub.add_parser("rank", help="match a prefix and rank for a profile")
    p.add_argument("--index", required=True, help="pool snapshot to index")
    p.add_argument("--profile", required=True)
    p.add_argument("--user-id", default=None)
    p.add_argument("--prefix", required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--now", type=float, default=None, help="epoch seconds (default: pool as_of)")

    # serve
    p = sub.add_parser("serve", help="HTTP service mode")
    p.add_argument("--pool", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--histories", default=None)
    p.add_argument("--generator", required=True)
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--ttl", dest="ttl_seconds", type=int, default=None)
    p.add_argument("--warm", action="store_true", help="warm the cache from preset queries")

    # bench
    p = sub.add_parser("bench", help="in-process fast-track latency benchmark")
    p.add_argument("--pool", required=True)
    p.add_argument("--requests", type=int, default=10_000)
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    # eval
    p_eval = sub.add_parser("eval", help="evaluation harness")
    eval_sub = p_eval.add_subparsers(dest="subcommand", metavar="subcommand")
    p = eval_sub.add_parser("run", help="score a generator on eval samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--profiles", default=None)
    p.add_argument("--histories", default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resamples", type=int, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p = eval_sub.add_parser("fixture", help="generate a synthetic fixture")
    p.add_argument("--spec", required=True, help="FixtureSpec JSON file")
    p.add_argument("--out", required=True, help="output directory")

    return top


def _require_sub(args, parser) -> None:
    if getattr(args, "subcommand", "missing") is None:
        parser.error(f"{args.command}: missing subcommand")


def _cmd_codebook(args, cfg) -> int:
    if args.subcommand == "train":
        _, corpus = cb.load_embedding_corpus(args.corpus)
        book = cb.train_codebook(corpus, layer_sizes=cfg.layer_sizes, seed=cfg.seed,
                                 max_iters=args.max_iters)
        cb.save_codebook(book, args.out)
        _emit({"out": args.out, "dim": book.dim, "layer_sizes": list(book.layer_sizes),
               "trained_on": book.trained_on})
    elif args.subcommand == "assign":
        book = cb.load_codebook(args.codebook)
        ids, corpus = cb.load_embedding_corpus(args.corpus)
        sids = cb.assign_sids(book, corpus)
        write_jsonl(args.out, ({"id": aid, "sid": list(sid)} for aid, sid in zip(ids, sids)))
        _emit({"out": args.out, "assigned": len(sids)})
    elif args.subcommand == "stats":
        book = cb.load_codebook(args.codebook)
        _, corpus = cb.load_embedding_corpus(args.corpus)
        _emit({
            "occupancy": cb.occupancy(book, corpus),
            "reconstruction_error": cb.reconstruction_error(book, corpus),
            "corpus_size": int(corpus.shape[0]),
        })
    return 0


def _read_id_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def _cmd_pool(args, cfg) -> int:
    if args.subcommand == "ingest":
        pool = load_snapshot(args.infile, layer_sizes=cfg.layer_sizes)
        save_snapshot(pool, args.out)
        _emit({"out": args.out, "articles": len(pool), "version": pool.version})
    elif args.subcommand == "refresh":
        base = load_snapshot(args.base, layer_sizes=cfg.layer_sizes)
        add = load_snapshot(args.add, layer_sizes=base.layer_sizes).articles if args.add else ()
        remove = _read_id_lines(args.remove) if args.remove else ()
        new_pool = poolmod.refresh(base, add=add, remove=remove)
        save_snapshot(new_pool, args.out)
        _emit({"out": args.out, "articles": len(new_pool), "version": new_pool.version})
    elif args.subcommand == "split":
        pool = load_snapshot(args.infile, layer_sizes=cfg.layer_sizes)
        cutoff = _parse_cutoff(args.cutoff)
        train, test = poolmod.temporal_split(pool.articles, cutoff)
        train_out = args.train_out or args.infile + ".train.jsonl"
        test_out = args.test_out or args.infile + ".test.jsonl"
        write_article_jsonl(train, train_out)
        write_article_jsonl(test, test_out)
        _emit({"train": {"path": train_out, "articles": len(train)},
               "test": {"path": test_out, "articles": len(test)},
               "cutoff": cutoff})
    return 0


def _cmd_match(args, cfg) -> int:
    pool = load_snapshot(args.index, layer_sizes=cfg.layer_sizes)
    index = build_index(pool)
    prefix = _parse_prefix(args.prefix, pool)
    if args.deltas:
        rows = grid_search_delta([prefix], parse_int_list(args.deltas, "--deltas"), index)
        _emit({"prefix": list(prefix), "grid": rows})
        return 0
    results = fuzzy_match(prefix, index, delta=cfg.delta, k=cfg.k)
    _emit({
        "prefix": list(prefix), "delta": cfg.delta, "k": cfg.k,
        "results": [
            {"article_id": r.article_id, "score": r.score, "s3_distance": r.s3_distance}
            for r in results
        ],
    })
    return 0


def _pick_profile(profiles: dict, user_id):
    if user_id is not None:
        if user_id not in profiles:
            raise SidgroundError(f"user_id {user_id!r} not in profile file")
        return profiles[user_id]
    if not profiles:
        raise SidgroundError("profile file holds no profiles")
    return next(iter(profiles.values()))


def _cmd_padr(args, cfg) -> int:
    profiles = load_profiles(args.profile)
    profile = _pick_profile(profiles, args.user_id)
    histories = load_histories(args.history, cfg.layer_sizes) if args.history else {}
    history = histories.get(profile.user_id, EMPTY_HISTORY)
    ctx = route(profile, history, args.query, tau=cfg.tau)
    _emit({"path": ctx.path, "indicator": ctx.indicator, "rendered": ctx.rendered})
    return 0


def _context_from_record(req: dict, layer_sizes, tau: int):
    """The routed context a `gen run --context` file describes."""
    profile = profile_from_record(json_obj(req.get("profile"), "profile"))
    _, history = history_from_record(
        {"user_id": profile.user_id, "clicks": req.get("clicks", [])}, layer_sizes
    )
    tau = check_fields(Config, {"tau": req.get("tau", tau)}, "context file")["tau"]
    ctx = route(profile, history, json_str(req.get("query", ""), "query"), tau=tau)
    if "sample_id" in req:
        ctx = dc_replace(ctx, sample_id=json_str(req["sample_id"], "sample_id"))
    return ctx


def _cmd_gen(args, cfg) -> int:
    training_pool = load_snapshot(args.pool, layer_sizes=cfg.layer_sizes) if args.pool else None
    sizes = training_pool.layer_sizes if training_pool else cfg.layer_sizes
    ctx = read_json(args.context, lambda req: _context_from_record(req, sizes, cfg.tau))
    gen = generator_from_spec(args.generator, training_pool=training_pool, seed=cfg.seed,
                              k=cfg.k, layer_sizes=sizes)
    out = gen.generate(ctx)
    _emit({
        "path": ctx.path,
        "prefixes": [list(p) for p in out.prefixes],
        "reason": out.reason,
    })
    return 0


def _cmd_rank(args, cfg) -> int:
    pool = load_snapshot(args.index, layer_sizes=cfg.layer_sizes)
    index = build_index(pool)
    profiles = load_profiles(args.profile)
    profile = _pick_profile(profiles, args.user_id)
    prefix = _parse_prefix(args.prefix, pool)
    now = args.now if args.now is not None else pool.as_of
    matches = fuzzy_match(prefix, index, delta=cfg.delta, k=cfg.k)
    ranked = rank_candidates(matches, pool, profile, now=now, lam=cfg.lam)
    _emit({
        "prefix": list(prefix), "delta": cfg.delta, "lambda": cfg.lam,
        "results": [
            {
                "article_id": r.article_id,
                "title": pool.by_id[r.article_id].title,
                "category": pool.by_id[r.article_id].category,
                "match_score": r.match_score,
                "interest_points": r.interest_points,
                "freshness": r.freshness,
                "final_score": r.final_score,
            }
            for r in ranked
        ],
    })
    return 0


def _cmd_serve(args, cfg) -> int:
    pool = load_snapshot(args.pool, layer_sizes=cfg.layer_sizes)
    profiles = load_profiles(args.profiles)
    histories = load_histories(args.histories, pool.layer_sizes) if args.histories else {}
    generator = generator_from_spec(args.generator, training_pool=pool, seed=cfg.seed,
                                    k=cfg.k, layer_sizes=pool.layer_sizes)
    service = RecommendService(
        pool, profiles, generator, histories=histories,
        delta=cfg.delta, k=cfg.k, lam=cfg.lam, tau=cfg.tau, ttl_seconds=cfg.ttl_seconds,
    )
    if args.warm:
        n = warm_cache(profiles.values(), generator, service.cache, tau=cfg.tau,
                       ttl_seconds=cfg.ttl_seconds)
        logger.info("warmed %d cache entries", n)
    serve_forever(service, args.host, cfg.port, cfg.data_dir)
    return 0


def _cmd_bench(args, cfg) -> int:
    pool = load_snapshot(args.pool, layer_sizes=cfg.layer_sizes)
    index = build_index(pool)
    rng = np.random.default_rng(cfg.seed)
    cats = sorted({a.category for a in pool.articles} - {""}) or ["news"]
    profiles = [UserProfile(user_id=f"bench{i:05d}",
                            declared_interests=(cats[int(rng.integers(len(cats)))],))
                for i in range(args.users)]
    contexts = [ctx for p in profiles for ctx in preset_queries(p, tau=cfg.tau)]
    cache = SIDCache(layer_sizes=pool.layer_sizes)
    warm_cache(profiles, PoolSampledGenerator(pool, seed=cfg.seed, k=cfg.k), cache, tau=cfg.tau)
    _emit(run_benchmark(contexts, cache, index, requests=args.requests,
                        concurrency=args.concurrency, delta=cfg.delta, k=cfg.k, lam=cfg.lam))
    return 0


def _cmd_eval(args, cfg) -> int:
    if args.subcommand == "fixture":
        spec = FixtureSpec.from_file(args.spec)
        fixture = make_synthetic_fixture(spec)
        paths = write_fixture(fixture, args.out)
        _emit({"out": args.out, "paths": paths, "articles": len(fixture.pool),
               "users": len(fixture.profiles), "samples": len(fixture.samples)})
        return 0
    pool = load_snapshot(args.pool, layer_sizes=cfg.layer_sizes)
    samples = load_samples(args.samples, pool.layer_sizes)
    profiles = load_profiles(args.profiles) if args.profiles else {}
    histories = load_histories(args.histories, pool.layer_sizes) if args.histories else {}
    generator = generator_from_spec(args.generator, training_pool=pool, seed=cfg.seed,
                                    k=cfg.k, layer_sizes=pool.layer_sizes)
    report = run_eval(
        samples, pool, generator, profiles=profiles, histories=histories,
        tau=cfg.tau, delta=cfg.delta, seed=cfg.seed, resamples=cfg.resamples,
    )
    if args.out:
        write_report(report, args.out)
    print(report.render_text())
    return 0


_HANDLERS = {
    "codebook": _cmd_codebook, "pool": _cmd_pool, "match": _cmd_match, "padr": _cmd_padr,
    "gen": _cmd_gen, "rank": _cmd_rank, "serve": _cmd_serve, "bench": _cmd_bench,
    "eval": _cmd_eval,
}

_PATH_ATTRS = (
    "corpus", "codebook", "out", "infile", "base", "add", "remove", "index",
    "profile", "history", "context", "pool", "profiles", "histories",
    "samples", "spec", "train_out", "test_out",
)


def _resolve_paths(args, cfg):
    for attr in _PATH_ATTRS:
        if hasattr(args, attr):
            setattr(args, attr, cfg.resolve_path(getattr(args, attr)))
    gen_spec = getattr(args, "generator", None)
    if gen_spec and gen_spec.startswith("replay:"):
        args.generator = "replay:" + cfg.resolve_path(gen_spec.split(":", 1)[1])


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command is None:
        parser.print_help()
        return 0
    try:
        flags = {f.name: getattr(args, f.name, None) for f in fields(Config)}
        cfg = resolve_config(flags=flags, config_path=args.config)
        _resolve_paths(args, cfg)
        _require_sub(args, parser)
        return _HANDLERS[args.command](args, cfg)
    except (SidgroundError, OSError) as e:
        print(f"sidground: error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
