"""Command-line interface.

The server-side workflow of the paper's deployment story, scriptable:

    python -m repro generate  --kind grid --columns 40 --rows 40 \\
                              --bridges 12 --seed 7 --out map
    python -m repro stats     --graph map.gr --coords map.co
    python -m repro build-index --graph map.gr --coords map.co \\
                              --borders 8 --out map.rpix
    python -m repro query     --graph map.gr --coords map.co \\
                              --index map.rpix \\
                              --epsilon 0.2 --seed 1 \\
                              --algorithm roadpart --refine \\
                              --out region --verify --stats

``query`` writes the DPS as a DIMACS ``.gr``/``.co`` pair (the download
artefact of the mobile scenario) plus a ``.vertices`` file mapping the
subgraph's ids back to the original network.

``--stats`` (on ``query`` and ``build-index``) prints the phase timings
and search-operation counters of :mod:`repro.obs`; ``--stats-json``
emits the same as a JSON document on stdout (human chatter moves to
stderr) -- see docs/observability.md.

``query --batch N --jobs M`` answers ``N`` window queries through the
:mod:`repro.serve` batched-query driver, fanning them over ``M``
fork-based workers; answers are byte-identical to the serial loop, the
summary line reports queries/sec, and ``--stats`` prints the merged
batch-level stats.  ``--deadline-ms B`` (which also routes through the
driver) gives every query a wall-clock budget with graceful degradation
down the ``--fallback`` cascade; failed queries print as ``FAILED``
lines and flip the exit status to 1, and ``--max-retries`` bounds
worker-crash chunk retries.

``serve`` starts the long-lived HTTP daemon of
:mod:`repro.serve.daemon` (endpoints ``/query``, ``/healthz``,
``/metrics``; full operations guide in docs/serving.md) and shuts down
gracefully on SIGTERM/SIGINT.  Every command reads and writes the one
index layout, ``roadpart-index-bin-v4`` (``repro.core.roadpart.binfmt``):
``index convert`` attaches (``--oracle auto``) or strips (``--oracle
none``) an index's endpoint tree table without relabelling, and
``index info`` describes an index file without loading its payload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from repro.core.ble import bl_efficiency
from repro.core.blq import bl_quality
from repro.core.dps import DPSQuery, DPSResult
from repro.core.hull import convex_hull_dps
from repro.core.roadpart.index import RoadPartIndex, build_index
from repro.core.roadpart.query import roadpart_dps
from repro.core.verify import verify_dps
from repro.datasets.queries import window_query
from repro.datasets.synthetic import (
    add_bridges,
    delaunay_network,
    grid_network,
    multi_city_network,
    ring_radial_network,
)
from repro.graph.builder import validate_network
from repro.graph.io import read_dimacs, write_dimacs
from repro.graph.network import RoadNetwork
from repro.obs import QueryStats, TraceRecorder
from repro.shortestpath.flat import ENGINES
from repro.shortestpath.oracle import ORACLE_POLICIES, build_oracle


def _version_line() -> str:
    """``repro --version`` capability line: version and engines."""
    from repro import __version__
    return f"repro {__version__} (engines: {', '.join(ENGINES)})"


def _load_network(args) -> RoadNetwork:
    return read_dimacs(args.graph, args.coords)


def _checked(convert, accept, rule: str):
    """An argparse type: ``convert`` the text (``int`` or ``float``),
    then require ``accept`` of the value; ``rule`` says what it must
    be."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not {'an integer' if convert is int else 'a number'}:"
                f" {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    return parse


# The comparisons also reject nan.
_epsilon = _checked(float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_border_count = _checked(int, lambda v: v >= 2,
                         "need at least 2 border vertices")
_deadline_ms = _checked(float, lambda v: 0.0 < v < math.inf,
                        "must be a positive, finite number of"
                        " milliseconds")


def _vertex_ids(text: str) -> List[int]:
    """argparse type of ``--vertices``: a non-empty comma list of ints
    (the range check needs the network; see :func:`_cmd_query`)."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated vertex ids, got {text!r}")


def _cmd_generate(args) -> int:
    if args.kind == "grid":
        network = grid_network(args.columns, args.rows, seed=args.seed)
    elif args.kind == "ring":
        network = ring_radial_network(max(args.rows // 2, 1),
                                      max(args.columns, 3),
                                      seed=args.seed)
    elif args.kind == "delaunay":
        network = delaunay_network(args.columns * args.rows,
                                   seed=args.seed)
    elif args.kind == "multi-city":
        network, _ = multi_city_network(
            city_grid=(2, 2), city_size=(args.columns, args.rows),
            seed=args.seed)
    else:  # unreachable: argparse choices
        raise AssertionError(args.kind)
    if args.bridges:
        network, added = add_bridges(network, args.bridges, (2.0, 5.0),
                                     seed=args.seed + 1)
        print(f"injected {len(added)} bridges")
    write_dimacs(network, f"{args.out}.gr", f"{args.out}.co",
                 comment=f"repro generate {args.kind} seed={args.seed}")
    print(f"wrote {args.out}.gr / {args.out}.co"
          f" ({network.num_vertices} vertices, {network.num_edges} edges)")
    return 0


def _cmd_stats(args) -> int:
    network = _load_network(args)
    bounds = network.bounds()
    problems = validate_network(network)
    print(f"vertices:    {network.num_vertices}")
    print(f"edges:       {network.num_edges}")
    print(f"max degree:  {network.max_degree()}")
    print(f"extent:      {bounds.width:.3g} x {bounds.height:.3g}")
    print(f"total length:{network.total_weight():.6g}")
    if problems:
        print("model violations:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("model:       OK (connected, metric, bounded degree)")
    return 0


def _cmd_build_index(args) -> int:
    network = _load_network(args)
    want_stats = args.stats or args.stats_json
    # With --stats-json, stdout carries only the JSON document (pipe it
    # straight into a tool); the human progress lines move to stderr.
    chat = sys.stderr if args.stats_json else sys.stdout
    trace = TraceRecorder() if want_stats else None
    started = time.perf_counter()
    index = build_index(network, args.borders,
                        contour_strategy=args.contour, trace=trace,
                        jobs=args.jobs, engine=args.engine,
                        oracle=args.oracle)
    index.save_binary(args.out)
    print(f"index built in {time.perf_counter() - started:.2f}s:"
          f" l={index.border_count}, |R|={index.regions.region_count},"
          f" bridges={len(index.bridges)},"
          f" contour={index.stats.contour_strategy_used},"
          f" oracle={index.stats.oracle_kind}", file=chat)
    if index.oracle is not None:
        print(f"oracle: {index.oracle.describe()}, built in"
              f" {index.stats.oracle_seconds:.2f}s", file=chat)
    _note_refused_table(network, index, args.oracle, chat)
    if args.stats_json:
        print(json.dumps(trace.to_dict(), indent=2))
    elif args.stats:
        print("build trace:")
        print(trace.render())
    print(f"wrote {args.out}", file=chat)
    return 0


def _parse_query(args, network: RoadNetwork) -> DPSQuery:
    if args.vertices:
        return DPSQuery.q_query(args.vertices)
    q = window_query(network, args.epsilon, seed=args.seed)
    return DPSQuery.q_query(q)


def _cmd_query_batch(args, network: RoadNetwork) -> int:
    """The ``--batch``/``--jobs``/``--deadline-ms`` path: answer N
    window queries through the :mod:`repro.serve` driver (optionally
    over fork workers, with per-query budgets and fallback)."""
    from repro.serve import QueryFailure, run_queries
    chat = sys.stderr if args.stats_json else sys.stdout
    count = max(args.batch, 1)
    if args.vertices and count > 1:
        print("error: --vertices answers one explicit query; drop"
              " --batch/--jobs", file=sys.stderr)
        return 2
    if args.refine or args.verify or args.out:
        print("error: --refine/--verify/--out answer one query; drop"
              " --batch/--jobs/--deadline-ms", file=sys.stderr)
        return 2
    if args.vertices:
        queries = [_parse_query(args, network)]
    else:
        queries = [DPSQuery.q_query(window_query(network, args.epsilon,
                                                 seed=args.seed + i))
                   for i in range(count)]
    index = None
    if args.algorithm == "roadpart":
        if not args.index:
            print("error: --algorithm roadpart requires --index",
                  file=sys.stderr)
            return 2
        index = RoadPartIndex.load_binary(args.index, network)
    want_stats = args.stats or args.stats_json
    fallback = None
    if args.fallback is not None:
        fallback = tuple(n for n in args.fallback.split(",") if n) \
            if args.fallback else ()
    outcome = run_queries(args.algorithm, queries, network=network,
                          index=index, jobs=args.jobs, engine=args.engine,
                          collect_stats=want_stats,
                          deadline_ms=args.deadline_ms, fallback=fallback,
                          max_retries=args.max_retries,
                          oracle=args.oracle)
    for i, result in enumerate(outcome.results):
        if isinstance(result, QueryFailure):
            print(f"[{i}] FAILED ({result.error_type}): {result.message}"
                  f" after {result.elapsed:.3f}s ({result.algorithm})",
                  file=chat)
            continue
        via = outcome.fallbacks[i]
        suffix = f" (fallback: {via})" if via else ""
        print(f"[{i}] {result.algorithm}: DPS of {result.size} vertices"
              f" in {result.seconds:.3f}s{suffix}", file=chat)
    print(f"batch: {len(queries)} queries in {outcome.seconds:.3f}s"
          f" ({outcome.queries_per_second:.1f} q/s,"
          f" jobs={outcome.jobs} effective={outcome.effective_jobs})",
          file=chat)
    fellback = sum(1 for f in outcome.fallbacks if f)
    if outcome.failures or fellback or outcome.retries:
        print(f"batch health: {outcome.ok_count} ok,"
              f" {len(outcome.failures)} failed, {fellback} fell back,"
              f" {outcome.retries} chunk retries", file=chat)
    if args.stats_json:
        print(json.dumps(outcome.stats.to_dict(), indent=2))
    elif args.stats:
        print(outcome.stats.render())
    return 0 if not outcome.failures else 1


def _cmd_query(args) -> int:
    network = _load_network(args)
    if args.vertices:
        try:
            DPSQuery.q_query(args.vertices).validate_against(network)
        except ValueError as exc:
            print(f"error: --vertices: {exc}", file=sys.stderr)
            return 2
    if args.batch > 1 or args.jobs > 1 or args.deadline_ms is not None:
        return _cmd_query_batch(args, network)
    query = _parse_query(args, network)
    # With --stats-json, stdout carries only the JSON document (pipe it
    # straight into a tool); the human progress lines move to stderr.
    chat = sys.stderr if args.stats_json else sys.stdout
    print(f"query: {len(query.combined)} points", file=chat)
    want_stats = args.stats or args.stats_json
    qstats = QueryStats() if want_stats else None
    result: DPSResult
    if args.algorithm == "roadpart":
        if not args.index:
            print("error: --algorithm roadpart requires --index",
                  file=sys.stderr)
            return 2
        index = RoadPartIndex.load_binary(args.index, network)
        result = roadpart_dps(index, query, stats=qstats,
                              engine=args.engine, oracle=args.oracle)
    elif args.algorithm == "blq":
        result = bl_quality(network, query, stats=qstats,
                            engine=args.engine)
    elif args.algorithm == "ble":
        result = bl_efficiency(network, query, stats=qstats,
                               engine=args.engine)
    else:
        result = convex_hull_dps(network, query, stats=qstats,
                                 engine=args.engine)
    print(f"{result.algorithm}: DPS of {result.size} vertices"
          f" in {result.seconds:.3f}s  stats={result.stats}", file=chat)
    if args.stats_json:
        print(json.dumps(qstats.to_dict(), indent=2))
    elif args.stats:
        print(qstats.render())
    if args.refine:
        result = convex_hull_dps(network, query, base=result)
        print(f"hull refinement: {result.size} vertices"
              f" in {result.seconds:.3f}s", file=chat)
    if args.verify:
        report = verify_dps(network, result, query, max_sources=25)
        print(f"verification: {report.summary()}", file=chat)
        if not report.ok:
            return 1
    if args.out:
        subgraph, mapping = result.extract(network)
        write_dimacs(subgraph, f"{args.out}.gr", f"{args.out}.co",
                     comment=f"DPS by {result.algorithm}")
        with open(f"{args.out}.vertices", "w", encoding="ascii") as fh:
            json.dump(mapping, fh)
        print(f"wrote {args.out}.gr / {args.out}.co / {args.out}.vertices",
              file=chat)
    return 0


def _cmd_serve(args) -> int:
    """Run the query daemon in the foreground until SIGTERM/SIGINT."""
    import signal
    import threading

    from repro.serve.daemon import DPSDaemon

    network = _load_network(args)
    index = None
    if args.index:
        index = RoadPartIndex.load_binary(args.index, network)
    elif args.algorithm == "roadpart":
        print("error: --algorithm roadpart requires --index",
              file=sys.stderr)
        return 2
    fallback = None
    if args.fallback is not None:
        fallback = tuple(n for n in args.fallback.split(",") if n) \
            if args.fallback else ()
    try:
        daemon = DPSDaemon(network, index, algorithm=args.algorithm,
                           engine=args.engine, oracle=args.oracle,
                           deadline_ms=args.deadline_ms,
                           fallback=fallback,
                           cache_size=args.cache_size,
                           host=args.host, port=args.port,
                           verbose=args.verbose)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    port = daemon.start()
    # The serving thread runs in the background; the main thread parks
    # on an event so signal handlers (main-thread-only) stay trivial --
    # they set the event instead of calling shutdown() re-entrantly.
    stop_event = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop_event.set())
    print(f"serving on http://{args.host}:{port}"
          f" (algorithm={args.algorithm}, engine={args.engine},"
          f" oracle={args.oracle}, cache={args.cache_size},"
          f" index={'yes' if index is not None else 'no'})",
          flush=True)
    stop_event.wait()
    daemon.stop()
    print(f"daemon stopped: {daemon.requests_total} requests served,"
          f" {daemon.cache.hits} cache hits,"
          f" {daemon.failures_total} failures", flush=True)
    return 0


def _cmd_index_convert(args) -> int:
    network = _load_network(args)
    index = RoadPartIndex.load_binary(getattr(args, "in"), network)
    # "none" strips the table; "auto" (re)builds it from the loaded
    # bridges without relabelling.
    index.oracle = build_oracle(network, args.oracle, index.bridges)
    index.save_binary(args.out)
    oracle_kind = "none" if index.oracle is None else index.oracle.kind
    print(f"wrote {args.out} (l={index.border_count},"
          f" |R|={index.regions.region_count},"
          f" bridges={len(index.bridges)}, oracle={oracle_kind})")
    _note_refused_table(network, index, args.oracle, sys.stdout)
    return 0


def _note_refused_table(network, index, policy: str, stream) -> None:
    """Say why ``--oracle auto`` attached no table to a bridged index:
    a relaxation could absorb an edge, so RoadPart answers with the
    dual heap."""
    if policy != "auto" or index.oracle is not None or not index.bridges:
        return
    from repro.shortestpath.oracle import table_obstacle
    obstacle = table_obstacle(network)
    if obstacle is not None:
        print(f"oracle: none: {obstacle}; RoadPart answers with the dual"
              f" heap", file=stream)


def _cmd_index_info(args) -> int:
    from repro.core.roadpart import binfmt

    path = getattr(args, "in")
    header = binfmt.read_header(path)
    print(f"format:      {binfmt.FORMAT_NAME} (version {header.version})")
    print(f"vertices:    {header.num_vertices}")
    print(f"borders (l): {header.border_count}")
    print(f"regions:     {header.region_count}")
    print(f"bridges:     {header.bridge_count}")
    count = binfmt.read_oracle_meta(path, header)
    if count is None:
        print("oracle:      none")
    else:
        # The endpoint count and the row bytes keep the |endpoints| x
        # |V| size trade visible.
        print(f"oracle:      hub (endpoint tree table: {count} endpoints;"
              f" dist rows {header.sections[b'ordist'][1]} bytes)")
    for tag, (offset, length) in header.sections.items():
        print(f"section {tag.decode('ascii'):<9}"
              f" offset={offset} bytes={length}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distance-preserving subgraph queries on road"
                    " networks (ICDE 2013 reproduction)")
    parser.add_argument("--version", action="version",
                        version=_version_line())
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic network")
    gen.add_argument("--kind", choices=["grid", "ring", "delaunay",
                                        "multi-city"], default="grid")
    gen.add_argument("--columns", type=int, default=40)
    gen.add_argument("--rows", type=int, default=40)
    gen.add_argument("--bridges", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True,
                     help="output path prefix (.gr/.co appended)")
    gen.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="network statistics + validation")
    stats.add_argument("--graph", required=True)
    stats.add_argument("--coords", required=True)
    stats.set_defaults(func=_cmd_stats)

    build = sub.add_parser("build-index", help="build a RoadPart index")
    build.add_argument("--graph", required=True)
    build.add_argument("--coords", required=True)
    build.add_argument("--borders", type=_border_count, default=10,
                       help="number of border vertices (l), at least 2")
    build.add_argument("--contour", choices=["walk", "walk-planar",
                                             "hull"], default="walk")
    build.add_argument("--out", required=True,
                       help="index file to write"
                            " (roadpart-index-bin-v4, whatever the"
                            " extension)")
    build.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the labelling rounds"
                            " and the oracle table (fork-based; the"
                            " index is byte-identical to --jobs 1)")
    build.add_argument("--engine", choices=list(ENGINES),
                       default="flat",
                       help="A* kernel for the cuts (byte-identical"
                            " index with either engine; the oracle table"
                            " always runs the flat kernel)")
    build.add_argument("--oracle", choices=list(ORACLE_POLICIES),
                       default="auto",
                       help="bridge-domain oracle to precompute (auto:"
                            " the endpoint tree table when the network"
                            " has bridges)")
    build.add_argument("--stats", action="store_true",
                       help="print the nested build-phase trace")
    build.add_argument("--stats-json", action="store_true",
                       help="print the build trace as JSON")
    build.set_defaults(func=_cmd_build_index)

    query = sub.add_parser("query", help="answer a DPS query")
    query.add_argument("--graph", required=True)
    query.add_argument("--coords", required=True)
    query.add_argument("--index",
                       help="RoadPart index file (roadpart-index-bin-v4,"
                            " written by build-index)")
    query.add_argument("--algorithm", choices=["roadpart", "blq", "ble",
                                               "hull"],
                       default="roadpart")
    query.add_argument("--epsilon", type=_epsilon, default=0.1,
                       help="query window size as a fraction of the map,"
                            " in (0, 1]")
    query.add_argument("--seed", type=int, default=0,
                       help="window placement seed")
    query.add_argument("--vertices", type=_vertex_ids,
                       help="comma-separated vertex ids (0-based,"
                            " overrides --epsilon)")
    query.add_argument("--refine", action="store_true",
                       help="refine the answer with the convex hull"
                            " method")
    query.add_argument("--verify", action="store_true",
                       help="check distance preservation before writing")
    query.add_argument("--out",
                       help="output path prefix for the DPS"
                            " (.gr/.co/.vertices appended)")
    query.add_argument("--engine", choices=list(ENGINES),
                       default="flat",
                       help="SSSP kernel (identical answers with either"
                            " engine)")
    query.add_argument("--oracle", choices=list(ORACLE_POLICIES),
                       default="auto",
                       help="bridge-domain oracle policy (auto: answer"
                            " bridges from the index's table when it"
                            " carries one; none: dual-heap search;"
                            " identical DPS either way)")
    query.add_argument("--batch", type=int, default=1,
                       help="answer N window queries (seeds --seed ..."
                            " --seed+N-1) through the repro.serve batch"
                            " driver")
    query.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --batch (fork-based;"
                            " answers are byte-identical to --jobs 1)")
    query.add_argument("--deadline-ms", type=_deadline_ms, default=None,
                       help="per-query wall-clock budget in ms; a blown"
                            " budget degrades down the fallback cascade"
                            " (routes through the batch driver)")
    query.add_argument("--fallback", default=None,
                       help="comma-separated fallback algorithms for"
                            " --deadline-ms (default: ble; empty string"
                            " disables fallback)")
    query.add_argument("--max-retries", type=int, default=2,
                       help="worker-crash chunk retries per batch")
    query.add_argument("--stats", action="store_true",
                       help="print phase timings and search counters")
    query.add_argument("--stats-json", action="store_true",
                       help="print phase timings and counters as JSON")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser("serve", help="run the HTTP query daemon"
                                         " (see docs/serving.md)")
    serve.add_argument("--graph", required=True)
    serve.add_argument("--coords", required=True)
    serve.add_argument("--index",
                       help="RoadPart index file (roadpart-index-bin-v4,"
                            " mmap-loaded)")
    serve.add_argument("--algorithm", choices=["roadpart", "blq", "ble",
                                               "hull"],
                       default="roadpart",
                       help="default algorithm when a request names"
                            " none")
    serve.add_argument("--engine", choices=list(ENGINES),
                       default="flat",
                       help="SSSP kernel (identical answers with either"
                            " engine)")
    serve.add_argument("--oracle", choices=list(ORACLE_POLICIES),
                       default="auto",
                       help="bridge-domain oracle policy; part of every"
                            " cache key")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8180,
                       help="listen port (0 picks an ephemeral port,"
                            " printed on the startup line)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="LRU result-cache entries (0 disables"
                            " caching)")
    serve.add_argument("--deadline-ms", type=_deadline_ms, default=None,
                       help="default per-request budget; requests may"
                            " override")
    serve.add_argument("--fallback", default=None,
                       help="default fallback cascade (comma-separated;"
                            " empty string disables)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request to stderr")
    serve.set_defaults(func=_cmd_serve)

    index_cmd = sub.add_parser("index",
                               help="inspect RoadPart index files and"
                                    " attach or strip their table")
    index_sub = index_cmd.add_subparsers(dest="index_command",
                                         required=True)
    convert = index_sub.add_parser(
        "convert", help="attach or strip an index's endpoint tree table"
                        " without relabelling")
    convert.add_argument("--graph", required=True)
    convert.add_argument("--coords", required=True)
    convert.add_argument("--in", required=True, help="source index")
    convert.add_argument("--out", required=True)
    convert.add_argument("--oracle", choices=list(ORACLE_POLICIES),
                         required=True,
                         help="auto: (re)build the table from the"
                              " index's bridges; none: strip it")
    convert.set_defaults(func=_cmd_index_convert)
    info = index_sub.add_parser(
        "info", help="describe an index file without loading payloads")
    info.add_argument("--in", required=True)
    info.set_defaults(func=_cmd_index_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
