"""Command-line interface for the D3L reproduction.

Five subcommands cover the library's deployment workflow:

* ``generate`` — materialise a benchmark corpus (Synthetic or real-style) as
  a directory of CSV files plus a ground-truth JSON file;
* ``stats``    — print Figure-2-style statistics of a CSV lake;
* ``index``    — profile and index a CSV lake and persist the engine;
* ``query``    — load a persisted engine and answer a discovery query for a
  target CSV, optionally following join paths;
* ``serve``    — load a persisted engine and answer ``POST /query`` HTTP
  traffic over the ``d3l.query_response/v1`` wire format until interrupted;
* ``check``    — run the AST-based invariant checker (and optionally the
  lint pass) over the source tree; ``--strict`` is the tier-1 CI mode.

Example session::

    python -m repro.cli generate --kind real --output ./lake --families 10
    python -m repro.cli index --lake ./lake/csv --output ./engine.pkl
    python -m repro.cli query --engine ./engine.pkl --target my_target.csv -k 10 --joins
    python -m repro.cli serve --engine ./engine.pkl --port 8080 --workers 4
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.config import D3LConfig, require_positive
from repro.core.discovery import D3L
from repro.core.persistence import PersistenceError, load_engine, save_engine
from repro.datagen.real_benchmark import RealBenchmarkConfig, generate_real_benchmark
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.evaluation.reporting import render_rows
from repro.lake.datalake import DataLake
from repro.tables.csv_io import read_csv


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D3L dataset discovery over data lakes (ICDE 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a benchmark corpus as CSV files plus ground truth"
    )
    generate.add_argument("--kind", choices=["synthetic", "real"], default="real")
    generate.add_argument("--output", required=True, help="directory to write the corpus into")
    generate.add_argument("--families", type=int, default=12,
                          help="base tables (synthetic) or topic families (real)")
    generate.add_argument("--tables-per-family", type=int, default=10)
    generate.add_argument("--seed", type=int, default=0)

    stats = subparsers.add_parser("stats", help="print statistics of a CSV lake")
    stats.add_argument("--lake", required=True, help="directory of CSV files")

    index = subparsers.add_parser("index", help="index a CSV lake and persist the engine")
    index.add_argument("--lake", required=True, help="directory of CSV files")
    index.add_argument("--output", required=True, help="path of the persisted engine (.pkl)")
    index.add_argument("--num-hashes", type=int, default=256)
    index.add_argument("--threshold", type=float, default=0.7)
    index.add_argument("--embedding-dimension", type=int, default=64)
    index.add_argument("--max-rows", type=int, default=None,
                       help="cap on rows read per CSV file")
    index.add_argument("--workers", type=int, default=1,
                       help="worker processes for sharded index construction")

    query = subparsers.add_parser("query", help="query a persisted engine with a target CSV")
    query.add_argument("--engine", required=True, help="path of the persisted engine")
    query.add_argument("--target", required=True, help="CSV file holding the target table")
    query.add_argument("-k", type=int, default=10, help="answer size")
    query.add_argument("--joins", action="store_true", help="also report SA-join paths")
    query.add_argument("--include-self", action="store_true",
                       help="keep a lake table with the target's name in the answer")
    query.add_argument("--evidence", default=None,
                       help="comma-separated evidence subset (codes N,V,F,E,D "
                            "or names like name,value); default: all five")
    query.add_argument("--explain", action="store_true",
                       help="include the per-evidence distance decomposition "
                            "(Equation 2) in the answer")
    query.add_argument("--json", action="store_true",
                       help="emit the answer as QueryResponse JSON instead of "
                            "a rendered table")

    serve = subparsers.add_parser(
        "serve", help="serve a persisted engine over HTTP until interrupted"
    )
    serve.add_argument("--engine", required=True, help="path of the persisted engine")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=4,
                       help="serving sessions answering requests concurrently")
    serve.add_argument("--cache-size", type=int, default=64,
                       help="per-session target-profile cache capacity")
    serve.add_argument("--backend", choices=["thread", "process"], default="thread",
                       help="serving concurrency model: an in-process session "
                            "pool (thread) or snapshot-attached worker "
                            "processes that lift the GIL ceiling (process)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    check = subparsers.add_parser(
        "check", help="run the static invariant checker over the source tree"
    )
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to check (default: src)")
    check.add_argument("--strict", action="store_true",
                       help="exit 1 when any violation is found (tier-1 mode)")
    check.add_argument("--select", default=None,
                       help="comma-separated rule codes to run, e.g. R1,R3")
    check.add_argument("--lint", action="store_true",
                       help="also run the pyflakes-or-fallback lint pass")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule table and exit")

    return parser


def _load_engine_or_fail(path: str) -> Optional[D3L]:
    """Load a persisted engine, printing a message (not a traceback) on failure."""
    try:
        return load_engine(path)
    except (PersistenceError, FileNotFoundError, ValueError, OSError) as error:
        print(error, file=sys.stderr)
        return None


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #


def _command_generate(args: argparse.Namespace) -> int:
    output = Path(args.output)
    if args.kind == "synthetic":
        corpus = generate_synthetic_benchmark(
            SyntheticBenchmarkConfig(
                num_base_tables=args.families,
                tables_per_base=args.tables_per_family,
                seed=args.seed,
            )
        )
    else:
        corpus = generate_real_benchmark(
            RealBenchmarkConfig(
                num_families=args.families,
                tables_per_family=args.tables_per_family,
                seed=args.seed,
            )
        )
    csv_dir = output / "csv"
    corpus.lake.to_directory(csv_dir)
    truth_path = corpus.ground_truth.to_json(output / "ground_truth.json")
    print(f"Wrote {len(corpus.lake)} tables to {csv_dir}")
    print(f"Wrote ground truth to {truth_path}")
    print(f"Average answer size: {corpus.average_answer_size():.1f}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    try:
        lake = DataLake.from_directory(args.lake)
    except (FileNotFoundError, NotADirectoryError, ValueError, OSError) as error:
        print(error, file=sys.stderr)
        return 1
    if len(lake) == 0:
        print(f"No CSV tables found under {args.lake}", file=sys.stderr)
        return 1
    print(render_rows([lake.describe()], title=f"Lake statistics: {args.lake}"))
    return 0


def _command_index(args: argparse.Namespace) -> int:
    try:
        lake = DataLake.from_directory(args.lake, max_rows=args.max_rows)
    except (FileNotFoundError, NotADirectoryError, ValueError, OSError) as error:
        print(error, file=sys.stderr)
        return 1
    if len(lake) == 0:
        print(f"No CSV tables found under {args.lake}", file=sys.stderr)
        return 1
    config = D3LConfig(
        num_hashes=args.num_hashes,
        lsh_threshold=args.threshold,
        embedding_dimension=args.embedding_dimension,
    )
    # A sharded build opens and closes its own worker pool; the engine is
    # context-managed like every engine handle the CLI opens.
    with D3L(config=config) as engine:
        engine.index_lake(lake, workers=args.workers)
        path = save_engine(engine, args.output)
        sizes = engine.indexes.index_bytes()
    print(f"Indexed {len(lake)} tables ({lake.attribute_count} attributes)")
    print(f"Index sizes (bytes): {sizes}")
    print(f"Persisted engine to {path}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    engine = _load_engine_or_fail(args.engine)
    if engine is None:
        return 1
    # try/finally from the moment the engine exists, so every return below
    # closes it.  close() is idempotent, so the session's own engine
    # teardown composes with it.
    try:
        try:
            target = read_csv(args.target)
        except (FileNotFoundError, ValueError, OSError) as error:
            print(error, file=sys.stderr)
            return 1
        evidence = (
            [code.strip() for code in args.evidence.split(",") if code.strip()]
            if args.evidence
            else None
        )
        # The session dispatches to the batched engine, whose rankings are
        # identical to the sequential path (its oracle) while scoring
        # candidate pools in per-evidence sweeps.
        with DiscoverySession(engine) as session:
            try:
                request = QueryRequest(
                    target=target,
                    k=args.k,
                    evidence=evidence,
                    # The rendered table always lists covered attributes
                    # (which live in the explain payload); the JSON wire
                    # output honours --explain.
                    explain=args.explain if args.json else True,
                    exclude_self=not args.include_self,
                    joins=args.joins,
                )
            except (ValueError, KeyError) as error:
                print(error, file=sys.stderr)
                return 1
            response = session.submit(request)
    finally:
        engine.close()
    if args.json:
        # Emit the requested answer, not the whole candidate ranking the
        # response keeps for k sweeps (pool-sized on large lakes).  The
        # join-paths block is bounded by the same cap as the rendered
        # report, with its truncated flag set when paths were dropped.
        print(json.dumps(response.truncated().to_dict(), indent=2))
        return 0
    rows: List[dict] = []
    for rank, result in enumerate(response.top(), start=1):
        row = {
            "rank": rank,
            "table": result.table_name,
            "distance": round(result.distance, 4),
        }
        if args.explain:
            row["evidence"] = ", ".join(
                f"D{evidence_type.value}={distance:.2f}"
                for evidence_type, distance in (result.evidence_distances or {}).items()
            )
        row["covered_attributes"] = ", ".join(
            sorted(result.covered_target_attributes())
        )
        rows.append(row)
    if not rows:
        print("No related datasets found.")
        return 0
    print(render_rows(rows, title=f"Top-{args.k} datasets related to {target.name}"))

    if args.joins and response.join_paths is not None:
        block = response.join_paths
        suffix = " (truncated)" if block.truncated else ""
        print(f"\nJoin paths found: {len(block.paths)}{suffix}")
        for path in block.paths[:20]:
            print("  " + " -> ".join(path.tables))
        if len(block.paths) > 20:
            print(f"  ... and {len(block.paths) - 20} more")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.core.server import DiscoveryServer

    # Validate every numeric flag up front with the library's own
    # require_positive semantics: bad values exit 1 with a one-line error
    # instead of a traceback deep in session or worker-pool construction.
    try:
        require_positive("--workers", args.workers)
        require_positive("--cache-size", args.cache_size)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    if not 0 <= args.port <= 65535:
        print("--port must be between 0 and 65535 (0 picks a free one)",
              file=sys.stderr)
        return 1
    engine = _load_engine_or_fail(args.engine)
    if engine is None:
        return 1
    # try/finally from the moment the engine exists, so every return below
    # closes it, a DiscoveryServer constructor failure (e.g. the port is
    # already bound) included.  Both close() calls are idempotent, so the
    # normal teardown inside run_until_interrupt composes with them.
    try:
        try:
            server = DiscoveryServer(
                engine,
                host=args.host,
                port=args.port,
                workers=args.workers,
                profile_cache_size=args.cache_size,
                verbose=args.verbose,
                backend=args.backend,
            )
        except OSError as error:  # e.g. the port is taken
            print(f"cannot serve on {args.host}:{args.port}: {error}", file=sys.stderr)
            return 1
        try:
            tables = len(engine.indexes.table_profiles)
            attributes = len(engine.indexes.profiles)
            print(
                f"Serving {tables} tables ({attributes} attributes) "
                f"on http://{server.host}:{server.port} with {args.workers} "
                f"{args.backend} workers (Ctrl-C to stop)",
                flush=True,
            )
            # Blocks until SIGINT/SIGTERM, then closes the sessions or the
            # worker pool (stopping its processes, unlinking its snapshot).
            server.run_until_interrupt()
        finally:
            server.close()
    finally:
        engine.close()
    print("Shut down cleanly.")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    from repro.analysis.checker import run_cli

    return run_cli(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "stats": _command_stats,
        "index": _command_index,
        "query": _command_query,
        "serve": _command_serve,
        "check": _command_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console
    raise SystemExit(main())
