"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments fig6_06          # one experiment
    python -m repro.experiments all              # everything
    python -m repro.experiments --list
    python -m repro.experiments fig6_06 --trace out.json   # Chrome trace

``REPRO_TRIALS`` / ``REPRO_DATA_MB`` scale run size (paper scale:
``REPRO_TRIALS=100 REPRO_DATA_MB=1024``).  ``-j N`` fans the run's
``(plan, scheme)`` jobs over N worker processes, and results are memoized
in the content-addressed ``.repro-cache/`` store (``--no-cache`` /
``--cache-dir`` to opt out or relocate; ``python -m repro.exec`` for
cache stats and GC).  ``--trace`` installs a live
:class:`repro.obs.Tracer` for the run and writes a Chrome
``trace_event``-format JSON (open in ``chrome://tracing`` or Perfetto);
traced runs execute sequentially and uncached — the trace's single global
timeline only exists in one process.  ``--trace-detail`` adds
per-block spans (large!).  Inspect a written trace with
``python -m repro.obs.report out.json``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import REGISTRY


def expand_ids(ids: list[str]) -> list[str]:
    """Expand ``all`` (anywhere in the list) and drop duplicates.

    Order is preserved: the first occurrence of each id wins, and ``all``
    splices the registry order in at its position.
    """
    expanded: list[str] = []
    for token in ids:
        expanded.extend(REGISTRY) if token == "all" else expanded.append(token)
    seen: set[str] = set()
    return [i for i in expanded if not (i in seen or seen.add(i))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the RobuSTore evaluation tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (or 'all')")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiment jobs over N worker processes (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default .repro-cache or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each sweep experiment's series as CSV into DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a Chrome trace_event JSON of the run into PATH",
    )
    parser.add_argument(
        "--trace-detail",
        action="store_true",
        help="include per-block spans in the trace (much larger output)",
    )
    parser.add_argument(
        "--engine",
        choices=("closed", "event"),
        default=None,
        help="simulation engine for every access (default: $REPRO_ENGINE or closed)",
    )
    args = parser.parse_args(argv)

    if args.list or not args.ids:
        for name in REGISTRY:
            print(name)
        return 0

    ids = expand_ids(args.ids)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.trace_detail and not args.trace:
        parser.error("--trace-detail requires --trace")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.csv:
        _preflight_csv_dir(parser, args.csv)

    if args.engine:
        # TrialPlan defaults its engine field from REPRO_ENGINE, so setting
        # the variable threads the choice through every run_scheme call
        # (including ones executed in -j worker processes).
        import os

        os.environ["REPRO_ENGINE"] = args.engine

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        try:
            # Fail before the run, not after it: a long experiment whose
            # trace can't be written is a wasted run.
            with open(args.trace, "w"):
                pass
        except OSError as exc:
            parser.error(f"cannot write trace file: {exc}")
        tracer = Tracer(detail=args.trace_detail)
        if args.jobs > 1:
            print(
                "[exec] --trace forces sequential, uncached execution"
                " (one process owns the trace timeline); ignoring -j",
                file=sys.stderr,
            )

    from repro.exec import Executor, ResultStore, use_executor

    store = None if args.no_cache else ResultStore(args.cache_dir)
    executor = Executor(
        jobs=args.jobs, store=store, progress=sys.stderr.isatty()
    )
    with use_executor(executor):
        for exp_id in ids:
            t0 = time.perf_counter()
            if tracer is not None:
                from repro.obs import use_tracer

                with use_tracer(tracer):
                    result = REGISTRY[exp_id]()
            else:
                result = REGISTRY[exp_id]()
            elapsed = time.perf_counter() - t0
            print(f"\n=== {exp_id} ({elapsed:.1f}s) " + "=" * 40)
            print(result.text())
            if args.csv:
                path = write_csv(result, exp_id, args.csv)
                if path:
                    print(f"[csv] {path}")

    if executor.stats.submitted:
        print(f"[exec] {executor.stats.summary()}", file=sys.stderr)

    if tracer is not None:
        from repro.obs import TraceReport

        tracer.write_chrome(args.trace)
        print()
        print(TraceReport.from_tracer(tracer).render())
        print(f"[trace] {args.trace}")
    return 0


def _preflight_csv_dir(parser: argparse.ArgumentParser, directory: str) -> None:
    """Fail before the run if the CSV directory can't be created/written."""
    import os

    try:
        os.makedirs(directory, exist_ok=True)
        probe = os.path.join(directory, ".csv-writable")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        parser.error(f"cannot write CSV directory {directory!r}: {exc}")


def write_csv(result, exp_id: str, directory: str) -> str | None:
    """Write an ExperimentResult's three metric series as one CSV file.

    Non-sweep results (plain tables) are skipped; returns the file path or
    ``None``.
    """
    import csv
    import os

    from repro.metrics.reporting import METRIC_COLUMNS

    if not hasattr(result, "series") or not hasattr(result, "xs"):
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{exp_id}.csv")
    metrics = tuple(name for name, _label in METRIC_COLUMNS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "x"] + list(metrics))
        series = {m: result.series(m) for m in metrics}
        for scheme in series[metrics[0]]:
            for i, x in enumerate(result.xs):
                writer.writerow(
                    [scheme, x] + [series[m][scheme][i] for m in metrics]
                )
    return path


if __name__ == "__main__":
    raise SystemExit(main())
