"""Command-line front end: analyze, table, transient, simulate, track, report.

All subcommands are deterministic: a rerun with the same inputs, seed and
flags writes byte-identical artifacts. Exit codes: 0 success, 1 domain or
validation error, 2 I/O error (missing or unreadable files).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from . import chains, ctmc, mapgraph, pipeline, profiles, svgplot


@contextlib.contextmanager
def _artifact(path: Path) -> Iterator[TextIO]:
    """Open ``path`` for writing (UTF-8, LF line endings) and report it once written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh
    print(f"wrote {path}")


def _write(path: Path, text: str) -> None:
    with _artifact(path) as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> mapgraph.PathGraph:
    return mapgraph.load_map(_read(path))


def _resolve_profile(args: argparse.Namespace) -> profiles.WalkingProfile:
    if getattr(args, "profile_config", None):
        return profiles.load_profile(_read(args.profile_config))
    return profiles.get_profile(args.profile)


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _too_dense(args: argparse.Namespace, n: int) -> ValueError:
    """The error for a MemoryError from the dense n x n algebra of ``--map``'s walk."""
    return ValueError(f"--map {args.map}: {n} states do not fit the dense algebra in memory "
                      f"(one n x n matrix needs {8 * n * n} bytes)")


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.map)
    P = mapgraph.random_walk_matrix(g)
    try:  # before any artifact is written
        report = chains.analyze(P)
        H = chains.hitting_times(P) if report.irreducible and g.n <= 50 else None
    except MemoryError:
        raise _too_dense(args, g.n) from None
    out = Path(args.out_dir)

    if not report.irreducible:
        print("warning: walk chain is reducible; stationary and mixing fields omitted",
              file=sys.stderr)

    degree_sum = mapgraph.degree_sum(g)
    summary = [
        ("n_vertices", g.n),
        ("n_edges", degree_sum // 2),
        ("degree_sum", degree_sum),
        ("irreducible", report.irreducible),
        ("n_classes", len(report.classes)),
        ("mixing_rate", report.mixing_rate),
        ("mixing_time", report.mixing_time),
    ]
    lines = ["key,value"] + [f"{k},{_fmt_value(v)}" for k, v in summary]
    _write(out / "analysis_summary.csv", "\n".join(lines) + "\n")

    class_of = {}
    for cid, members in enumerate(report.classes):
        for v in members:
            class_of[v] = cid
    lines = ["vertex,class_id,closed,period"]
    for v in range(g.n):
        cid = class_of[v]
        lines.append(f"{v},{cid},{_fmt_value(report.closed[cid])},{report.periods[cid]}")
    _write(out / "classes.csv", "\n".join(lines) + "\n")

    with _artifact(out / "transition.csv") as fh:
        chains.matrix_to_csv(P, fh)

    if report.irreducible:
        lines = ["vertex,probability"]
        lines += [f"{v},{float(p)!r}" for v, p in enumerate(report.stationary.probs)]
        _write(out / "stationary.csv", "\n".join(lines) + "\n")
        if H is not None:
            with _artifact(out / "hitting.csv") as fh:
                chains.array_to_csv(H, fh)
            with _artifact(out / "commute.csv") as fh:
                chains.array_to_csv(H + H.T, fh)
    return 0


def _table_rows(path: str | None, mode: str) -> tuple[profiles.ComparisonTable, list[int]]:
    """Comparison table of a distances file and the file line of each row.

    Without a file: the built-in survey, with no lines. An error names the file
    line: a token that is not a number, or a distance that is negative, not
    finite, or whose travel time overflows.
    """
    if path is None:
        return profiles.comparison_table(profiles.SURVEY_DISTANCES_M, mode=mode), []
    numbered = pipeline.numbered_lines(_read(path))
    values = []
    for k, line in numbered:
        token = line.strip()
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"distances file line {k}: not a number: {token!r}") from None
    lines = [k for k, _ in numbered]
    if not values:
        raise ValueError("distances file contains no values")
    try:
        return profiles.comparison_table(values, mode=mode), lines
    except profiles.DistanceError as exc:
        raise ValueError(f"distances file line {lines[exc.row]}: {exc}") from None


def _table_svg(rows: profiles.ComparisonTable) -> str:
    order = np.argsort(rows.distance, kind="stable")
    xs = rows.distance[order]
    return svgplot.line_plot(
        [("normal", xs, rows.normal_time[order]),
         ("blind", xs, rows.blind_time[order])],
        title="Walking time by segment length",
        xlabel="distance (m)",
        ylabel="time (s)",
    )


def cmd_table(args: argparse.Namespace) -> int:
    rows, _ = _table_rows(args.distances, args.mode)
    csv, svg = profiles.table_to_csv(rows), _table_svg(rows)  # both before writing, as in report
    out = Path(args.out_dir)
    _write(out / "walking_table.csv", csv)
    _write(out / "walking_table.svg", svg)
    return 0


def cmd_transient(args: argparse.Namespace) -> int:
    g = _load_graph(args.map)
    P = mapgraph.random_walk_matrix(g)
    chain = ctmc.UniformizedChain(jump_chain=P, rate=args.rate)
    try:  # before any artifact is written
        Q = ctmc.generator(chain)
        Pt = ctmc.transient(chain, args.time, tol=args.tolerance)
    except ctmc.PoissonWindowError as exc:
        raise ValueError(f"--tolerance {args.tolerance!r} cannot be met: {exc}") from exc
    except MemoryError:
        raise _too_dense(args, g.n) from None
    out = Path(args.out_dir)
    with _artifact(out / "generator.csv") as fh:
        chains.array_to_csv(Q.entries, fh)
    with _artifact(out / "transient.csv") as fh:
        chains.matrix_to_csv(Pt, fh)
    return 0


def _walk_trace(args: argparse.Namespace, g: mapgraph.PathGraph, P: chains.StochasticMatrix,
                profile: profiles.WalkingProfile) -> pipeline.Trace:
    """The walk of --steps steps from --start, with --noise-sigma noise when it is > 0."""
    if not (math.isfinite(args.noise_sigma) and args.noise_sigma >= 0):
        raise ValueError(f"--noise-sigma must be finite and >= 0, got {args.noise_sigma!r}")
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    if args.seed < 0:  # numpy's own error names no flag
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    try:
        if args.steps >= sys.maxsize // 8:  # steps + 1 int64s past numpy's byte limit
            raise MemoryError
        trace = pipeline.simulate_walk(g, P, profile, start=args.start, n_steps=args.steps,
                                       seed=args.seed)
    except MemoryError:
        raise ValueError(f"--steps {args.steps}: a walk this long does not fit in memory") from None
    if args.noise_sigma > 0:
        try:
            trace = pipeline.add_noise(trace, args.noise_sigma, seed=args.seed + 1)
        except ValueError as exc:  # noise so wide that fixes leave the float range
            raise ValueError(f"--noise-sigma {args.noise_sigma!r}: {exc}") from None
    return trace


def cmd_simulate(args: argparse.Namespace) -> int:
    g = _load_graph(args.map)
    P = mapgraph.random_walk_matrix(g)
    trace = _walk_trace(args, g, P, _resolve_profile(args))
    with _artifact(Path(args.out_dir) / "trace.csv") as fh:
        pipeline.trace_to_csv(trace, fh)
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    g = _load_graph(args.map)
    P = mapgraph.random_walk_matrix(g)
    profile = _resolve_profile(args)
    obstacles = pipeline.obstacles_from_json(_read(args.obstacles)) if args.obstacles else []
    out = Path(args.out_dir)

    if args.trace:
        text = _read(args.trace)
        trace = pipeline.trace_from_csv(text)
        lines = [k for k, _ in pipeline.numbered_lines(text)[1:]]  # the file line of each fix
    else:
        trace = _walk_trace(args, g, P, profile)

    errors = ["method,mean_error_m"]
    has_truth = trace.has_truth()
    try:  # before any artifact is written: localization_error validates the truth vertices
        snapped = pipeline.snap(trace, g)
        smoothed = pipeline.smooth(trace, g, P, emission_sigma=args.emission_sigma)
        if has_truth:
            errors.append(f"snap,{pipeline.localization_error(snapped, trace, g)!r}")
            errors.append(f"smooth,{pipeline.localization_error(smoothed, trace, g)!r}")
    except pipeline.FixError as exc:  # name the fix's line, or the noise that put it there
        source = (f"trace line {lines[exc.fix]}" if args.trace else
                  f"--noise-sigma {args.noise_sigma!r}")
        raise ValueError(f"{source}: {exc}") from None
    errors.append(f"reference_prototype,{pipeline.REFERENCE_FIELD_ERROR_M!r}")

    pos = g.positions()
    times = trace.t.tolist()
    events: list[pipeline.AlertEvent] = []
    blocked: set[int] = set()
    for k in pipeline.scan_obstacles(pos[smoothed], trace.t, obstacles, args.safer_distance):
        t, v = times[k], smoothed[k]
        try:
            warnings = pipeline.detect(mapgraph.LocalPoint(*pos[v].tolist()), t, obstacles, profile,
                                       safer_distance=args.safer_distance)
        except pipeline.ObstacleRangeError as exc:  # name the fix's time by its line
            if not args.trace:
                raise
            raise ValueError(f"trace line {lines[k]}: {exc}") from None
        if warnings:
            events.extend(warnings)
            events.append(pipeline.AlertEvent(
                t=t, kind="hold_position", distance=warnings[0].distance,
                message=f"holding at vertex {v}; obstacle within {args.safer_distance:g} m",
            ))
            blocked.add(v)
    events.append(pipeline.AlertEvent(
        t=times[-1], kind="destination_reached", distance=0.0,
        message=f"destination vertex {smoothed[-1]} reached",
    ))

    log_path = out / "alerts.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    sinks = [pipeline.FileSink(log_path, fresh=True)]  # this run's events only
    if args.webhook:
        sinks.append(pipeline.WebhookSink(args.webhook))
    report = pipeline.dispatch(events, sinks)
    print(f"wrote {log_path}")

    cols = [times, snapped, smoothed, pos[smoothed, 0].tolist(), pos[smoothed, 1].tolist()]
    header, row = "t_s,snap_vertex,smooth_vertex,x_m,y_m", "%r,%d,%d,%r,%r"
    if has_truth:
        cols.append(trace.truth.tolist())
        header, row = header + ",truth_vertex", row + ",%d"
    _write(out / "path.csv", "\n".join([header, *map(row.__mod__, zip(*cols))]) + "\n")

    _write(out / "summary.csv", "\n".join(errors) + "\n")

    if blocked:
        held = pipeline.hold_on_obstacle(P, blocked)
        with _artifact(out / "held_transition.csv") as fh:
            chains.matrix_to_csv(held, fh)

    delivery = {
        s.sink: {"delivered": s.delivered, "failed": s.failed} for s in report.sinks
    }
    _write(out / "delivery.json", json.dumps(delivery, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows, lines = _table_rows(args.distances, args.mode)
    totals = np.zeros((3, rows.distance.size + 1))  # running sums from 0.0, added in row order
    totals[0, 1:], totals[1, 1:], totals[2, 1:] = rows.distance, rows.normal_time, rows.blind_time
    with np.errstate(over="ignore"):  # an overflow is the inf tested below
        cum_d, cum_n, cum_b = np.cumsum(totals, axis=1)
    if math.isinf(cum_b[-1]):  # the largest column: blind >= normal, and >= distance at 4.66 s/m
        raise ValueError(f"distances file line {lines[int(np.argmax(np.isinf(cum_b))) - 1]}: "
                         "running blind time total overflows")
    # every artifact is made before the first is written, so the numpy work runs in one
    # stretch: file writes between its calls leave each one to start cold
    texts = {
        "walking_table.csv": profiles.table_to_csv(rows),
        "segment_distances.svg": svgplot.line_plot(
            [("segment length", np.arange(1.0, rows.distance.size + 1), rows.distance)],
            title="Surveyed segment lengths",
            xlabel="segment",
            ylabel="distance (m)",
        ),
        "travel_times.svg": _table_svg(rows),
        "walk_progress.svg": svgplot.line_plot(
            [("normal", cum_n, cum_d), ("blind", cum_b, cum_d)],
            title="Cumulative progress along the full route",
            xlabel="time (s)",
            ylabel="distance covered (m)",
        ),
    }
    for name, text in texts.items():
        _write(Path(args.out_dir) / name, text)
    return 0


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=profiles.MODES, default=profiles.MODE_EXACT,
                   help="timing arithmetic mode (default exact)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="directory for written artifacts")
    walk = argparse.ArgumentParser(add_help=False, parents=[common])  # simulate and track
    walk.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")
    walk.add_argument("--map", required=True, help="path to a JSON map document")
    walk.add_argument("--start", type=int, default=0)
    walk.add_argument("--steps", type=int, default=100)
    walk.add_argument("--profile-config", default=None, help="JSON profile config path")
    walk.add_argument("--noise-sigma", type=float, default=0.0, help="Gaussian fix noise (m)")

    parser = argparse.ArgumentParser(
        prog="walkchain",
        description="Markov-chain walking simulation and localization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="structural chain analysis of a map's random walk")
    p.add_argument("--map", required=True, help="path to a JSON map document")

    p = sub.add_parser("table", parents=[common],
                       help="normal-vs-blind walking time table and plot")
    p.add_argument("--distances", required=True, help="file with one distance (m) per line")
    _add_mode(p)

    p = sub.add_parser("transient", parents=[common],
                       help="continuous-time transient law of the walk chain")
    p.add_argument("--map", required=True)
    p.add_argument("--rate", type=float, required=True, help="Poisson event rate (1/s)")
    p.add_argument("--time", type=float, required=True, help="elapsed time t (s)")
    p.add_argument("--tolerance", type=float, default=ctmc.DEFAULT_TAIL_TOL,
                   help="Poisson tail mass left out of the series")

    # each declares its own --profile: parents share Action objects, and so their defaults
    p = sub.add_parser("simulate", parents=[walk], help="simulate a walk trace")
    p.add_argument("--profile", default="normal", help="built-in profile name")

    p = sub.add_parser("track", parents=[walk],
                       help="full pipeline: decode a trace, scan obstacles, send alerts")
    p.add_argument("--profile", default="blind", help="built-in profile name")
    p.add_argument("--trace", default=None, help="trace CSV (otherwise simulate one)")
    p.add_argument("--emission-sigma", type=float, default=1.0,
                   help="smoothing emission scale (m)")
    p.add_argument("--safer-distance", type=float, default=pipeline.DEFAULT_SAFER_DISTANCE_M,
                   help="alerting radius around the walker (m)")
    p.add_argument("--obstacles", default=None, help="JSON obstacle file")
    p.add_argument("--webhook", default=None, help="optional alert webhook URL")

    p = sub.add_parser("report", parents=[common],
                       help="regenerate survey table and distance/time figures")
    p.add_argument("--distances", default=None,
                   help="file with one distance (m) per line (default: built-in survey)")
    _add_mode(p)

    return parser


#: the parser ``main`` reuses: built on its first call, not at import
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # schema, validation and domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
