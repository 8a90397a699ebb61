#!/usr/bin/env python3
"""End-to-end demo on the bundled campus map: walk, smooth, alert.

    python3 scripts/campus_demo.py --steps 40 --noise-sigma 1.0
"""

import argparse
from pathlib import Path

from walkchain import (
    BLIND,
    FileSink,
    LocalPoint,
    add_noise,
    analyze,
    detect,
    dispatch,
    load_map,
    localization_error,
    obstacles_from_json,
    random_walk_matrix,
    simulate_walk,
    smooth,
    snap,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--noise-sigma", type=float, default=1.0)
    ap.add_argument("--safer-distance", type=float, default=5.0)
    ap.add_argument("--alerts-file", type=Path, default=None,
                    help="also append alerts to this TSV file")
    args = ap.parse_args()

    g = load_map((DATA / "campus_map.json").read_text())
    P = random_walk_matrix(g)
    report = analyze(P)
    print(f"map: {g.n} vertices, irreducible={len(report.classes) == 1}, "
          f"mixing_time={report.mixing_time}")

    tr = simulate_walk(g, P, BLIND, start=args.start, n_steps=args.steps, seed=args.seed)
    noisy = add_noise(tr, sigma=args.noise_sigma, seed=args.seed + 1)
    est_snap = snap(noisy, g)
    est_smooth = smooth(noisy, g, P, emission_sigma=max(args.noise_sigma, 1e-6))
    print(f"localization error: snap={localization_error(est_snap, noisy, g):.4f} m, "
          f"smooth={localization_error(est_smooth, noisy, g):.4f} m")

    obstacles = obstacles_from_json((DATA / "obstacles.json").read_text())
    events = []
    pos = g.positions()
    for t, v in zip(noisy.t.tolist(), est_smooth):
        events.extend(detect(LocalPoint(*pos[v].tolist()), t, obstacles, BLIND,
                             safer_distance=args.safer_distance))
    print(f"{len(events)} alert(s) along the smoothed path:")
    for ev in events:
        print(f"  t={ev.t:8.2f}s  {ev.kind:>10}  {ev.distance:6.2f} m  {ev.message}")

    if args.alerts_file is not None:
        delivery = dispatch(events, [FileSink(args.alerts_file)])
        for sink in delivery.sinks:
            print(f"sink {sink.sink}: delivered={sink.delivered} failed={sink.failed}")


if __name__ == "__main__":
    main()
