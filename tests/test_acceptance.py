"""End-to-end acceptance checks, one test per shipped criterion.

Each test's docstring first line is echoed as a PASS/FAIL line in the pytest
terminal summary (see conftest). Statistical checks run on frozen seeds; the
expected values were computed once from independent oracles and pinned.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np
import pytest

from walkchain import (
    BLIND,
    NORMAL,
    LocalPoint,
    Obstacle,
    PathGraph,
    StochasticMatrix,
    UniformizedChain,
    add_noise,
    degree_sum,
    detect,
    generator,
    grid_graph,
    hold_on_obstacle,
    localization_error,
    random_walk_matrix,
    sample_arrivals,
    sample_path,
    simulate_walk,
    smooth,
    snap,
    stationary_distribution,
    transient,
    travel_time,
)
from walkchain.cli import main
from walkchain.profiles import MODE_PAPER_ROUNDED, SURVEY_DISTANCES_M

REPO = Path(__file__).resolve().parents[1]
DEMO_MAP = str(REPO / "data" / "campus_map.json")
DEMO_OBSTACLES = str(REPO / "data" / "obstacles.json")

# published 29-segment timing table: (distance m, normal s, blind s)
PUBLISHED_TABLE = (
    (0.0, 0.0, 0.0),
    (26.1, 45.0, 121.62),
    (18.56, 32.0, 86.48),
    (30.7, 52.9, 143.06),
    (22.6, 38.0, 105.31),
    (31.9, 55.0, 148.65),
    (29.0, 50.0, 135.14),
    (38.86, 67.0, 181.08),
    (42.34, 73.0, 197.3),
    (15.66, 27.0, 72.97),
    (16.82, 29.0, 78.38),
    (28.42, 49.0, 132.43),
    (46.44, 80.0, 216.41),
    (69.02, 119.0, 321.63),
    (17.4, 30.0, 81.08),
    (34.8, 60.0, 162.16),
    (20.88, 36.0, 97.3),
    (86.42, 149.0, 402.71),
    (22.04, 38.0, 102.7),
    (25.52, 44.0, 118.92),
    (10.44, 18.0, 48.65),
    (40.6, 70.0, 189.19),
    (69.6, 120.0, 324.33),
    (9.28, 16.0, 43.24),
    (9.28, 16.0, 43.24),
    (26.68, 46.0, 124.32),
    (40.6, 70.0, 189.19),
    (26.15, 45.0, 121.85),
    (32.48, 56.0, 151.35),
)

NORMAL_TOL_S = 1.0  # published normal column mixes rounding conventions
BLIND_TOL_S = 0.05


def test_c01_published_table_reproduction(tmp_path):
    """criterion 01: CLI paper_rounded table matches all 29 published rows (normal +/-1.0 s, blind +/-0.05 s) in under 1 s"""
    assert tuple(d for d, _, _ in PUBLISHED_TABLE) == SURVEY_DISTANCES_M
    distances_file = tmp_path / "distances.txt"
    distances_file.write_text("\n".join(str(d) for d, _, _ in PUBLISHED_TABLE) + "\n",
                              encoding="utf-8")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    rc = main(["table", "--distances", str(distances_file), "--mode", "paper_rounded",
               "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 1.0

    lines = (out / "walking_table.csv").read_text().splitlines()
    assert lines[0] == "distance_m,normal_time_s,blind_time_s"
    assert len(lines) == 1 + len(PUBLISHED_TABLE)
    for line, (d, normal_s, blind_s) in zip(lines[1:], PUBLISHED_TABLE):
        got_d, got_n, got_b = (float(x) for x in line.split(","))
        assert got_d == d
        assert abs(got_n - normal_s) <= NORMAL_TOL_S, f"normal at {d} m: {got_n} vs {normal_s}"
        assert abs(got_b - blind_s) <= BLIND_TOL_S, f"blind at {d} m: {got_b} vs {blind_s}"


def test_c02_worked_examples():
    """criterion 02: 59.16 m takes 102 s +/-0.5 normal and 275.68 s +/-0.05 blind; 5.8 m takes 27 s +/-0.1 blind"""
    assert travel_time(NORMAL, 59.16, MODE_PAPER_ROUNDED) == pytest.approx(102.0, abs=0.5)
    assert travel_time(NORMAL, 59.16) == pytest.approx(102.0, abs=0.5)
    assert travel_time(BLIND, 59.16, MODE_PAPER_ROUNDED) == pytest.approx(275.68, abs=0.05)
    assert travel_time(BLIND, 5.8, MODE_PAPER_ROUNDED) == pytest.approx(27.0, abs=0.1)
    assert travel_time(BLIND, 5.8) == pytest.approx(27.0, abs=0.1)


def _random_connected_graph(seed: int) -> PathGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 31))
    edges = set()
    for i in range(1, n):
        p = int(rng.integers(0, i))
        edges.add((p, i))
    for _ in range(int(1.5 * n)):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return PathGraph([(float(k), 0.0) for k in range(n)], tuple(sorted(edges)))


def test_c03_random_walk_stationarity():
    """criterion 03: on 20 random connected graphs, stationary = degree/2|E| within 1e-10 and 1e5-step occupancy within TV 0.02, in under 10 s"""
    t0 = time.perf_counter()
    for i in range(20):
        g = _random_connected_graph(1000 + i)
        P = random_walk_matrix(g)
        pi = stationary_distribution(P).probs
        expected = g.degrees() / degree_sum(g)
        assert np.abs(pi - expected).max() <= 1e-10

        path = sample_path(P, 0, 100_000, seed=42)
        occupancy = np.bincount(path, minlength=g.n) / path.size
        tv = 0.5 * float(np.abs(occupancy - pi).sum())
        assert tv <= 0.02, f"graph seed {1000 + i}: occupancy TV {tv}"
    assert time.perf_counter() - t0 < 10.0


def test_c04_n_step_factorization():
    """criterion 04: 100 random chains, every split of each power up to 6 agrees within 1e-10"""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(100):
        n_states = int(rng.integers(2, 7))
        M = rng.uniform(0.01, 1.0, size=(n_states, n_states))
        P = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
        powers = [np.linalg.matrix_power(P.entries, n) for n in range(7)]
        for n in range(7):
            for k in range(n + 1):
                worst = max(worst, float(np.abs(powers[n] - powers[k] @ powers[n - k]).max()))
    assert worst < 1e-10


def _mc_hit(adj, u, v, walks, rng) -> np.ndarray:
    samples = np.empty(walks)
    for w in range(walks):
        s, steps = u, 0
        while s != v:
            s = rng.choice(adj[s])
            steps += 1
        samples[w] = steps
    return samples


def _mc_commute(adj, u, v, walks, rng) -> np.ndarray:
    samples = np.empty(walks)
    for w in range(walks):
        s, steps = u, 0
        while s != v:
            s = rng.choice(adj[s])
            steps += 1
        while s != u:
            s = rng.choice(adj[s])
            steps += 1
        samples[w] = steps
    return samples


def test_c05_passage_time_oracle_equivalence():
    """criterion 05: solver hitting/commute times match 1e5-walk Monte Carlo within 3 SE on path/cycle/star/K4; 3-path exact h=4, c=8"""
    from walkchain import commute_time, hitting_time

    def ring(n):
        return {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}

    graphs = {
        "path3": ({0: [1], 1: [0, 2], 2: [1]}, 0, 2),
        "cycle5": (ring(5), 0, 2),
        "star4": ({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}, 1, 2),
        "K4": ({i: [j for j in range(4) if j != i] for i in range(4)}, 0, 1),
    }

    def to_matrix(adj):
        n = len(adj)
        P = np.zeros((n, n))
        for i, nbrs in adj.items():
            for j in nbrs:
                P[i, j] = 1.0 / len(nbrs)
        return StochasticMatrix(P)

    # the 3-path closed forms, exactly
    P3 = to_matrix(graphs["path3"][0])
    assert hitting_time(P3, 0, 2) == pytest.approx(4.0, abs=1e-12)
    assert commute_time(P3, 0, 2) == pytest.approx(8.0, abs=1e-12)

    rng = random.Random(7)
    walks = 100_000
    for name, (adj, u, v) in graphs.items():
        P = to_matrix(adj)
        h_solver = hitting_time(P, u, v)
        c_solver = commute_time(P, u, v)
        hs = _mc_hit(adj, u, v, walks, rng)
        cs = _mc_commute(adj, u, v, walks, rng)
        se_h = hs.std(ddof=1) / np.sqrt(walks)
        se_c = cs.std(ddof=1) / np.sqrt(walks)
        assert abs(hs.mean() - h_solver) <= 3 * se_h, f"{name} hitting"
        assert abs(cs.mean() - c_solver) <= 3 * se_c, f"{name} commute"


def test_c06_uniformization_correctness():
    """criterion 06: flip-chain closed form within 1e-6, exact-zero generator rows, semigroup within 10x tail tol, first-order derivative check at h=1e-3 and 1e-4"""
    FLIP = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rate = 2.0
    chain = UniformizedChain(FLIP, rate)

    for t in (0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0):
        M = transient(chain, t, tol=1e-9).entries
        p00 = (1.0 + np.exp(-2.0 * rate * t)) / 2.0
        assert abs(M[0, 0] - p00) < 1e-6
        assert abs(M[1, 1] - p00) < 1e-6
        assert abs(M[0, 1] - (1.0 - p00)) < 1e-6

    Q = generator(chain).entries
    assert np.all(Q.sum(axis=1) == 0.0)

    tol = 1e-9
    s, t = 0.7, 1.3
    left = transient(chain, s + t, tol=tol).entries
    right = transient(chain, s, tol=tol).entries @ transient(chain, t, tol=tol).entries
    assert np.abs(left - right).max() <= 10 * tol

    C = np.abs(Q @ Q).sum(axis=1).max()
    for h in (1e-3, 1e-4):
        D = (transient(chain, h, tol=1e-12).entries - np.eye(2)) / h
        assert np.abs(D - Q).max() <= C * h


def test_c07_smoothing_beats_snapping():
    """criterion 07: 5x5-grid noisy walk: smoothed error <= 0.6x snapped error, noiseless error exactly 0; measured figure reported beside the 0.18 m reference"""
    t0 = time.perf_counter()
    g = grid_graph(5, 5, 1.0)
    P = random_walk_matrix(g)
    tr = simulate_walk(g, P, NORMAL, start=12, n_steps=500, seed=42)

    noisy = add_noise(tr, sigma=1.0, seed=43)
    e_snap = localization_error(snap(noisy, g), noisy, g)
    e_smooth = localization_error(smooth(noisy, g, P, emission_sigma=1.0), noisy, g)
    assert e_smooth <= 0.6 * e_snap
    # frozen regression values for this seed pair
    assert e_snap == pytest.approx(1.0458353568797434, abs=1e-9)
    assert e_smooth == pytest.approx(0.5739446066234278, abs=1e-9)

    assert localization_error(snap(tr, g), tr, g) == 0.0
    assert localization_error(smooth(tr, g, P, emission_sigma=1.0), tr, g) == 0.0

    assert time.perf_counter() - t0 < 30.0
    print(f"measured smoothed error {e_smooth:.4f} m "
          f"(snapped {e_snap:.4f} m; field-prototype reference 0.18 m)")


def test_c08_obstacle_kinematics():
    """criterion 08: the three detect examples hold exactly; held matrices stay row-stochastic on 100 random cases"""
    user = LocalPoint(0.0, 0.0)

    # example 1: 10 m away, safer distance 5 m, not closing -> silence
    receding = Obstacle(id=1, kind="moving", position=LocalPoint(10.0, 0.0), velocity=(0.2, 0.0))
    assert detect(user, 0.0, [receding], NORMAL, safer_distance=5.0) == []

    # example 2: stationary 10 m ahead, blind profile -> time-to-reach 46.55 s
    ahead = Obstacle(id=2, kind="stationary", position=LocalPoint(10.0, 0.0))
    events = detect(user, 0.0, [ahead], BLIND, safer_distance=12.0)
    assert len(events) == 1
    reach_s = float(events[0].message.split(" m; ")[1].split(" s away")[0])
    assert reach_s == pytest.approx(46.55, abs=0.05)

    # example 3: obstacle 10 m out closing at 1 m/s, safer 5 m -> first alert at t = 5 s
    closing = Obstacle(id=3, kind="moving", position=LocalPoint(10.0, 0.0), velocity=(-1.0, 0.0))
    first = next(
        t for t in (step * 0.1 for step in range(101))
        if detect(user, t, [closing], NORMAL, safer_distance=5.0)
    )
    assert first == 5.0
    assert detect(user, 4.99, [closing], NORMAL, safer_distance=5.0) == []

    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        M = rng.uniform(0.0, 1.0, size=(n, n))
        P = StochasticMatrix(M / M.sum(axis=1, keepdims=True))
        blocked = [int(b) for b in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
        held = hold_on_obstacle(P, blocked)
        assert np.abs(held.entries.sum(axis=1) - 1.0).max() <= 1e-12
        for b in blocked:
            assert held.entries[b, b] == 1.0


def test_c09_poisson_sampling():
    """criterion 09: rate-5 arrivals over 1000 s: mean gap within 3*(1/rate)/sqrt(N) of 0.2 and identical resample under the same seed"""
    times = sample_arrivals(5.0, 1000.0, seed=42)
    assert times.size == 5043  # frozen count for this seed
    gaps = np.diff(np.concatenate([[0.0], times]))
    bound = 3.0 * (1.0 / 5.0) / np.sqrt(times.size)
    assert abs(float(gaps.mean()) - 0.2) <= bound
    assert np.array_equal(sample_arrivals(5.0, 1000.0, seed=42), times)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_c10_cli_determinism(tmp_path):
    """criterion 10: every CLI subcommand rerun with identical flags writes byte-identical artifacts"""
    distances_file = tmp_path / "distances.txt"
    distances_file.write_text("5.8\n26.1\n86.42\n", encoding="utf-8")

    runs = {
        "analyze": lambda out: ["analyze", "--map", DEMO_MAP, "--out-dir", out],
        "table": lambda out: ["table", "--distances", str(distances_file),
                              "--mode", "paper_rounded", "--out-dir", out],
        "transient": lambda out: ["transient", "--map", DEMO_MAP, "--rate", "3.0",
                                  "--time", "0.7", "--out-dir", out],
        "simulate": lambda out: ["simulate", "--map", DEMO_MAP, "--steps", "60",
                                 "--noise-sigma", "0.8", "--out-dir", out],
        "track": lambda out: ["track", "--map", DEMO_MAP, "--obstacles", DEMO_OBSTACLES,
                              "--steps", "40", "--noise-sigma", "1.0", "--out-dir", out],
        "report": lambda out: ["report", "--mode", "paper_rounded", "--out-dir", out],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        # identical config includes the out dir; artifacts that mention their
        # own location (delivery report sink names) stay stable only then
        assert main(argv(str(out))) == 0
        first = _tree_bytes(out)
        assert first, f"{name}: no artifacts written"
        assert main(argv(str(out))) == 0
        second = _tree_bytes(out)
        assert list(first) == list(second), f"{name}: artifact sets differ"
        for rel in first:
            assert first[rel] == second[rel], f"{name}: {rel} differs between reruns"
