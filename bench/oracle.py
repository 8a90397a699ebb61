"""Reference implementations and the artifact checker.

Nothing here imports walkchain. Every expected value is derived from the
generated inputs by code in this file, so a change to the program cannot
change what it is checked against.

Discrete outputs must match byte for byte: ``classes.csv``, the summary's
``mixing_time``, ``trace.csv``, ``path.csv``, ``alerts.log`` and
``delivery.json``. The sampler and the trellis decode below reproduce the
program's floating-point operations (the same numpy calls on the same
values), so an implementation that keeps results bit-identical, as the
roadmap requires, passes. Numerical outputs are checked against
closed forms with stated tolerances instead of bytes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
#: built-in walkers: (step length m, step period s, published pace s/m or None)
PROFILES = {"normal": (0.58, 1.0, None), "blind": (0.58, 2.7, 4.66)}
MIXING_EPS = 0.25
MIXING_CAP = 10_000
HITTING_MAX_N = 50
#: d(t) within this of eps at the answer counts as a numerical tie
TIE = 1e-12


def speed(profile: str) -> float:
    length, period, _ = PROFILES[profile]
    return length / period


class Graph:
    """Undirected map graph with sorted adjacency lists and positions in meters."""

    def __init__(self, pos, edges):
        self.pos = np.array(pos, dtype=float)
        self.n = len(self.pos)
        self.edges = sorted((min(a, b), max(a, b)) for a, b in edges)
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self.nbrs = [sorted(x) for x in nbrs]
        self.deg = np.array([len(x) for x in self.nbrs], dtype=int)

    def matrix(self) -> np.ndarray:
        P = np.zeros((self.n, self.n))
        for a, b in self.edges:
            P[a, b] = 1.0 / self.deg[a]
            P[b, a] = 1.0 / self.deg[b]
        return P

    def symmetrized(self) -> np.ndarray:
        """D^(1/2) P D^(-1/2) = A / sqrt(d_i d_j): symmetric, with the eigenvalues of P."""
        r = 1.0 / np.sqrt(self.deg.astype(float))
        A = np.zeros((self.n, self.n))
        for a, b in self.edges:
            A[a, b] = A[b, a] = r[a] * r[b]
        return A

    def stationary(self) -> np.ndarray:
        return self.deg / (2.0 * len(self.edges))

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest member."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp, stack = [], [s]
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.nbrs[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            out.append(sorted(comp))
        return out

    def is_bipartite(self, comp: list[int]) -> bool:
        side = {comp[0]: 0}
        frontier = [comp[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.nbrs[u]:
                    if v not in side:
                        side[v] = 1 - side[u]
                        nxt.append(v)
                    elif side[v] == side[u]:
                        return False
            frontier = nxt
        return True


def load_graph(text: str) -> Graph:
    """Parse a map document; lat/lon vertices are projected like the program does."""
    doc = json.loads(text)
    vs = doc["vertices"]
    if "lat" in vs[0]:
        origin = doc.get("origin") or vs[0]
        olat, olon = float(origin["lat"]), float(origin["lon"])
        kx = EARTH_RADIUS_M * math.cos(math.radians(olat))
        pos = [(kx * math.radians(float(v["lon"]) - olon),
                EARTH_RADIUS_M * math.radians(float(v["lat"]) - olat)) for v in vs]
    else:
        pos = [(float(v["x"]), float(v["y"])) for v in vs]
    return Graph(pos, [tuple(e) for e in doc["edges"]])


# ---------------------------------------------------------------------------
# trace pipeline references

def walk(g: Graph, start: int, steps: int, seed: int, profile: str) -> tuple[list[int], list[float]]:
    """Seeded walk: the program's inverse-CDF draw over each row's cumulative sums."""
    _, period, _ = PROFILES[profile]
    v_speed = speed(profile)
    u = np.random.default_rng(seed).random(steps)
    cums = [list(itertools.accumulate([1.0 / d] * d)) for d in g.deg.tolist()]
    states, times = [start], [0.0]
    state, t = start, 0.0
    for k in range(steps):
        j = bisect.bisect_right(cums[state], u[k])
        nxt = g.nbrs[state][j] if j < len(cums[state]) else g.n - 1
        if nxt == state:
            t += period
        else:
            t += float(np.hypot(*(g.pos[nxt] - g.pos[state]))) / v_speed
        state = nxt
        states.append(state)
        times.append(t)
    return states, times


def fixes(g: Graph, states: list[int], sigma: float, seed: int) -> np.ndarray:
    """Fix positions: true vertex positions plus seeded Gaussian noise when sigma > 0."""
    xy = g.pos[states]
    if sigma > 0:
        xy = xy + np.random.default_rng(seed).normal(0.0, sigma, size=(len(states), 2))
    return xy


def trace_csv(times, xy, states) -> str:
    lines = ["t_s,x_m,y_m,truth_vertex"]
    lines += [f"{t!r},{float(x)!r},{float(y)!r},{v}" for t, (x, y), v in zip(times, xy, states)]
    return "\n".join(lines) + "\n"


def _sq_dist(obs: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return ((obs[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)


def snap(obs: np.ndarray, g: Graph) -> list[int]:
    return np.argmin(_sq_dist(obs, g.pos), axis=1).tolist()


def viterbi(obs: np.ndarray, g: Graph, sigma: float) -> list[int]:
    """MAP decode over the edge list; equal scores resolve to the lowest vertex id."""
    log_em = -_sq_dist(obs, g.pos) / (2.0 * sigma * sigma)
    log_p = np.log(1.0 / g.deg.astype(float))
    src = np.array([u for v in range(g.n) for u in g.nbrs[v]], dtype=int)
    seg = np.repeat(np.arange(g.n), g.deg)
    starts = np.concatenate(([0], np.cumsum(g.deg)[:-1]))
    w = log_p[src]
    m = len(obs)
    delta = log_em[0].copy()
    back = np.zeros((m, g.n), dtype=int)
    for k in range(1, m):
        vals = delta[src] + w
        best = np.maximum.reduceat(vals, starts)
        hit = np.flatnonzero(vals == best[seg])
        first = hit[np.concatenate(([True], seg[hit][1:] != seg[hit][:-1]))]
        back[k] = src[first]
        delta = best + log_em[k]
    seq = [int(np.argmax(delta))]
    for k in range(m - 1, 0, -1):
        seq.append(int(back[k][seq[-1]]))
    seq.reverse()
    return seq


def detect(hx: float, hy: float, t: float, obstacles: list[dict], v_speed: float,
           safer: float) -> list[tuple[float, str]]:
    """(distance, message) warnings within the safer distance, nearest first."""
    out = []
    for ob in obstacles:
        vx, vy = float(ob.get("vx", 0.0)), float(ob.get("vy", 0.0))
        dx = float(ob["x"]) + vx * t - hx
        dy = float(ob["y"]) + vy * t - hy
        dist = math.hypot(dx, dy)
        if dist > safer:
            continue
        kind, oid = ob["kind"], int(ob["id"])
        if kind == "stationary":
            msg = f"{kind} obstacle {oid} at {dist:.2f} m; {dist / v_speed:.2f} s away at walking pace"
        else:
            closing = -(dx * vx + dy * vy) / dist if dist > 0 else 0.0
            if closing > 0:
                msg = f"{kind} obstacle {oid} at {dist:.2f} m, closing; gap closes in {dist / closing:.2f} s"
            else:
                msg = f"{kind} obstacle {oid} at {dist:.2f} m, not closing"
        out.append((dist, msg))
    out.sort(key=lambda e: e[0])
    return out


def track(g: Graph, p: dict, obstacles: list[dict], out: str) -> dict:
    """Expected track outputs: exact texts, blocked vertices and error figures."""
    states, times = walk(g, p["start"], p["steps"], p["seed"], p["profile"])
    obs = fixes(g, states, p["noise_sigma"], p["seed"] + 1)
    snapped = snap(obs, g)
    smoothed = viterbi(obs, g, p["emission_sigma"])
    safer = p["safer_distance"]
    events: list[tuple[float, str, float, str]] = []
    blocked: set[int] = set()
    for t, v in zip(times, smoothed):
        hx, hy = float(g.pos[v, 0]), float(g.pos[v, 1])
        warnings = detect(hx, hy, t, obstacles, speed(p["profile"]), safer)
        if warnings:
            events += [(t, "obstacle_warning", d, msg) for d, msg in warnings]
            events.append((t, "hold_position", warnings[0][0],
                           f"holding at vertex {v}; obstacle within {safer:g} m"))
            blocked.add(v)
    events.append((times[-1], "destination_reached", 0.0, f"destination vertex {smoothed[-1]} reached"))
    unique = list(dict.fromkeys(events))
    log_path = Path(out) / "alerts.log"
    rows = ["t_s,snap_vertex,smooth_vertex,x_m,y_m,truth_vertex"]
    rows += [f"{t!r},{s},{v},{float(g.pos[v, 0])!r},{float(g.pos[v, 1])!r},{tv}"
             for t, s, v, tv in zip(times, snapped, smoothed, states)]

    def err(est):
        return float(np.hypot(*(g.pos[est] - g.pos[states]).T).mean())

    return {
        "path.csv": "\n".join(rows) + "\n",
        "alerts.log": "".join(f"{t!r}\t{k}\t{d!r}\t{m}\n" for t, k, d, m in unique),
        "delivery.json": json.dumps({f"file:{log_path}": {"delivered": len(unique), "failed": 0}},
                                    indent=2, sort_keys=True) + "\n",
        "blocked": sorted(blocked),
        "errors": {"snap": err(snapped), "smooth": err(smoothed)},
    }


# ---------------------------------------------------------------------------
# chain references

def classes_csv(g: Graph) -> str:
    lines = ["vertex,class_id,closed,period"]
    cls = {}
    for cid, comp in enumerate(g.components()):
        period = 2 if g.is_bipartite(comp) else 1
        for v in comp:
            cls[v] = (cid, period)
    lines += [f"{v},{cls[v][0]},true,{cls[v][1]}" for v in range(g.n)]
    return "\n".join(lines) + "\n"


def tv_distance(P: np.ndarray, pi: np.ndarray, t: int) -> float:
    """max over rows of the total-variation distance of P**t to pi."""
    return 0.5 * float(np.abs(np.linalg.matrix_power(P, t) - pi[None, :]).sum(axis=1).max())


def mixing_time_ok(g: Graph, reported: int | None) -> bool:
    """True when ``reported`` is the smallest t <= cap with d(t) <= eps, or None if none is.

    d(t) never increases, so checking d(t) and d(t - 1) pins t down with
    O(log t) matrix products; a bipartite walk never mixes (d(t) >= 1/2).
    """
    if g.is_bipartite(list(range(g.n))):
        return reported is None
    P, pi = g.matrix(), g.stationary()
    if reported is None:
        return tv_distance(P, pi, MIXING_CAP) > MIXING_EPS - TIE
    if not 1 <= reported <= MIXING_CAP:
        return False
    if tv_distance(P, pi, reported) > MIXING_EPS + TIE:
        return False
    return reported == 1 or tv_distance(P, pi, reported - 1) > MIXING_EPS - TIE


def slem(g: Graph) -> float:
    """Second-largest eigenvalue modulus, from the symmetrized walk matrix."""
    if g.n == 1:
        return 0.0
    mods = np.sort(np.abs(np.linalg.eigvalsh(g.symmetrized())))[::-1]
    return float(mods[1])


def transient_closed_form(g: Graph, mu: float) -> np.ndarray:
    """exp(mu (P - I)) by the spectral form of the reversible walk."""
    d = np.sqrt(g.deg.astype(float))
    lam, V = np.linalg.eigh(g.symmetrized())
    return (1.0 / d)[:, None] * ((V * np.exp(mu * (lam - 1.0))) @ V.T) * d[None, :]


# ---------------------------------------------------------------------------
# artifact checker

def _csv_array(text: str) -> np.ndarray:
    return np.array([[float(x) for x in line.split(",")] for line in text.splitlines() if line],
                    dtype=float)


def _keyed(text: str) -> dict[str, str]:
    return dict(line.split(",", 1) for line in text.splitlines()[1:] if line)


def _close(a: np.ndarray, b: np.ndarray, rtol: float, atol: float = 0.0) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


class Checker:
    """Checks one job's artifacts; maps are parsed once and shared across jobs."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self._graphs: dict[str, Graph] = {}

    def graph(self, path: str) -> Graph:
        if path not in self._graphs:
            self._graphs[path] = load_graph((self.root / path).read_text(encoding="utf-8"))
        return self._graphs[path]

    def check(self, job: dict, out: Path) -> list[str]:
        """Problems found in the artifacts under ``out``; empty when all are correct."""
        files = {f.name: f.read_text(encoding="utf-8") for f in sorted(Path(out).iterdir())}
        try:
            return getattr(self, "_" + job["kind"])(job, job["params"], files)
        except (KeyError, ValueError, IndexError, ET.ParseError) as exc:
            return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]

    @staticmethod
    def _expect_files(files: dict, names: set[str]) -> list[str]:
        if set(files) != names:
            return [f"artifacts {sorted(files)} != expected {sorted(names)}"]
        return []

    def _analyze(self, job, p, files):
        g = self.graph(p["map"])
        irreducible = len(g.components()) == 1
        names = {"analysis_summary.csv", "classes.csv", "transition.csv"}
        if irreducible:
            names |= {"stationary.csv"} | ({"hitting.csv", "commute.csv"} if g.n <= HITTING_MAX_N else set())
        problems = self._expect_files(files, names)
        if problems:
            return problems
        summary = _keyed(files["analysis_summary.csv"])
        for key, want in (("n_vertices", g.n), ("n_edges", len(g.edges)),
                          ("degree_sum", 2 * len(g.edges)),
                          ("irreducible", str(irreducible).lower())):
            if summary[key] != str(want):
                problems.append(f"analysis_summary {key}={summary[key]} != {want}")
        if files["classes.csv"] != classes_csv(g):
            problems.append("classes.csv differs from the reference")
        P = g.matrix()
        if not _close(_csv_array(files["transition.csv"]), P, 1e-12):
            problems.append("transition.csv differs from 1/deg on edges")
        if not irreducible:
            return problems
        t_mix = summary["mixing_time"]
        if not mixing_time_ok(g, int(t_mix) if t_mix else None):
            problems.append(f"mixing_time {t_mix!r} is not the first t with d(t) <= {MIXING_EPS}")
        if abs(float(summary["mixing_rate"]) - slem(g)) > 1e-8:
            problems.append(f"mixing_rate {summary['mixing_rate']} != SLEM {slem(g)!r}")
        pi = np.array([float(v) for v in _keyed(files["stationary.csv"]).values()])
        if not _close(pi, g.stationary(), 1e-9, 1e-15):
            problems.append("stationary.csv != degree / 2|E|")
        if g.n <= HITTING_MAX_N:
            H = _csv_array(files["hitting.csv"])
            C = _csv_array(files["commute.csv"])
            scale = max(1.0, float(np.abs(H).max()))
            resid = H - P @ H - 1.0
            np.fill_diagonal(resid, 0.0)
            if H.shape != P.shape or np.any(np.diag(H) != 0) or np.abs(resid).max() > 1e-9 * scale:
                problems.append("hitting.csv violates the first-step equation")
            elif not _close(C, H + H.T, 1e-12, 1e-12 * scale):
                problems.append("commute.csv != H + H^T")
        return problems

    def _transient(self, job, p, files):
        problems = self._expect_files(files, {"generator.csv", "transient.csv"})
        if problems:
            return problems
        g = self.graph(p["map"])
        rate, t, tol = p["rate"], p["time"], p["tolerance"]
        Q = rate * g.matrix()
        np.fill_diagonal(Q, -Q.sum(axis=1))
        if not _close(_csv_array(files["generator.csv"]), Q, 1e-12, 1e-12 * rate):
            problems.append("generator.csv != rate (P - I)")
        Pt = _csv_array(files["transient.csv"])
        if Pt.shape != (g.n, g.n):
            return problems + [f"transient.csv has shape {Pt.shape}"]
        sums = Pt.sum(axis=1)
        if Pt.min() < 0 or sums.min() < 1.0 - tol - 1e-12 or sums.max() > 1.0 + 1e-12:
            problems.append(f"transient rows sum to [{float(sums.min())!r}, {float(sums.max())!r}], "
                            "outside [1 - tol, 1]")
        if np.abs(Pt - transient_closed_form(g, rate * t)).max() > tol + 1e-8:
            problems.append("transient.csv differs from exp(rate t (P - I)) by more than tol")
        return problems

    def _simulate(self, job, p, files):
        problems = self._expect_files(files, {"trace.csv"})
        if problems:
            return problems
        g = self.graph(p["map"])
        states, times = walk(g, p["start"], p["steps"], p["seed"], p["profile"])
        if files["trace.csv"] != trace_csv(times, fixes(g, states, p["noise_sigma"], p["seed"] + 1), states):
            problems.append("trace.csv differs from the reference sampler")
        return problems

    def _track(self, job, p, files):
        g = self.graph(p["map"])
        obstacles = json.loads((self.root / p["obstacles"]).read_text(encoding="utf-8"))
        want = track(g, p, obstacles, job["out"])
        names = {"path.csv", "summary.csv", "alerts.log", "delivery.json"}
        problems = self._expect_files(files, names | ({"held_transition.csv"} if want["blocked"] else set()))
        if problems:
            return problems
        for name in ("path.csv", "alerts.log", "delivery.json"):
            if files[name] != want[name]:
                problems.append(f"{name} differs from the reference")
        errors = _keyed(files["summary.csv"])
        for method, value in want["errors"].items():
            if abs(float(errors[method]) - value) > 1e-9 * max(1.0, value):
                problems.append(f"summary {method} error {errors[method]} != {value!r}")
        if want["blocked"]:
            held = g.matrix()
            held[want["blocked"], :] = 0.0
            held[want["blocked"], want["blocked"]] = 1.0
            if not _close(_csv_array(files["held_transition.csv"]), held, 1e-12):
                problems.append("held_transition.csv != P with blocked rows held")
        return problems

    def _walking_table(self, p, text) -> list[str]:
        distances = [float(x) for x in (self.root / p["distances"]).read_text().split()]
        rows = _csv_array("\n".join(text.splitlines()[1:]))
        normal, blind = speed("normal"), speed("blind")
        pace = PROFILES["blind"][2] if p["mode"] == "paper_rounded" else None
        want = np.array([[d, d / normal, pace * d if pace else d / blind] for d in distances])
        if not _close(rows, want, 1e-12):
            return ["walking_table.csv differs from distance / speed"]
        return []

    @staticmethod
    def _svgs(files, names) -> list[str]:
        return [f"{n} is not an SVG document" for n in names
                if not ET.fromstring(files[n]).tag.endswith("svg")]

    def _table(self, job, p, files):
        names = {"walking_table.csv", "walking_table.svg"}
        return (self._expect_files(files, names)
                or self._walking_table(p, files["walking_table.csv"]) + self._svgs(files, ["walking_table.svg"]))

    def _report(self, job, p, files):
        svgs = ["segment_distances.svg", "travel_times.svg", "walk_progress.svg"]
        return (self._expect_files(files, {"walking_table.csv", *svgs})
                or self._walking_table(p, files["walking_table.csv"]) + self._svgs(files, svgs))
