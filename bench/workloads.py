"""Seeded input generator: maps, obstacle files and job argv lists.

``generate(workload, seed, work)`` writes every input under ``work`` (a path
relative to the directory the jobs run from) and returns the job list. The
same seed gives byte-identical files.

A workload is a sequence of blocks, and every block has the same mix of jobs
at the same sizes. The seed draws the instances: map layout and edges, start
vertices, walk seeds, obstacles, rates and distance lists. Job times then
depend on the seed only through those instances, and a run of whole blocks
has the same mix whatever the seed, which keeps run-to-run spread small.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

import oracle

CAMPUS_MAP = Path(__file__).resolve().parent.parent / "data" / "campus_map.json"

#: one sentence per workload on why it is in the benchmark
WHY = {
    "chain_reports": "analyze and transient jobs: the only workload where chains and ctmc do most "
                     "of the work and the trace pipeline does none",
    "track_large": "track and long simulate jobs on 400-900 vertex maps, where the dense trellis, "
                   "n x n matrices and the per-step sampler dominate",
    "track_small": "many short track, simulate, table and report jobs on campus-sized maps, where "
                   "fixed per-call costs dominate",
}
#: blocks generated per workload; a run that gets through all of them starts again
BLOCKS = {"chain_reports": 8, "track_large": 8, "track_small": 8}

TOLERANCE = 1e-9

_FLAGS = {
    "analyze": ("map",),
    "transient": ("map", "rate", "time", "tolerance"),
    "simulate": ("map", "start", "steps", "seed", "profile", "noise_sigma"),
    "track": ("map", "obstacles", "start", "steps", "seed", "profile", "noise_sigma",
              "emission_sigma", "safer_distance"),
    "table": ("distances", "mode"),
    "report": ("distances", "mode"),
}


class _Generator:
    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng(seed)
        self.work = Path(work)
        self.jobs: list[dict] = []
        self.files = 0
        self.block = 0
        self._campus: tuple[str, oracle.Graph] | None = None

    def write(self, kind: str, text: str) -> str:
        self.files += 1
        path = self.work / "inputs" / f"{kind}{self.files:04d}.json"
        if kind == "distances":
            path = path.with_suffix(".txt")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path.as_posix()

    def job(self, kind: str, **params) -> None:
        jid = f"j{len(self.jobs):04d}"
        argv = [kind]
        for key in _FLAGS[kind]:
            argv += ["--" + key.replace("_", "-"), str(params[key])]
        self.jobs.append({"id": jid, "block": self.block, "kind": kind, "params": params,
                          "argv": argv, "out": (self.work / "out" / jid).as_posix()})

    # -- maps ---------------------------------------------------------------

    def campus_map(self) -> tuple[str, oracle.Graph]:
        """The repository's demo map, copied once into the inputs."""
        if self._campus is None:
            text = CAMPUS_MAP.read_text(encoding="utf-8")
            self._campus = (self.write("map", text), oracle.load_graph(text))
        return self._campus

    def campus(self, rows: int, cols: int, bipartite: bool = False) -> tuple[str, oracle.Graph]:
        """Jittered rows x cols lattice at 10 m spacing.

        A random spanning tree keeps it connected; other lattice edges are
        kept with probability 0.85. Random diagonals (at least one) close
        triangles, so the walk is aperiodic, unless ``bipartite``, which keeps
        the full lattice and no diagonal.
        """
        rng = self.rng
        xy = [(round(c * 10.0 + rng.uniform(-2, 2), 3), round(r * 10.0 + rng.uniform(-2, 2), 3))
              for r in range(rows) for c in range(cols)]
        lattice = [(i, i + 1) for i in range(rows * cols) if (i + 1) % cols]
        lattice += [(i, i + cols) for i in range(rows * cols - cols)]
        if bipartite:
            edges = lattice
        else:
            parent = list(range(rows * cols))

            def root(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            edges = []
            for k in rng.permutation(len(lattice)):
                a, b = lattice[k]
                ra, rb = root(a), root(b)
                if ra != rb:
                    parent[ra] = rb
                    edges.append((a, b))
                elif rng.random() < 0.85:
                    edges.append((a, b))
            diagonals = []
            for r in range(rows - 1):
                for c in range(cols - 1):
                    i = r * cols + c
                    if rng.random() < 0.25:
                        diagonals.append((i, i + cols + 1) if rng.random() < 0.5 else (i + 1, i + cols))
            edges += diagonals or [(0, cols + 1)]
        edges = sorted(edges)
        doc = {"vertices": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(xy)],
               "edges": [list(e) for e in edges]}
        return self.write("map", json.dumps(doc)), oracle.Graph(xy, edges)

    def obstacles(self, g: oracle.Graph, walk: tuple[list[int], list[float]] | None,
                  offset: float) -> str:
        """Two stationary obstacles and one moving one.

        With ``walk`` they sit on it: beside vertices visited at 35 % and 70 %
        of the walk, and the moving one passes the 50 % vertex at the time the
        walker is there. Without it they sit beyond the map's edge.
        """
        rng = self.rng
        if walk is None:
            far = g.pos.max(axis=0) + 200.0
            spots = [(far + rng.uniform(0, 50, 2), 0.0) for _ in range(3)]
        else:
            states, times = walk
            spots = [(g.pos[states[int(q * (len(states) - 1))]], times[int(q * (len(states) - 1))])
                     for q in (0.35, 0.7, 0.5)]
        out = []
        for k, (p, t) in enumerate(spots):
            angle = rng.uniform(0, 2 * math.pi)
            x, y = p[0] + offset * math.cos(angle), p[1] + offset * math.sin(angle)
            vx = vy = 0.0
            if k == 2:  # at 0.5 m/s, reaching its spot at time t
                vx, vy = round(0.5 * math.cos(angle), 3), round(0.5 * math.sin(angle), 3)
                x, y = x - vx * t, y - vy * t
            out.append({"id": k + 1, "kind": "moving" if k == 2 else "stationary",
                        "x": round(float(x), 3), "y": round(float(y), 3), "vx": vx, "vy": vy})
        return self.write("obstacles", json.dumps(out))

    # -- jobs ---------------------------------------------------------------

    def track(self, path: str, g: oracle.Graph, fixes: int, on_walk: bool, noise: float,
              safer: float, profile: str) -> None:
        rng = self.rng
        p = {"map": path, "start": int(rng.integers(g.n)), "steps": fixes - 1,
             "seed": int(rng.integers(1 << 30)), "profile": profile}
        walk = oracle.walk(g, p["start"], p["steps"], p["seed"], profile) if on_walk else None
        obstacles = self.obstacles(g, walk, offset=0.3 * safer)
        self.job("track", obstacles=obstacles, noise_sigma=noise, emission_sigma=noise,
                 safer_distance=safer, **p)

    def simulate(self, path: str, g: oracle.Graph, steps: int, noise: float, profile: str) -> None:
        self.job("simulate", map=path, start=int(self.rng.integers(g.n)), steps=steps,
                 seed=int(self.rng.integers(1 << 30)), profile=profile, noise_sigma=noise)

    def distances(self, count: int) -> str:
        values = self.rng.uniform(0.0, 100.0, count).round(2)
        return self.write("distances", "".join(f"{v!r}\n" for v in values.tolist()))


def _chain_reports(gen: _Generator) -> None:
    """12 jobs: analyze on small (hitting path), medium and bipartite maps; transients.

    Sizes are chosen for steady statistics. Five jobs are shorter than the
    three analyses on 20 vertices (all-pairs hitting) and four are longer, so
    the median falls among those three, which last long enough to average
    over the machine's short speed swings. With three to five blocks a run,
    the 11th slowest job (``job_s_tail``) falls among the four longest.
    Larger rate * t goes with smaller maps, which keeps every job within
    seconds.
    """
    transients = []
    for log_mu, rows, cols in ((0.0, 8, 10), (4.7, 8, 10), (5.0, 6, 8)):
        rate = round(float(10 ** gen.rng.uniform(-0.3, 0.7)), 4)
        transients.append({"map": gen.campus(rows, cols)[0], "rate": rate,
                           "time": round(10 ** log_mu / rate, 6), "tolerance": TOLERANCE})
    for rows, cols, transient in ((3, 4, 0), (18, 18, None), (4, 5, None), (4, 4, 2),
                                  (8, 8, None), (4, 5, None), (9, 10, 1), (17, 17, None),
                                  (4, 5, None)):
        gen.job("analyze", map=gen.campus(rows, cols, bipartite=(rows, cols) == (8, 8))[0])
        if transient is not None:
            gen.job("transient", **transients[transient])


def _track_large(gen: _Generator) -> None:
    """7 jobs: track on 400-900 vertex maps, most with obstacles on the walk; long simulates.

    As in chain_reports, the median job (track, 702 vertices, 240 fixes) is
    well apart from its neighbours, and the three slowest jobs stand apart
    from the rest, so with four to six blocks a run the 11th slowest falls
    among them.
    """
    gen.simulate(*gen.campus(23, 23), 10_000, 2.0, "blind")
    for rows, cols, fixes, on_walk, profile in (
            (21, 22, 300, True, "blind"), (24, 24, 220, False, "normal"),
            (26, 27, 240, True, "blind"), (29, 29, 360, False, "normal"),
            (30, 30, 340, True, "blind")):
        gen.track(*gen.campus(rows, cols), fixes, on_walk=on_walk, noise=2.5, safer=5.0,
                  profile=profile)
    gen.simulate(*gen.campus(28, 28), 50_000, 2.0, "normal")


def _track_small(gen: _Generator) -> None:
    """57 jobs: eight rounds of seven short jobs, then one report on a long route.

    A round is three tracks with alerting obstacles, two short simulates, a
    table and a report. The long report (about 75 ms on a 2-vCPU x86 VM, some
    eight times a track) is the workload's slowest job, about 1 job in 57, so
    ``job_s_tail``, the eleventh slowest of some 3,000 jobs, falls inside
    that class instead of on the few short jobs the machine happened to stall.
    """
    campus = gen.campus_map()
    for r in range(8):
        maps = [gen.campus(rows, cols) for rows, cols in ((3, 4), (4, 5), (5, 5))]
        gen.track(*campus, 70, on_walk=True, noise=5.0, safer=15.0, profile="blind")
        gen.track(*maps[0], 85, on_walk=True, noise=2.0, safer=5.0, profile="normal")
        gen.simulate(*campus, 40, 5.0, "blind")
        gen.track(*maps[1], 55, on_walk=True, noise=2.0, safer=5.0, profile="blind")
        gen.simulate(*maps[2], 90, 1.0, "normal")
        mode = ("exact", "paper_rounded")[r % 2]
        gen.job("table", distances=gen.distances(10 + 6 * r), mode=mode)
        gen.job("report", distances=gen.distances(60 - 6 * r), mode=mode)
    gen.job("report", distances=gen.distances(4000), mode="exact")


_BUILDERS = {"chain_reports": _chain_reports, "track_large": _track_large,
             "track_small": _track_small}


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` under ``work`` and return its jobs.

    ``work`` is emptied first. Paths in the jobs are relative, as ``work`` is.
    """
    work = Path(work)
    if work.exists():
        shutil.rmtree(work)
    gen = _Generator(seed, work)
    for gen.block in range(BLOCKS[workload]):
        _BUILDERS[workload](gen)
    (work / "jobs.json").write_text(json.dumps(gen.jobs, indent=1) + "\n", encoding="utf-8")
    return gen.jobs
