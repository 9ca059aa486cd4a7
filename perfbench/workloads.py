"""Command pools of the three workloads and the seeded draw from them.

A workload is a list of strata. A stratum is a small set of commands of
nearly equal cost (one subcommand at one size or at neighbouring sizes, in
several output formats), and the draw takes a fixed number of commands from
each. So every seed gets the same mix of work, and the seed only chooses
among commands of like cost and sets their order. That keeps the total work
of a run steady across seeds while each seed still runs different inputs. WORKLOADS.md gives
the reason for each workload.
"""

from __future__ import annotations

import random

FORMATS = ("plain", "csv", "json")

Stratum = tuple[tuple[tuple[str, ...], ...], int]  # (commands, draws per list)


def _stratum(commands: list[tuple[str, ...]], draws: int) -> Stratum:
    return tuple(commands), draws


# Each list has four tiers, so that each order statistic lands inside a group
# of commands of like cost rather than on the edge between two groups:
#   heavy  h commands, fixed, most of total_s (and the memory peak);
#   upper  u commands, with 2h < 11 <= 2(h + u): the 11th-largest of the
#          samples of two passes, cmd_tail_s, falls among them;
#   middle m commands, where the median, cmd_p50_s, falls;
#   small  t = h + u commands, so that the median sits mid-way in the middle tier.
# Within the upper and within the middle tier the sizes are chosen so that the
# strata cost about the same (on tables, about 0.6 s and 0.3 s), so the order
# statistic does not move with the strata that the seed happens to put there.


def _tables() -> list[Stratum]:
    def table(which: str, sizes, formats=FORMATS) -> list[tuple[str, ...]]:
        return [("table", which, "--max", str(m), "--format", f) for m in sizes for f in formats]

    return [
        # heavy: the reflective sum at its largest, and the memory peak
        _stratum(table("lambda-v", (1500,), ("plain",)), 1),
        _stratum(table("gamma-e", (3000,), ("plain",)), 1),
        # upper
        _stratum(table("lambda-v", (860,)), 2),
        _stratum(table("gamma-v", (2200,)), 1),
        _stratum(table("lucas-classes", (1900,)), 1),
        _stratum(table("lambda-e", (2800,)), 2),
        _stratum(table("gamma-e", (1500,)), 1),
        # middle
        _stratum(table("lambda-v", (625,)), 2),
        _stratum(table("gamma-v", (1500,)), 1),
        _stratum(table("gamma-e", (1050,)), 1),
        _stratum(table("lucas-classes", (1300,)), 1),
        _stratum(table("lambda-e", (1900,)), 1),
        # small
        _stratum(table("lambda-v", (300, 400, 500)), 2),
        _stratum(table("gamma-v", (600, 750, 900)), 2),
        _stratum(table("gamma-e", (400, 500, 600)), 2),
        _stratum(table("lucas-classes", (400, 550, 700)), 2),
        _stratum(table("lambda-e", (600, 800, 1000)), 1),
    ]


def _enumeration() -> list[Stratum]:
    def orbits(cube: str, sizes, ground: str, formats=FORMATS) -> list[tuple[str, ...]]:
        return [("orbits", cube, str(n), ground, "--format", f) for n in sizes for f in formats]

    return [
        # heavy: the memory peak of the graph route, and the largest n
        _stratum(orbits("gamma", (22,), "edges", ("json",)), 1),
        _stratum(orbits("lambda", (23,), "vertices", ("plain",)), 1),
        # upper
        _stratum(orbits("gamma", (21,), "vertices", ("plain", "csv")), 2),
        _stratum(orbits("gamma", (20,), "edges", ("plain", "csv")), 2),
        _stratum(orbits("lambda", (20,), "edges"), 2),
        _stratum(orbits("gamma", (19,), "edges", ("json",)), 1),
        # middle
        _stratum(orbits("gamma", (18,), "edges", ("plain", "csv")), 2),
        _stratum(orbits("gamma", (19,), "vertices"), 3),
        _stratum(orbits("gamma", (17,), "edges", ("json",)), 1),
        # small; the two largest lambda commands cost about 0.8 of the middle
        _stratum(orbits("lambda", (19,), "vertices"), 1),
        _stratum(orbits("lambda", (18,), "edges"), 1),
        _stratum(orbits("gamma", (16, 17), "edges", ("plain", "csv")), 2),
        _stratum(orbits("gamma", (16, 17), "vertices"), 1),
        _stratum(orbits("lambda", (16, 17), "edges"), 2),
        _stratum(orbits("lambda", (16, 17, 18), "vertices"), 2),
    ]


def _cross_check() -> list[Stratum]:
    def verify(suite: str, sizes) -> list[tuple[str, ...]]:
        return [("verify", suite, "--max", str(m)) for m in sizes]

    def witnesses(sizes, ks) -> list[tuple[str, ...]]:
        out = []
        for n in sizes:
            for f in ("plain", "json"):
                out.append(("witness", "asymmetric", str(n), "--format", f))
                for k in ks(n):
                    out.append(("witness", "vertex-orbit-size", str(n), str(k), "--format", f))
        return out

    return [
        # heavy: the largest range of each of the four slowest suites
        _stratum(verify("oracle-vs-formula", (18,)), 1),
        _stratum([("verify", "all")], 1),
        _stratum(verify("formulas", (400,)), 1),
        _stratum(verify("bijections", (18,)), 1),
        # upper
        _stratum(verify("oracle-vs-formula", (15,)), 1),
        _stratum(verify("bijections", (15, 16, 17)), 1),
        _stratum(verify("formulas", (320, 330)), 2),
        # middle
        _stratum(verify("oracle-vs-formula", (14,)), 1),
        _stratum(verify("bijections", (12, 13, 14)), 2),
        _stratum(verify("formulas", (235, 240, 245, 250)), 3),
        # small; the n = 8000 witness is the memory peak of the string route
        _stratum(witnesses((8000,), lambda n: (n, 2 * n)), 1),
        _stratum(witnesses(range(2000, 8000, 1000), lambda n: (25, n, 2 * n)), 3),
        _stratum(verify("oracle-vs-formula", (12,)), 1),
        _stratum(verify("formulas", (100, 150)), 1),
        _stratum(verify("automorphisms", (6, 7, 8)), 2),
    ]


WORKLOADS = {
    "tables": _tables(),
    "enumeration": _enumeration(),
    "cross-check": _cross_check(),
}

# Wall seconds budgeted for one untraced pass over a drawn list, spawns
# included. On a 2-CPU x86-64 machine at the seed commit a pass takes 12 to
# 18 s, so a run of --seconds 45 makes two passes and ends within 36 s. A
# traced run at the same seed takes up to 45 s (see run.py).
PASS_SECONDS = 20.0


def pool(workload: str) -> list[tuple[str, ...]]:
    """Every command the workload can draw, in a fixed order."""
    return [cmd for commands, _ in WORKLOADS[workload] for cmd in commands]


def draw(workload: str, seed: int) -> list[list[str]]:
    """The seeded command list: ``draws`` commands from each stratum, shuffled."""
    rng = random.Random(f"{workload}/{seed}")
    chosen = []
    for commands, draws in WORKLOADS[workload]:
        chosen.extend(rng.sample(commands, draws))
    rng.shuffle(chosen)
    return [list(cmd) for cmd in chosen]


def passes(seconds: int) -> int:
    """How many times an untraced run repeats its list within ``seconds``."""
    return max(1, int(seconds // PASS_SECONDS))
