"""Benchmark workloads: recipe invocations generated from a seed.

Each workload is a list of timed invocations plus the known-defect probes.
The program only ever sees the generated ``key=value`` arguments; every
random input comes from ``random.Random(seed)`` here or from the recipe's
own ``--seed``.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

#: smallest configuration of every recipe, as the CLI tests run them
CATALOG_ARGS = {
    "classify": ("family=hs:-0.5", "N=128"),
    "compare": ("family=hardy", "family2=hs:-0.5", "N=128"),
    "pick-check": ("family=hardy", "nodes=0;0.5", "targets=0;0.25", "N=64"),
    "interp-extract": ("tag=wn_gaussian", "n=8", "r=0.5", "kmax=5"),
    "crossing": ("r=0.5", "C=2", "x=1e-3"),
    "distortion": ("map=crossing:0.5", "pairs=20"),
    "carleson": ("tag=dyadic_separated", "n=12", "p_max=5"),
    "separation": ("tag=vn_quadratic", "n=15"),
    "tangential-embed": ("m=256",),
    "tangency-report": ("m=4096", "jmin=4", "jmax=8"),
}

RECIPES = tuple(CATALOG_ARGS)


@dataclass(frozen=True)
class Invocation:
    """One ``npdisclab`` command line and what its run must show.

    ``expect`` is ``"ok"`` (exit 0, output passes every check) or
    ``"clean-error"`` (a documented non-zero exit code and a one-line
    ``error:`` message, no traceback).  ``exit_code`` pins the code where
    the documentation already names one.  ``defect`` names the ROADMAP item
    a known-defect probe tracks; probes count in ``failed_frac`` only.
    """

    argv: tuple
    expect: str = "ok"
    exit_code: int | None = 0
    defect: str | None = None

    @property
    def recipe(self) -> str:
        return self.argv[0]

    @property
    def params(self) -> dict:
        return dict(tok.split("=", 1) for tok in self.argv[1:] if "=" in tok)

    @property
    def label(self) -> str:
        shown = [tok if len(tok) <= 40 else tok[:24] + "..." for tok in self.argv]
        return " ".join(shown)


def _flags(seed: int) -> tuple:
    return ("--seed", str(seed), "--reproducible")


def _disc_nodes(rng: random.Random, count: int, radius: float = 0.9) -> list[complex]:
    """Uniform draws from the disc of the given radius."""
    return [
        radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        for _ in range(count)
    ]


def _complex_list(values) -> str:
    return ";".join(f"{z.real!r}{z.imag:+}j" for z in values)


def _pick_check(family: str, nodes: list[complex], seed: int) -> Invocation:
    targets = [0.3 * z for z in nodes]
    return Invocation(("pick-check", f"family={family}", f"nodes={_complex_list(nodes)}",
                       f"targets={_complex_list(targets)}", *_flags(seed)))


def catalog_cold(seed: int) -> list[Invocation]:
    # import dominates every run; each module does milliseconds of work
    return [Invocation((name, *args, *_flags(seed))) for name, args in CATALOG_ARGS.items()]


def pick_interp(seed: int) -> list[Invocation]:
    # kernels point evaluation and pick at small N: 200 nodes take the
    # eigvalsh path, 500 nodes the pivoted-Cholesky path
    rng = random.Random(seed)
    return [
        _pick_check("hardy", _disc_nodes(rng, 200), seed),
        _pick_check("hs:-0.5", _disc_nodes(rng, 500), seed),
        Invocation(("interp-extract", "tag=wn_gaussian", "n=22", "r=0.5", "kmax=18",
                    *_flags(seed))),
    ]


def series_sequences(seed: int) -> list[Invocation]:
    # kernels weight recursion at large N, O(n^2) separation products and
    # a 65 536-row CSV; pick stays idle
    return [
        Invocation(("classify", "family=hs:-0.5", "N=65536", *_flags(seed))),
        Invocation(("separation", "tag=vn_quadratic", "n=400", *_flags(seed))),
        Invocation(("distortion", "map=hs:-0.5", "pairs=100", *_flags(seed))),
        Invocation(("tangential-embed", "m=65536", *_flags(seed))),
    ]


WORKLOADS = {
    "catalog-cold": catalog_cold,
    "pick-interp": pick_interp,
    "series-sequences": series_sequences,
}

#: wall seconds of one fresh-process pass with its checks on a 2-core
#: machine at the commit that added the benchmark; sets the pass count
PASS_SECONDS = {"catalog-cold": 24.0, "pick-interp": 15.0, "series-sequences": 36.0}


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds``; fixed per setting, so every commit runs the same work."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def probes(workload: str, seed: int, missing_csv: str) -> list[Invocation]:
    """Known-defect probes of the layers the workload exercises.

    interactions.json records how each fails at the commit that added the
    benchmark; every workload carries at least one, so failed_frac > 0 there.
    """
    if workload == "pick-interp":
        return [
            Invocation(("interp-extract", "tag=wn_gaussian", "n=30", *_flags(seed)),
                       defect="4b"),
            Invocation(("interp-extract", "tag=vn_quadratic", "n=40", *_flags(seed)),
                       expect="clean-error", exit_code=None, defect="4c"),
        ]
    return [Invocation(("classify", f"family=custom:{missing_csv}", *_flags(seed)),
                       expect="clean-error", exit_code=3, defect="4c")]
