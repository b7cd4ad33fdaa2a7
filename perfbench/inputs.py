"""Workload inputs, built through the koopnf library.

Imported, it gives the benchmark its input builders.  Run as a script, it
is the set-up that ``setup_s`` times in a fresh interpreter: it imports
``koopnf``, loads the inputs described by the JSON document on stdin and
prints the seconds that took::

    {"series_maps": [<series_map_data output>, ...], "map_files": ["two_d_map"]}
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAP_DIR = HERE / "maps"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import koopnf  # noqa: E402  (must come after the source path is set)


def load_map_file(name: str):
    """Load one of the benchmark's map files into (map, spectrum)."""
    t_map, spec, _, _ = koopnf.build_map(koopnf.load_description(str(MAP_DIR / f"{name}.json")))
    return t_map, spec


def build_series_map(data: dict):
    """Turn a generated map description into (map, spectrum)."""
    spec = koopnf.Spectrum(tuple(complex(*lam) for lam in data["lambdas"]))
    t_map = koopnf.VectorPoly.from_terms(
        data["dim"], [(comp, tuple(alpha), complex(*c)) for comp, alpha, c in data["terms"]]
    )
    return t_map, spec


def build(payload: dict) -> list:
    maps = [build_series_map(d) for d in payload.get("series_maps", [])]
    return maps + [load_map_file(name) for name in payload.get("map_files", [])]


if __name__ == "__main__":
    build(json.load(sys.stdin))
    print(time.perf_counter() - _START)
