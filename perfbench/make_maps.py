"""Write or check the benchmark's map files.

The files under ``perfbench/maps`` are emitted with ``emit_description``
from the test helpers ``one_d_map`` and ``two_d_map`` and then frozen, so
the benchmark's inputs cannot drift when ``tests/`` changes.  Run from the
repository root::

    python3 perfbench/make_maps.py          # (re)write the files
    python3 perfbench/make_maps.py --check  # files load back to the helper maps
"""

from __future__ import annotations

import sys

from inputs import HERE, MAP_DIR, koopnf, load_map_file

sys.path.insert(0, str(HERE.parent / "tests"))

MAPS = ("one_d_map", "two_d_map")


def helper_maps() -> dict:
    import helpers

    return {name: getattr(helpers, name)() for name in MAPS}


def check() -> list[str]:
    """Names of map files that do not load back to their helper maps."""
    wrong = []
    for name, (t_map, spec) in helper_maps().items():
        loaded_map, loaded_spec = load_map_file(name)
        if loaded_map != t_map or loaded_spec != spec:
            wrong.append(name)
    return wrong


def write() -> None:
    MAP_DIR.mkdir(exist_ok=True)
    for name, (t_map, spec) in helper_maps().items():
        doc = koopnf.emit_description(t_map, spec, {"name": name})
        (MAP_DIR / f"{name}.json").write_text(koopnf.cli.description_to_json(doc), encoding="utf-8")


if __name__ == "__main__":
    if "--check" not in sys.argv[1:]:
        write()
    bad = check()
    print("map files match the helper maps" if not bad else f"map files differ: {bad}")
    sys.exit(1 if bad else 0)
