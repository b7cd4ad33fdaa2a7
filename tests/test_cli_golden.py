"""Golden hashes of the CLI's output over a fixed command matrix.

Each command runs in CSV and in JSON.  Its exit code and stdout are hashed
together and compared with ``golden/cli_sha256.json``; the same command with
``--out`` must write exactly what it printed.  Stderr is not hashed.  A
change that alters these bytes on purpose must say so and store new hashes.
"""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from koopnf import Spectrum, VectorPoly
from koopnf.cli import description_to_json, emit_description, main

from helpers import gentle_1d_map, one_d_map, plant_linearizable_map, two_d_map

GOLDEN = Path(__file__).parent / "golden" / "cli_sha256.json"

# Map arguments name a file written by the ``map_files`` fixture.
COMMANDS = {
    "resonance-one": ["resonance", "one", "-K", "5"],
    "resonance-two": ["resonance", "two", "-K", "6"],
    "resonance-planted": ["resonance", "planted", "-K", "4", "--near-tol", "0.5"],
    "resonance-resonant": ["resonance", "resonant", "-K", "3"],
    "normalform-one": ["normalform", "one", "-D", "5"],
    "normalform-two": ["normalform", "two", "-D", "4"],
    "normalform-two-chop": ["normalform", "two", "-D", "4", "--chop", "4.0"],
    "normalform-planted": ["normalform", "planted", "-D", "4", "--seed", "3"],
    "normalform-bare": ["normalform", "bare", "-D", "3"],
    "normalform-linear": ["normalform", "linear", "-D", "3"],
    "normalform-resonant": ["normalform", "resonant", "-D", "3"],
    "normalform-unstable": ["normalform", "unstable", "-D", "3"],
    "normalform-unstable-allowed": ["normalform", "unstable", "-D", "3", "--allow-unstable"],
    "invert-gentle": ["invert", "gentle", "-m", "2", "--radii", "0.01,0.005",
                      "--samples", "4"],
    "invert-two": ["invert", "two", "-m", "3", "--radii", "0.01:0.001:3",
                   "--samples", "3", "--seed", "5"],
    "invert-diverging": ["invert", "one", "-m", "2", "--radii", "5.0",
                         "--samples", "2", "--max-iter", "5"],
    "invert-degree-below-order": ["invert", "gentle", "-m", "3", "-D", "2",
                                  "--radii", "0.01"],
    "residual-study-one": ["residual-study", "one", "-m", "2", "-D", "2", "--alpha", "1",
                           "--radii", "0.04:0.001:6", "--samples", "8"],
    "residual-study-two": ["residual-study", "two", "-m", "2", "--alpha", "1,0",
                           "--radii", "0.01:0.0005:5", "--samples", "4"],
    "inverse-order-one": ["inverse-order", "one", "-m", "2", "--radii", "0.01:0.0001:5",
                          "--samples", "8", "--tol", "1e-15"],
    "inverse-order-two": ["inverse-order", "two", "-m", "3", "-D", "3",
                          "--radii", "0.004:0.0002:5", "--samples", "4"],
    "density-demo-gentle": ["density-demo", "gentle", "-m", "2", "--max-degree", "3",
                            "--box=-0.15:0.15", "--grid", "11"],
    "density-demo-two": ["density-demo", "two", "-m", "3", "--max-degree", "3",
                         "--box=-0.005:0.005", "--grid", "7", "--drop-constant",
                         "--target", "cos"],
    "density-demo-diverging": ["density-demo", "one", "-m", "2", "--box=-5:5",
                               "--grid", "5", "--max-iter", "5", "--target", "abs"],
}
USAGE_ERRORS = {
    "usage-no-such-command": ["no-such-command"],
    "usage-missing-radii": ["residual-study", "one", "--alpha", "1"],
    "usage-absent-file": ["normalform", "absent"],
}
CASES = [(name, fmt) for name in COMMANDS for fmt in ("csv", "json")] + [
    (name, None) for name in USAGE_ERRORS
]


@pytest.fixture(scope="module")
def map_files(tmp_path_factory):
    spec, planted, _, _ = plant_linearizable_map(11, 4)
    maps = {
        "one": one_d_map(),
        "gentle": gentle_1d_map(),
        "two": two_d_map(),
        "planted": (planted, spec),
        "resonant": (VectorPoly.from_terms(2, [(1, (2, 0), 1.0)]), Spectrum((0.5, 0.25))),
        "unstable": (VectorPoly.from_terms(1, [(0, (2,), 1.0)]), Spectrum((1.5,))),
        "bare": (VectorPoly.zero(1), Spectrum((0.5,))),
    }
    docs = {name: emit_description(t_map, spec) for name, (t_map, spec) in maps.items()}
    docs["linear"] = {
        "dim": 2,
        "linear": [[[0.4, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
        "terms": [{"component": 1, "alpha": [0, 2], "coeff": [0.3, 0.0]}],
    }
    folder = tmp_path_factory.mktemp("maps")
    paths = {}
    for name, doc in docs.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(description_to_json(doc), encoding="utf-8")
    paths["absent"] = folder / "absent.json"
    return {name: str(path) for name, path in paths.items()}


def _run(argv, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, capsys.readouterr().out


def _digest(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, fmt", CASES, ids=[f"{n}-{f}" if f else n for n, f in CASES])
def test_cli_output_matches_golden(name, fmt, map_files, capsys, tmp_path):
    argv = [map_files.get(a, a) for a in COMMANDS.get(name) or USAGE_ERRORS[name]]
    if fmt == "json":
        argv += ["--format", "json"]
    code, out = _run(argv, capsys)
    key = f"{name}-{fmt}" if fmt else name
    assert _digest(code, out) == json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    if fmt is None:
        return
    out_path = tmp_path / "out.txt"
    assert _run(argv + ["--out", str(out_path)], capsys) == (code, "")
    written = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    assert written == out
