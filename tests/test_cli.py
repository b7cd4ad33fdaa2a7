"""Command-line interface: file format, commands, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koopnf
from koopnf import Spectrum, VectorPoly, multi_indices
from koopnf.cli import (
    build_map,
    description_to_json,
    emit_description,
    load_description,
    main,
    parse_alpha,
    parse_box,
    parse_map,
    parse_radii,
)
from koopnf.errors import MapFormatError

from helpers import two_d_map


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _worked_1d(tmp_path):
    return _write(tmp_path, "worked1d.json", {
        "dim": 1,
        "eigenvalues": [[0.5, 0.0]],
        "terms": [{"component": 1, "alpha": [2], "coeff": [1.0, 0.0]}],
    })


def _gentle_1d(tmp_path):
    return _write(tmp_path, "gentle1d.json", {
        "dim": 1,
        "eigenvalues": [[0.5, 0.0]],
        "terms": [{"component": 1, "alpha": [2], "coeff": [0.1, 0.0]}],
    })


def _resonant_2d(tmp_path):
    return _write(tmp_path, "resonant.json", {
        "dim": 2,
        "eigenvalues": [[0.5, 0.0], [0.25, 0.0]],
        "terms": [{"component": 2, "alpha": [2, 0], "coeff": [1.0, 0.0]}],
    })


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


# -- map file parsing -----------------------------------------------------------


def test_parse_worked_map(tmp_path):
    t_map, spec = parse_map(_worked_1d(tmp_path))
    assert spec.lambdas == (0.5 + 0j,)
    assert t_map.components[0].terms == {(1,): 0.5 + 0j, (2,): 1.0 + 0j}


def test_load_rejects_bad_documents(tmp_path):
    cases = [
        {"eigenvalues": [[0.5, 0.0]]},                                    # no dim
        {"dim": 1},                                                       # no linear part
        {"dim": 1, "eigenvalues": [[0.5, 0.0]], "linear": [[[0.5, 0.0]]]},  # both
        {"dim": 0, "eigenvalues": []},
        {"dim": 1, "eigenvalues": [[0.5, 0.0]], "unknown": 1},
        {"dim": 2, "eigenvalues": [[0.5, 0.0]]},                          # wrong count
        {"dim": 1, "eigenvalues": [[0.0, 0.0]]},                          # zero eigenvalue
        {"dim": 1, "eigenvalues": [[float("nan"), 0.0]]},
        {"dim": 1, "linear": [[[0.5, float("inf")]]]},
    ]
    for doc in cases:
        path = _write(tmp_path, "bad.json", doc)
        with pytest.raises((MapFormatError, ValueError)):
            parse_map(path)


def test_load_rejects_bad_terms(tmp_path):
    base = {"dim": 2, "eigenvalues": [[0.5, 0.0], [0.3, 0.0]]}
    cases = [
        {"component": 3, "alpha": [2, 0], "coeff": [1.0, 0.0]},
        {"component": 0, "alpha": [2, 0], "coeff": [1.0, 0.0]},
        {"component": True, "alpha": [2, 0], "coeff": [1.0, 0.0]},
        {"component": 1, "alpha": [2], "coeff": [1.0, 0.0]},
        {"component": 1, "alpha": [1, -1], "coeff": [1.0, 0.0]},
        {"component": 1, "alpha": [1, 0], "coeff": [1.0, 0.0]},   # order < 2
        {"component": 1, "alpha": [2, 0], "coeff": [1.0]},
        {"component": 1, "alpha": [2, 0], "coeff": [1.0, 0.0], "extra": 1},
        {"component": 1, "alpha": [2, 0], "coeff": [float("nan"), 0.0]},
        {"component": 1, "alpha": [2, 0], "coeff": [0.0, float("-inf")]},
        {"component": 1, "alpha": [2, 0], "coeff": [10 ** 400, 0.0]},
    ]
    for term in cases:
        path = _write(tmp_path, "badterm.json", dict(base, terms=[term]))
        with pytest.raises(MapFormatError) as info:
            load_description(path)
        assert "terms[0]" in str(info.value)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MapFormatError, match="JSON"):
        load_description(str(path))
    with pytest.raises(MapFormatError):
        load_description(str(tmp_path / "missing.json"))


def test_linear_input_is_diagonalized(tmp_path):
    a = np.array([[0.4, 0.1], [0.0, 0.25]])
    doc = {
        "dim": 2,
        "linear": [[[0.4, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
        "terms": [{"component": 1, "alpha": [0, 2], "coeff": [0.3, 0.0]}],
    }
    desc = load_description(_write(tmp_path, "linear.json", doc))
    t_map, spec, vmat, vinv = build_map(desc)
    assert sorted(lam.real for lam in spec.lambdas) == pytest.approx([0.25, 0.4])
    assert vmat is not None
    # in the eigenbasis the map must reproduce the original dynamics:
    # V T(z) = A (V z) + N(V z)
    rng = np.random.default_rng(61)
    for trial in range(5):
        z = 0.1 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        y = vmat @ z
        original = a @ y + np.array([0.3 * y[1] ** 2, 0.0])
        via_eigen = vmat @ t_map.evaluate(z)
        np.testing.assert_allclose(via_eigen, original, atol=1e-12)


def test_emit_parse_round_trip(tmp_path):
    t_map, spec = two_d_map()
    doc = emit_description(t_map, spec, metadata={"label": "round trip"})
    text = description_to_json(doc)
    path = tmp_path / "emitted.json"
    path.write_text(text, encoding="utf-8")
    reparsed_map, reparsed_spec = parse_map(str(path))
    assert reparsed_map == t_map
    assert reparsed_spec.lambdas == spec.lambdas
    again = description_to_json(emit_description(reparsed_map, reparsed_spec,
                                                 metadata={"label": "round trip"}))
    assert again == text
    # canonical term order: graded lexicographic, then component
    orders = [sum(t["alpha"]) for t in doc["terms"]]
    assert orders == sorted(orders)


@st.composite
def _complex_maps(draw):
    """A stable spectrum of dim 1-3 and a map with complex terms of order 2-4."""
    dim = draw(st.integers(1, 3))
    lam = st.complex_numbers(min_magnitude=0.01, max_magnitude=0.99,
                             allow_nan=False, allow_infinity=False)
    spec = Spectrum(tuple(draw(st.lists(lam, min_size=dim, max_size=dim))))
    alphas = [a for d in range(2, 5) for a in multi_indices(dim, d)]
    coeff = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    term = st.tuples(st.integers(0, dim - 1), st.sampled_from(alphas), coeff)
    nonlinear = VectorPoly.from_terms(dim, draw(st.lists(term, max_size=8)))
    return spec.diagonal_map() + nonlinear, spec


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_complex_maps())
def test_emit_parse_round_trip_property(tmp_path_factory, map_and_spec):
    t_map, spec = map_and_spec
    path = tmp_path_factory.mktemp("roundtrip") / "map.json"
    path.write_text(description_to_json(emit_description(t_map, spec)), encoding="utf-8")
    assert parse_map(str(path)) == (t_map, spec)


# -- option parsers ---------------------------------------------------------------


def test_parse_radii():
    assert parse_radii("0.1,0.01") == [0.1, 0.01]
    geo = parse_radii("0.1:0.001:3")
    assert geo == pytest.approx([0.1, 0.01, 0.001])
    with pytest.raises(ValueError):
        parse_radii("0.1:0.001")
    with pytest.raises(ValueError):
        parse_radii("0.1:0.001:1")
    for bad in (",", "0.01,-0.01", "0.01,0", "0.1:-0.001:3"):
        with pytest.raises(ValueError):
            parse_radii(bad)


def test_parse_alpha():
    assert parse_alpha("2,0", 2) == (2, 0)
    with pytest.raises(ValueError):
        parse_alpha("2", 2)
    with pytest.raises(ValueError):
        parse_alpha("a,b", 2)


def test_parse_box():
    assert parse_box("-0.1:0.1", 2) == [(-0.1, 0.1), (-0.1, 0.1)]
    assert parse_box("-1:1,-2:2", 2) == [(-1.0, 1.0), (-2.0, 2.0)]
    with pytest.raises(ValueError):
        parse_box("-1:1,-2:2", 3)
    with pytest.raises(ValueError):
        parse_box("-1:1:2", 1)


# -- commands and exit codes -------------------------------------------------------


def test_resonance_command_flags_resonant_map(tmp_path, capsys):
    rc = main(["resonance", _resonant_2d(tmp_path), "-K", "2"])
    out = capsys.readouterr().out
    assert rc == 2
    rows = _rows(out)
    assert rows[0] == ["component", "alpha", "mu_re", "mu_im", "abs_mu", "resonant"]
    hits = [r for r in rows[1:] if r[5] == "1"]
    assert len(hits) == 1
    assert hits[0][0] == "2"
    assert hits[0][1] == "2 0"
    assert len(rows) == 1 + 6


def test_resonance_command_clean_map(tmp_path, capsys):
    rc = main(["resonance", _worked_1d(tmp_path), "-K", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert all(r[5] == "0" for r in rows[1:])


def test_resonance_command_json(tmp_path, capsys):
    rc = main(["resonance", _resonant_2d(tmp_path), "-K", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 2
    payload = json.loads(out)
    assert payload["resonant"] == [
        {"component": 2, "alpha": [2, 0], "mu": [0.0, 0.0]}
    ]
    assert payload["min_abs_mu"] == 0.0


def test_normalform_command_csv(tmp_path, capsys):
    rc = main(["normalform", _worked_1d(tmp_path), "-D", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert rows[0] == ["stage", "component", "alpha", "coeff_re", "coeff_im", "epsilon"]
    stage2 = [r for r in rows[1:] if r[0] == "2"]
    assert len(stage2) == 1
    assert float(stage2[0][3]) == pytest.approx(-4.0, abs=1e-12)
    assert float(stage2[0][5]) == pytest.approx(0.0625, abs=1e-12)
    assert {r[0] for r in rows[1:]} == {"2", "3", "4"}


def test_normalform_command_json(tmp_path, capsys):
    rc = main(["normalform", _worked_1d(tmp_path), "-D", "3", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["D"] == 3
    assert payload["spec"]["lambdas"] == [[0.5, 0.0]]
    assert [st["m"] for st in payload["stages"]] == [2, 3]
    q2 = payload["stages"][0]["Q"]
    assert q2 == [{"component": 1, "alpha": [2], "coeff": [-4.0, 0.0]}]


def test_normalform_output_does_not_depend_on_seed(tmp_path, capsys):
    path = _write(tmp_path, "two.json", emit_description(*two_d_map()))
    outputs = []
    for seed in ("0", "7"):
        assert main(["normalform", path, "-D", "4", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_normalform_resonant_map_exits_2(tmp_path, capsys):
    rc = main(["normalform", _resonant_2d(tmp_path), "-D", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "mathematical abort" in err
    assert "component 2" in err


def test_normalform_zero_correction_placeholder_row(tmp_path, capsys):
    path = _write(tmp_path, "linearonly.json", {
        "dim": 1, "eigenvalues": [[0.5, 0.0]], "terms": [],
    })
    rc = main(["normalform", path, "-D", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert [r[0] for r in rows[1:]] == ["2", "3"]
    assert all(r[1] == "" and r[2] == "" for r in rows[1:])


def test_unstable_map_refused_without_flag(tmp_path, capsys):
    path = _write(tmp_path, "unstable.json", {
        "dim": 1,
        "eigenvalues": [[1.5, 0.0]],
        "terms": [{"component": 1, "alpha": [2], "coeff": [1.0, 0.0]}],
    })
    with pytest.warns(RuntimeWarning):
        rc = main(["normalform", path, "-D", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "allow-unstable" in err
    with pytest.warns(RuntimeWarning):
        rc = main(["normalform", path, "-D", "3", "--allow-unstable"])
    assert rc == 0


def test_linear_input_note_on_stderr(tmp_path, capsys):
    doc = {
        "dim": 2,
        "linear": [[[0.4, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.25, 0.0]]],
        "terms": [{"component": 1, "alpha": [0, 2], "coeff": [0.3, 0.0]}],
    }
    path = _write(tmp_path, "linear.json", doc)
    rc = main(["normalform", path, "-D", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "diagonalized" in captured.err


def test_invert_command(tmp_path, capsys):
    rc = main(["invert", _gentle_1d(tmp_path), "-m", "2",
               "--radii", "0.01,0.005", "--samples", "4", "--tol", "1e-14"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert rows[0][:3] == ["radius", "sample", "component"]
    assert len(rows) == 1 + 2 * 4
    for r in rows[1:]:
        assert r[8] == "1"
        assert float(r[7]) <= 1e-10


def test_invert_command_json(tmp_path, capsys):
    rc = main(["invert", _gentle_1d(tmp_path), "-m", "2",
               "--radii", "0.01", "--samples", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 2
    assert all(p["converged"] for p in payload["points"])


def test_residual_study_command(tmp_path, capsys):
    rc = main(["residual-study", _worked_1d(tmp_path), "-m", "2", "-D", "2",
               "--alpha", "1", "--radii", "0.04:0.001:6", "--samples", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert rows[0][0] == "row"
    summary = [r for r in rows[1:] if r[0] == "summary"]
    assert len(summary) == 1
    assert float(summary[0][5]) >= 2.5
    assert float(summary[0][6]) >= 0.95
    per_radius = [r for r in rows[1:] if r[0] == "radius"]
    assert len(per_radius) == 6
    assert all(r[3] == "8" for r in per_radius)


def test_residual_study_skips_samples_whose_forward_map_overflows(tmp_path, capsys):
    # At radius 1e100 and beyond, z^3 in the stage-3 factor overflows.
    with pytest.warns(RuntimeWarning, match="not inside"), \
            pytest.warns(RuntimeWarning, match="no successful samples"):
        rc = main(["residual-study", _worked_1d(tmp_path), "-m", "3", "--alpha", "1",
                   "--radii", "1e120:1e100:5", "--samples", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["skipped"] == 20 and payload["records"] == []


def _two_d_file(tmp_path):
    return _write(tmp_path, "two_d.json", emit_description(*two_d_map()))


@pytest.mark.parametrize("argv", [
    ["density-demo", "--box=-5:5"],
    ["invert", "--radii", "1e300:1e150:4", "--samples", "6"],
])
def test_diverging_commands_emit_no_numpy_warnings(tmp_path, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([argv[0], _two_d_file(tmp_path), *argv[1:]])
    err = capsys.readouterr().err
    if argv[0] == "density-demo":
        assert rc == 1 and "failed at 1680 of 1681 grid points" in err
    else:
        assert rc == 0
    # The package's own warning about the radius may appear; numpy's may not.
    assert [str(w.message) for w in caught
            if "outside the inversion radius" not in str(w.message)] == []


def test_residual_study_alpha_mismatch(tmp_path, capsys):
    rc = main(["residual-study", _worked_1d(tmp_path), "-m", "2",
               "--alpha", "1,0", "--radii", "0.04:0.001:6"])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


def test_inverse_order_command(tmp_path, capsys):
    rc = main(["inverse-order", _worked_1d(tmp_path), "-m", "2",
               "--radii", "0.01:0.0001:5", "--samples", "8", "--tol", "1e-15"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    summary = [r for r in rows[1:] if r[0] == "summary"]
    assert len(summary) == 1
    assert float(summary[0][3]) >= 2.7
    assert summary[0][5] == "0"


def test_density_demo_command(tmp_path, capsys):
    rc = main(["density-demo", _gentle_1d(tmp_path), "-m", "2",
               "--max-degree", "3", "--box=-0.15:0.15", "--grid", "21"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _rows(out)
    assert rows[0] == ["degree", "sup_error", "condition_flag"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    errors = [float(r[1]) for r in rows[1:]]
    assert errors[-1] < errors[0]


def test_output_file_and_determinism(tmp_path, capsys):
    args = ["normalform", _worked_1d(tmp_path), "-D", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    out_path = tmp_path / "result.csv"
    assert main(args + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text(encoding="utf-8") == first


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["residual-study", _worked_1d(tmp_path), "--alpha", "1"]) == 1
    capsys.readouterr()
    assert main(["normalform", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["resonance", _worked_1d(tmp_path), "--out", str(tmp_path / "no" / "x")]) == 1
    assert "koopnf: error:" in capsys.readouterr().err
    # like the other sampling commands, invert rejects empty or non-positive radii and no samples
    for sampling in (["--radii", "0.01", "--samples", "0"], ["--radii", ","],
                     ["--radii", "0.01,-0.01"]):
        assert main(["invert", _worked_1d(tmp_path), "-m", "2", *sampling]) == 1
        assert "koopnf: error:" in capsys.readouterr().err


def test_overflowing_map_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "huge.json", {
        "dim": 1,
        "eigenvalues": [[0.5, 0.0]],
        "terms": [{"component": 1, "alpha": [2], "coeff": [1e300, 0.0]}],
    })
    assert main(["normalform", path, "-D", "3"]) == 1
    assert "koopnf: error:" in capsys.readouterr().err


def test_python_dash_m_matches_main(tmp_path, capsys):
    args = ["normalform", _worked_1d(tmp_path), "-D", "3", "--format", "json"]
    assert main(args) == 0
    expected = capsys.readouterr().out
    src = str(Path(koopnf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "koopnf", *args], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0
    assert done.stdout == expected


def test_degree_below_order_rejected(tmp_path, capsys):
    rc = main(["invert", _gentle_1d(tmp_path), "-m", "3", "-D", "2",
               "--radii", "0.01"])
    assert rc == 1
    assert "degree" in capsys.readouterr().err
