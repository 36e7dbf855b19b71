import argparse
import json
import os
import subprocess
import sys
import re
import time
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtoric
from qtoric.cli import _cli_scalar, build_parser, main
from qtoric.errors import InputError
from qtoric import io
from qtoric.io import load_fan_file, parse_scalar
from qtoric.scalars import Scalar

P2DEF = {
    "version": 1,
    "dim": 2,
    "params": [{"name": "a", "kind": "transcendental"},
               {"name": "b", "kind": "transcendental"}],
    "witness": {"a": "-7/3", "b": "-5/4"},
    "gamma": [["1", "0"], ["0", "1"], ["a", "b"]],
    "rays": [["1", "0"], ["0", "1"], ["a", "b"]],
    "cones": [[1, 2], [2, 3], [3, 1]],
    "calibration": {"n": 3,
                    "images": [["1", "0"], ["0", "1"], ["a", "b"]],
                    "J": [], "I": [1, 2, 3]},
}

BLOWUP = {
    "dim": 2, "params": [], "witness": {},
    "gamma": [["1", "0"], ["0", "1"]],
    "rays": [["1", "0"], ["0", "1"], ["-1", "-1"], ["-1", "0"], ["0", "-1"]],
    "cones": [[1, 2], [2, 4], [3, 4], [3, 5], [1, 5]],
}

P2STD = {
    "dim": 2, "params": [], "witness": {},
    "gamma": [["1", "0"], ["0", "1"]],
    "rays": [["1", "0"], ["0", "1"], ["-1", "-1"]],
    "cones": [[1, 2], [2, 3], [3, 1]],
}

BROKEN = {
    "dim": 1, "params": [], "witness": {},
    "gamma": [["1"]],
    "rays": [["1"], ["2"]],
    "cones": [[1], [2]],
}

# the ray entry 1/(a - 1/2) has a denominator that vanishes at the witness
VANISH = {
    "dim": 2, "params": [{"name": "a"}], "witness": {"a": "1/2"},
    "gamma": [["1", "0"], ["0", "1"]],
    "rays": [["1", "0"], ["0", "1"], ["-1", "1/(a-1/2)"]],
    "cones": [[1, 2], [2, 3], [3, 1]],
}

TORUS_LVMB = {
    "dim": 1, "params": [], "witness": {},
    "gamma": [["1"]],
    "lvmb": {"m": 1, "Lambda": [["1", "0"], ["0", "1"], ["-1", "-1"]],
             "E": [[1, 2, 3]]},
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def fresh(*args):
    """A new interpreter running `python *args` with qtoric importable."""
    src = os.path.dirname(os.path.dirname(qtoric.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))


def test_validate_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", P2DEF)
    code, payload = run(capsys, ["validate", good])
    assert code == 0 and payload["valid"]
    bad = _write(tmp_path, "bad.json", BROKEN)
    code, payload = run(capsys, ["validate", bad])
    assert code == 1 and not payload["valid"]


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json", encoding="utf-8")
    code, payload = run(capsys, ["validate", str(p)])
    assert code == 2 and "error" in payload


@pytest.mark.parametrize("argv", [
    ["moduli-equiv-2d", "--a", "1/0", "--b", "2"],
    ["moduli-equiv-2d", "--a", "sqrt:4/0", "--b", "2"],
    ["wps-weights", "--a", "1/0", "--b", "2"],
])
def test_zero_denominator_is_an_input_error(argv, capsys):
    code, payload = run(capsys, argv)
    assert code == 2 and payload["error"]["code"] == "ZeroDivisionError"


def test_schema_flag(capsys):
    code, payload = run(capsys, ["--schema"])
    assert code == 0 and payload["version"] == 1


def test_atlas_emits_chart_matrices(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2DEF)
    code, payload = run(capsys, ["atlas", f])
    assert code == 0
    by_cone = {tuple(c["I"]): c for c in payload["charts"]}
    assert by_cone[(2, 3)]["A"] == [["(-b)/(a)", "1"], ["(1)/(a)", "0"]]
    assert by_cone[(3, 1)]["A"] == [["0", "(1)/(b)"], ["1", "(-a)/(b)"]]
    assert by_cone[(1, 2)]["hbar"] == [["a"], ["b"]]
    assert payload["cocycle"] is True


def test_properties_and_comb_type(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2DEF)
    code, payload = run(capsys, ["properties", f])
    assert code == 0 and payload["irrational"] and payload["complete"]
    code, payload = run(capsys, ["comb-type", f])
    assert code == 0 and [1, 2] in payload["poset"]


def test_properties_of_a_non_affine_lattice(tmp_path, capsys):
    payload = dict(P2STD, params=[{"name": "a"}], witness={"a": "3/7"},
                   gamma=[["1", "0"], ["0", "1"], ["a*a", "0"]])
    code, out = run(capsys, ["properties", _write(tmp_path, "sq.json",
                                                  payload)])
    assert code == 0 and out["irrational"] is True


def test_comb_equiv(tmp_path, capsys):
    f1 = _write(tmp_path, "f1.json", P2DEF)
    f2 = _write(tmp_path, "f2.json", BLOWUP)
    code, payload = run(capsys, ["comb-equiv", f1, f1])
    assert code == 0 and payload["equivalent"]
    code, payload = run(capsys, ["comb-equiv", f1, f2])
    assert code == 1 and not payload["equivalent"]


def test_standardize_output_revalidates(tmp_path, capsys):
    swapped = dict(P2DEF)
    swapped = json.loads(json.dumps(P2DEF))
    swapped["rays"] = [["0", "1"], ["1", "0"], ["a", "b"]]
    swapped["gamma"] = [["0", "1"], ["1", "0"], ["a", "b"]]
    swapped["calibration"]["images"] = [["0", "1"], ["1", "0"], ["a", "b"]]
    f = _write(tmp_path, "swap.json", swapped)
    code, payload = run(capsys, ["standardize", f])
    assert code == 0
    ff = load_fan_file(json.dumps(payload))
    assert ff.fan is not None
    f2 = _write(tmp_path, "std.json", payload)
    code, rep = run(capsys, ["validate", f2])
    assert code == 0 and rep["valid"]


def test_gale_and_irrelevant(tmp_path, capsys):
    f = _write(tmp_path, "bu.json", BLOWUP)
    code, payload = run(capsys, ["gale", f])
    assert code == 0
    assert payload["A"] == [["1", "1", "0"], ["1", "0", "1"],
                            ["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]]
    code, payload = run(capsys, ["irrelevant", f])
    assert code == 0
    assert payload["forbidden"] == [[1, 3], [1, 4], [2, 3], [2, 5], [4, 5]]


def test_lvmb_pipeline(tmp_path, capsys):
    payload = json.loads(json.dumps(P2DEF))
    payload["calibration"]["n"] = 4
    payload["calibration"]["images"].append(["1", "1"])
    payload["calibration"]["J"] = [4]
    f = _write(tmp_path, "p2v.json", payload)
    code, datum = run(capsys, ["lvmb-build", f])
    assert code == 0 and datum["m"] == 1 and len(datum["Lambda"]) == 5
    lv = json.loads(json.dumps(payload))
    lv["lvmb"] = datum
    f2 = _write(tmp_path, "lv.json", lv)
    code, rep = run(capsys, ["lvmb-check", f2])
    assert code == 0 and rep["valid"]
    code, fanfile = run(capsys, ["lvmb-to-fan", f2])
    assert code == 0
    f3 = _write(tmp_path, "rec.json", fanfile)
    code, rep = run(capsys, ["validate", f3])
    assert code == 0 and rep["valid"]


def test_lvmb_to_fan_on_an_empty_family_is_an_input_error(tmp_path, capsys):
    f = _write(tmp_path, "empty.json", {"lvmb": {
        "m": 1, "Lambda": [["0", "0"], ["1", "0"], ["0", "1"], ["-1", "-1"]],
        "E": []}})
    code, payload = run(capsys, ["lvmb-to-fan", f])
    assert code == 2 and payload["error"]["code"] == "InputError"
    assert "empty_family" in payload["error"]["message"]


def test_lvm_check_polytope_kh(tmp_path, capsys):
    f = _write(tmp_path, "torus.json", TORUS_LVMB)
    code, rep = run(capsys, ["lvm-check", f])
    assert code == 0 and rep["siegel"] and rep["weak_hyperbolic"]
    assert rep["E"] == [[1, 2, 3]]
    code, rep = run(capsys, ["polytope", f])
    assert code == 0 and rep["facet_count"] == 0
    code, rep = run(capsys, ["kh-check", f])
    assert code == 0 and rep["condition"] == "K"


def test_morphism_check_cli(tmp_path, capsys):
    p1 = {
        "dim": 1,
        "params": [{"name": "a", "kind": "transcendental"}],
        "witness": {"a": "-7/3"},
        "gamma": [["1"], ["a"]],
        "rays": [["1"], ["-1"]],
        "cones": [[1], [2]],
        "calibration": {"n": 3, "images": [["1"], ["-1"], ["a"]],
                        "J": [3], "I": [1, 2]},
    }
    p2 = {
        "dim": 2,
        "params": [{"name": "a", "kind": "transcendental"}],
        "witness": {"a": "-7/3"},
        "gamma": [["1", "0"], ["0", "1"], ["-1", "-1"], ["2*a", "a"]],
        "rays": [["1", "0"], ["0", "1"], ["-1", "-1"]],
        "cones": [[1, 2], [2, 3], [3, 1]],
        "calibration": {"n": 4,
                        "images": [["1", "0"], ["0", "1"], ["-1", "-1"],
                                   ["2*a", "a"]],
                        "J": [4], "I": [1, 2, 3]},
    }
    f1 = _write(tmp_path, "p1.json", p1)
    f2 = _write(tmp_path, "p2t.json", p2)
    code, rep = run(capsys, ["cal-morphism-check", "--search", f1, f2])
    assert code == 0 and rep["found"]
    assert rep["morphism"]["H"] == [[2, 0, 0], [1, 1, 0],
                                    [0, 2, 0], [0, 0, 1]]
    m = _write(tmp_path, "m.json", rep["morphism"])
    code, rep2 = run(capsys, ["cal-morphism-check", "--morphism", m, f1, f2])
    assert code == 0 and rep2["valid"]
    mid = _write(tmp_path, "id.json", {"L": [["1"]]})
    code, rep3 = run(capsys, ["morphism-check", "--morphism", mid, f1, f1])
    assert code == 0 and rep3["valid"]


def test_search_that_leaves_L_free_is_indeterminate(tmp_path, capsys):
    # the virtual image (a, 0) fixes only L's first column, and the
    # zero-filled L = [[1, 0], [0, 0]] fails; the identity is a morphism
    f = _write(tmp_path, "f.json", dict(
        P2STD, params=[{"name": "a", "kind": "transcendental"}],
        witness={"a": "-7/3"}, gamma=[["1", "0"], ["0", "1"], ["a", "0"]],
        calibration={"n": 4, "J": [4], "I": [1, 2, 3],
                     "images": [["1", "0"], ["0", "1"], ["-1", "-1"],
                                ["a", "0"]]}))
    code, rep = run(capsys, ["cal-morphism-check", "--search", f, f])
    assert code == 3 and rep["error"] == {"code": "Indeterminate",
                                          "message": "L underdetermined"}
    ident = _write(tmp_path, "id.json", {"L": [["1", "0"], ["0", "1"]]})
    code, rep = run(capsys, ["cal-morphism-check", "--search",
                             "--morphism", ident, f, f])
    assert code == 0 and rep["found"]


def test_moduli_cli(capsys):
    code, rep = run(capsys, ["wps-weights", "--a", "-2", "--b", "-3"])
    assert code == 0 and rep["weights"] == [1, 2, 3]
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "sqrt:2",
                             "--b", "1+sqrt:2"])
    assert code == 0 and rep["equivalent"] and rep["verified"]
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "sqrt:2",
                             "--b", "sqrt:3"])
    assert code == 1
    # the continued fraction of sqrt(9999991) has period 8096: no step cap
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "sqrt:9999991",
                             "--b", "1+sqrt:9999991"])
    assert code == 0 and rep["equivalent"] and rep["verified"] is True
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "sqrt:10",
                             "--b", "(1/2)*sqrt:10"])
    assert code == 1 and rep == {"equivalent": False}
    # a match deep in one cycle direction: the witness is printable
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "17/8*sqrt:4000012-5/4",
                             "--b=-17/8*sqrt:4000012-19/4"])
    assert code == 0 and rep["H"] == [["-1", "6"], ["0", "1"]]
    code, rep = run(capsys, ["p2-orbit", "--a", "-2", "--b", "-3"])
    assert code == 0 and rep["isotropy"] == "trivial"
    code, rep = run(capsys, ["moduli-act", "--hbar", '[["1/2"]]',
                             "--H", "[[2,1],[1,1]]"])
    assert code == 0 and rep["hbar"] == [["3/5"]]
    code, rep = run(capsys, ["hopf-equiv",
                             "--pair1", '["1/3","2","1/7","3"]',
                             "--pair2", '["4/3","2","1/7","3"]'])
    assert code == 0 and rep["equivalent"]


def test_jobs_flag_batch(tmp_path, capsys):
    f1 = _write(tmp_path, "a.json", P2DEF)
    f2 = _write(tmp_path, "b.json", BLOWUP)
    code, payload = run(capsys, ["validate", f1, f2, "--jobs", "2"])
    assert code == 0
    assert len(payload) == 2
    assert all(item["report"]["valid"] for item in payload)


def test_batch_keeps_the_reports_beside_a_failed_file(tmp_path, capsys):
    good = _write(tmp_path, "good.json", P2DEF)
    bad = _write(tmp_path, "bad.json", BROKEN)
    missing = str(tmp_path / "missing.json")
    code, payload = run(capsys, ["validate", good, missing, bad])
    # the batch exits with the largest per-file exit
    assert code == 2
    assert [item["file"] for item in payload] == [good, missing, bad]
    assert payload[0] == {"file": good, "report": {"valid": True,
                                                  "violations": []}}
    assert set(payload[1]) == {"file", "error"}
    assert payload[1]["error"]["code"] == "FileNotFoundError"
    assert "missing.json" in payload[1]["error"]["message"]
    assert payload[2]["report"]["valid"] is False
    code, payload = run(capsys, ["validate", good, bad, "--jobs", "2"])
    assert code == 1 and [item["report"]["valid"] for item in payload] == \
        [True, False]


@pytest.mark.parametrize("field, value", [
    ("rays", [1, 2]),
    ("params", 5),
    ("witness", ["a"]),
    ("calibration", {"n": 3, "images": [["1", "0"], ["0", "1"], ["a", "b"]],
                     "J": [], "I": 5}),
    ("lvmb", {"m": 1, "Lambda": 3, "E": []}),
])
def test_malformed_fan_file_is_an_input_error(field, value, tmp_path,
                                              capsys):
    bad = _write(tmp_path, "bad.json", {**P2DEF, field: value})
    code, payload = run(capsys, ["validate", bad])
    assert code == 2 and payload["error"]["code"] == "InputError"
    good = _write(tmp_path, "good.json", P2DEF)
    code, payload = run(capsys, ["validate", good, bad, "--jobs", "2"])
    assert code == 2
    assert payload[0] == {"file": good, "report": {"valid": True,
                                                  "violations": []}}
    assert payload[1]["error"]["code"] == "InputError"


@pytest.mark.parametrize("command, cones", [
    ("validate", [[1, 1], [2, 3], [3, 1]]),
    ("properties", [[1, 2, 2], [2, 3], [3, 1]]),
])
def test_cone_that_lists_a_ray_twice_is_an_input_error(command, cones,
                                                      tmp_path, capsys):
    # read as a set, [1, 1] was the ray [1] and [1, 2, 2] the cone [1, 2]
    f = _write(tmp_path, "twice.json", dict(P2STD, cones=cones))
    code, payload = run(capsys, [command, f])
    assert code == 2 and "twice" in payload["error"]["message"]


@pytest.mark.parametrize("command, payload, error", [
    ("validate", dict(P2STD, cones=[[1, "1"], [2, 3], [3, 1]]),
     ("ValueError", "cone lists a ray twice")),
    ("properties", dict(P2STD, cones=[[1, 2, "02"], [2, 3], [3, 1]]),
     ("ValueError", "cone lists a ray twice")),
    ("validate", dict(P2STD, cones=[[1.9, 2], [2, 3], [3, 1]]),
     ("InputError", "index 1.9 is not an int")),
    ("validate", dict(P2STD, cones=[[True, 2], [2, 3], [3, 1]]),
     ("InputError", "index True is not an int")),
    ("validate", dict(P2DEF, calibration=dict(P2DEF["calibration"],
                                              I=[1, 2, "+3"])),
     ("InputError", "index '+3' is not an int")),
    ("lvmb-check", dict(TORUS_LVMB, lvmb=dict(TORUS_LVMB["lvmb"],
                                              E=[[1, 2, 3.0]])),
     ("InputError", "index 3.0 is not an int")),
    ("lvmb-check", dict(TORUS_LVMB, lvmb=dict(TORUS_LVMB["lvmb"],
                                              E=[[1, 2, "3.0"]])),
     ("InputError", "index '3.0' is not an int")),
])
def test_index_that_is_not_an_integer_is_an_input_error(command, payload,
                                                       error, tmp_path,
                                                       capsys):
    # an index is an int or a string of decimal digits, read before the
    # duplicate check: "1" and "02" were int()ed after it, and 1.9 was 1
    f = _write(tmp_path, "index.json", payload)
    code, out = run(capsys, [command, f])
    assert code == 2
    assert (out["error"]["code"], out["error"]["message"]) == error
    digits = dict(TORUS_LVMB, lvmb=dict(TORUS_LVMB["lvmb"],
                                        E=[["1", "2", "03"]]))
    code, out = run(capsys, ["lvmb-check", _write(tmp_path, "ok.json",
                                                  digits)])
    assert code == 0 and out["valid"]


def _line_calibration(rays, images, I, J=()):
    return {"dim": 1, "gamma": [["1"]], "rays": rays, "cones": [[1], [2]],
            "calibration": {"n": len(images), "images": images,
                            "J": list(J), "I": list(I)}}


@pytest.mark.parametrize("command, payload, message", [
    # h(e_0) was read as the last image
    ("atlas", _line_calibration([["-1"], ["1"]], [["1"], ["-1"]], [0, 1]),
     "calibration index out of range"),
    ("lvmb-build", _line_calibration([["1"], ["-1"]], [["1"], ["-1"]],
                                     [1, 7]),
     "calibration index out of range"),
    ("standardize", _line_calibration([["1"], ["1"]], [["1"], ["-1"]],
                                      [1, 1]),
     "calibration lists an index twice"),
    ("atlas", _line_calibration([["1"], ["1"]], [["1"], ["-1"]], [1, 1]),
     "calibration lists an index twice"),
    # a virtual index past n made the calibration look maximal
    ("lvmb-build", _line_calibration([["1"], ["-1"]],
                                     [["1"], ["-1"], ["1"]], [1, 2], [5]),
     "calibration index out of range"),
])
def test_calibration_index_outside_one_to_n_is_an_input_error(
        command, payload, message, tmp_path, capsys):
    f = _write(tmp_path, "cal.json", payload)
    code, out = run(capsys, [command, f])
    assert code == 2
    assert (out["error"]["code"], out["error"]["message"]) == ("ValueError",
                                                              message)


def test_malformed_arguments_are_input_errors(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2STD)
    m = _write(tmp_path, "m.json", {"L": 5})
    for argv in (["morphism-check", "--morphism", m, f, f],
                 ["moduli-act", "--hbar", "5", "--H", "[[1,0],[0,1]]"],
                 ["moduli-act", "--hbar", '[["1"],["2"]]', "--H", "7"],
                 ["hopf-equiv", "--pair1", "5",
                  "--pair2", '["1", "0", "0", "1"]']):
        code, payload = run(capsys, argv)
        assert code == 2 and payload["error"]["code"] == "InputError", argv


def test_json_numbers_in_arguments_are_scalars(capsys):
    assert _cli_scalar(3, {}, {}) == 3
    eye3 = "[[1,0,0],[0,1,0],[0,0,1]]"
    code, rep = run(capsys, ["moduli-act", "--hbar", "[[1],[2]]",
                             "--H", eye3])
    assert code == 0 and rep["hbar"] == [["1"], ["2"]]
    code, rep = run(capsys, ["hopf-equiv", "--pair1", "[0,2,1,3]",
                             "--pair2", '["0", "2", "1", "3"]'])
    assert code == 0 and rep["equivalent"]
    # floats and bools are still not exact numbers
    for argv in (["moduli-act", "--hbar", "[[1.5],[2]]", "--H", eye3],
                 ["hopf-equiv", "--pair1", "[true,2,1,3]",
                  "--pair2", "[0,2,1,3]"]):
        code, payload = run(capsys, argv)
        assert code == 2 and payload["error"]["code"] == "InputError", argv


def parse_outcome(text):
    """parse_scalar's value, or its exception type and message."""
    try:
        x = parse_scalar(text, {})
    except Exception as e:
        return type(e), str(e)
    return type(x.q), x.q


LITERALS = st.from_regex(r"[-+]?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(LITERALS, LITERALS.map(lambda s: s.split("/")[0] + "/0"),
                 st.text("0123456789+-/ \t\n\u0663\u00b2", max_size=12)))
def test_rational_literals_parse_as_by_the_grammar(text):
    """A rational literal read without the parser has the parser's value; a
    zero denominator, whitespace, non-ASCII digits and other text give the
    parser's result or error."""
    by_grammar = mock.patch.object(io, "_LITERAL", re.compile(r"(?!)"))
    with by_grammar:
        want = parse_outcome(text)
    assert parse_outcome(text) == want


def test_type_error_in_a_decider_is_not_an_input_error(tmp_path, capsys,
                                                       monkeypatch):
    def broken(fan, w):
        raise TypeError("a defect")

    monkeypatch.setattr("qtoric.lattice_fan.validate_fan", broken)
    code = main(["validate", _write(tmp_path, "p2.json", P2STD)])
    out, err = capsys.readouterr()
    assert code == 4
    assert json.loads(out) == {"error": {
        "code": "InternalError", "message": "TypeError: a defect"}}
    assert "Traceback" in err and "TypeError: a defect" in err


def test_defects_in_two_file_and_argument_commands_exit_4(tmp_path, capsys,
                                                         monkeypatch):
    def broken(*args):
        raise TypeError("a defect")

    monkeypatch.setattr("qtoric.cli.check_fan_morphism", broken)
    monkeypatch.setattr("qtoric.moduli.p2_orbit", broken)
    f = _write(tmp_path, "p2.json", P2STD)
    m = _write(tmp_path, "id.json", {"L": [["1", "0"], ["0", "1"]]})
    for argv in (["morphism-check", "--morphism", m, f, f],
                 ["p2-orbit", "--a", "-2", "--b", "-3"]):
        code, payload = run(capsys, argv)
        assert code == 4, argv
        assert payload == {"error": {"code": "InternalError",
                                     "message": "TypeError: a defect"}}


def test_failed_self_check_is_an_internal_error(capsys, monkeypatch):
    """torus_equiv_2d's own check of its witness raises qtoric's
    InternalError, a defect and not an input error."""
    monkeypatch.setattr("qtoric.moduli.act_2d", lambda a, H: 3 * a)
    code, payload = run(capsys, ["moduli-equiv-2d", "--a", "sqrt:2",
                                 "--b", "1+sqrt:2"])
    assert code == 4
    assert payload["error"]["code"] == "InternalError"
    assert payload["error"]["message"].startswith("InternalError: ")


DEEP_JSON = "[" * 100000
DEEP_SCALAR = "(" * 3000 + "1" + ")" * 3000


def test_input_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    for argv in (["validate", str(deep)],
                 ["moduli-act", "--hbar", DEEP_JSON, "--H", "[[1,0],[0,1]]"],
                 ["moduli-equiv-2d", "--a", DEEP_SCALAR, "--b", "1"]):
        code, payload = run(capsys, argv)
        assert code == 2 and payload["error"]["code"] == "InputError", argv
        assert "nested too deeply" in payload["error"]["message"]
    good = _write(tmp_path, "good.json", P2DEF)
    code, payload = run(capsys, ["validate", good, str(deep)])
    assert code == 2
    assert payload[0] == {"file": good, "report": {"valid": True,
                                                  "violations": []}}
    assert payload[1]["error"]["code"] == "InputError"


def test_defect_in_a_batch_fails_its_own_file_only(tmp_path, capsys,
                                                   monkeypatch):
    real = qtoric.lattice_fan.validate_fan

    def broken(fan, w):
        if fan.nrays == 5:
            raise TypeError("a defect")
        return real(fan, w)

    monkeypatch.setattr("qtoric.lattice_fan.validate_fan", broken)
    good = _write(tmp_path, "good.json", P2DEF)
    other = _write(tmp_path, "blowup.json", BLOWUP)
    code, payload = run(capsys, ["validate", good, other, "--jobs", "2"])
    assert code == 4
    assert payload[0] == {"file": good, "report": {"valid": True,
                                                  "violations": []}}
    assert payload[1] == {"file": other, "error": {
        "code": "InternalError", "message": "TypeError: a defect"}}


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io as _io
    monkeypatch.setattr("sys.stdin", _io.StringIO(json.dumps(P2DEF)))
    code, payload = run(capsys, ["validate", "-"])
    assert code == 0 and payload["valid"]


def test_float_rejected(tmp_path, capsys):
    bad = json.loads(json.dumps(BLOWUP))
    bad["rays"][0] = [0.5, "0"]
    f = _write(tmp_path, "float.json", bad)
    code, payload = run(capsys, ["validate", f])
    assert code == 2


def test_indeterminate_exit_code(tmp_path, capsys):
    # exit 3: a denominator that vanishes at the witness ...
    code, rep = run(capsys, ["validate",
                             _write(tmp_path, "vanish.json", VANISH)])
    assert code == 3 and rep["error"]["code"] == "Indeterminate"
    # ... or a value: L = (a - 1/2) I gives every image of a ray a cone
    # coefficient a - 1/2 or -a + 1/2 and no certified negative one; the
    # first target cone in sorted order, [1, 2], names a - 1/2
    src = dict(VANISH, rays=P2STD["rays"])
    dst = dict(src, gamma=[["1", "0"], ["0", "1"], ["a-1/2", "0"],
                           ["0", "a-1/2"]])
    L = {"L": [["a-1/2", "0"], ["0", "a-1/2"]]}
    argv = ["morphism-check", "--morphism", _write(tmp_path, "L.json", L),
            _write(tmp_path, "src.json", src), _write(tmp_path, "dst.json", dst)]
    code, rep = run(capsys, argv)
    assert code == 3
    assert rep["error"]["message"] == \
        "a-1/2 vanishes at the witness but is not symbolically zero"
    # L = diag(a - 1/2, 1) is decided: cone [2, 3] maps onto (0, 1) and
    # (-a + 1/2, -1), and each target cone has a certified negative
    # coefficient for one of them
    argv[2] = _write(tmp_path, "L.json", {"L": [["a-1/2", "0"], ["0", "1"]]})
    code, rep = run(capsys, argv)
    assert code == 1 and rep == {"valid": False,
                                 "reason": "cone_containment"}
    # signs are exact: sqrt2 - 577/408 is about -1.5e-6, so a < 0, and
    # -(sqrt2 - 1)^2000, about -10^-765, is decided as well
    for a in ("sqrt:2-577/408", "-(sqrt:2-1)^2000"):
        code, rep = run(capsys, ["p2-orbit", f"--a={a}", "--b", "-1"])
        assert code == 0 and rep["isotropy"] == "Z2(sigma.tau)"


def test_square_sqrt_literal_is_its_root(capsys):
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "sqrt:4", "--b", "2"])
    assert code == 0 and rep["equivalent"]
    assert rep["H"] == [["1", "0"], ["0", "1"]]
    assert run(capsys, ["p2-orbit", "--a=-sqrt:9", "--b", "-1"]) == \
        run(capsys, ["p2-orbit", "--a", "-3", "--b", "-1"])
    for text, value in [("3*sqrt:1/4", Fraction(3, 2)), ("sqrt:0", 0),
                        ("sqrt:49/9-1", Fraction(4, 3))]:
        params, wvals = {}, {}
        assert _cli_scalar(text, params, wvals) == Scalar.from_fraction(value)
        assert params == {} and wvals == {}


def test_nonsquare_sqrt_literal_declares_a_parameter():
    params, wvals = {}, {}
    x = _cli_scalar("1+sqrt:8/9", params, wvals)
    (p,) = params.values()
    assert p.kind == "quadratic" and p.D == Fraction(8, 9)
    assert wvals == {p: 1} and x.params == {p.name: p}
    assert not x.is_rational()


def test_dependent_sqrt_literal_reuses_declared_roots(capsys):
    params, wvals = {}, {}
    s2, s3 = (_cli_scalar(f"sqrt:{d}", params, wvals) for d in (2, 3))
    assert _cli_scalar("sqrt:8/9", params, wvals) == Fraction(2, 3) * s2
    assert _cli_scalar("sqrt:6", params, wvals) == s2 * s3
    assert _cli_scalar("sqrt:3/2", params, wvals) == s2 * s3 / 2
    assert _cli_scalar("sqrt:2", params, wvals) == s2
    # a reused root is one factor of the expression around it
    assert _cli_scalar("1/sqrt:2", params, wvals) == 1 / s2
    assert _cli_scalar("sqrt:2/sqrt:2", params, wvals) == 1
    assert _cli_scalar("sqrt:8^2", params, wvals) == 8
    assert _cli_scalar("1/sqrt:6", params, wvals) == s2 * s3 / 6
    assert _cli_scalar("sqrt:4^3", params, wvals) == 8
    assert len(params) == len(wvals) == 2
    # a = -1 in both, so the orbit is a single point
    for a in ("sqrt:8-2*sqrt:2-1", "sqrt:6-sqrt:2*sqrt:3-1"):
        code, rep = run(capsys, ["p2-orbit", f"--a={a}", "--b=-1"])
        assert code == 0 and rep["isotropy"] == "S3"
        assert rep["canonical"] == ["-1", "-1"]
    # b = -1/sqrt2 after a = -sqrt2 is b = -sqrt2/2, not -sqrt2
    code, rep = run(capsys, ["p2-orbit", "--a=-sqrt:2", "--b=-1/sqrt:2"])
    assert code == 0 and rep["orbit"][0] == ["-sqrt2_1", "-1/2*sqrt2_1"]


def test_dependent_quadratic_parameters_rejected(tmp_path, capsys):
    def with_roots(*Ds):
        names = [f"t{i}" for i in range(len(Ds))]
        return dict(P2STD, witness={n: "sqrt" for n in names},
                    params=[{"name": n, "kind": "quadratic", "D": D}
                            for n, D in zip(names, Ds)])

    assert load_fan_file(with_roots("2", "3", "5/7")).fan is not None
    for Ds in (("2", "8"), ("2", "3", "6"), ("1/2", "2"), ("3", "5", "15")):
        with pytest.raises(InputError, match="multiplicatively independent"):
            load_fan_file(with_roots(*Ds))
    code, rep = run(capsys, ["validate", _write(tmp_path, "dep.json",
                                                 with_roots("2", "8"))])
    assert code == 2 and rep["error"]["code"] == "InputError"
    # the check is polynomial in the number of roots: 60 primes load at once
    primes = [n for n in range(2, 300) if all(n % d for d in range(2, n))]
    start = time.perf_counter()
    assert load_fan_file(with_roots(*map(str, primes[:60]))).fan is not None
    with pytest.raises(InputError, match="multiplicatively independent"):
        load_fan_file(with_roots(*map(str, primes[:59]),
                                 str(prod(primes[:59]))))
    assert time.perf_counter() - start < 5.0


def test_dependent_roots_across_files_rejected(tmp_path, capsys):
    # t = u/2 at the witness: the lattices agree, but as independent
    # symbols t and u/2 differ, which would answer a false "lattice"
    def with_root(name, D, x):
        return dict(P2STD, params=[{"name": name, "kind": "quadratic",
                                    "D": D}], witness={name: "sqrt"},
                    gamma=[["1", "0"], ["0", "1"], [x, "0"]])

    f1 = _write(tmp_path, "t.json", with_root("t", "2", "t"))
    f2 = _write(tmp_path, "u.json", with_root("u", "8", "u/2"))
    f3 = _write(tmp_path, "v.json", with_root("v", "3", "v"))
    mid = _write(tmp_path, "id.json", {"L": [["1", "0"], ["0", "1"]]})
    code, rep = run(capsys, ["morphism-check", "--morphism", mid, f1, f2])
    assert code == 2 and rep["error"]["code"] == "InputError"
    assert "multiplicatively independent" in rep["error"]["message"]
    code, rep = run(capsys, ["cal-morphism-check", "--search", f1, f2])
    assert code == 2 and rep["error"]["code"] == "InputError"
    # independent roots, and one root declared in both files, still run
    code, rep = run(capsys, ["morphism-check", "--morphism", mid, f1, f3])
    assert code == 1 and rep["reason"] == "lattice"
    code, rep = run(capsys, ["morphism-check", "--morphism", mid, f1, f1])
    assert code == 0 and rep["valid"]


def test_conflicting_parameters_across_files_rejected(tmp_path, capsys):
    # one name, two meanings: sqrt 2 != sqrt 3, and 1/2 != 5
    def with_param(decl, value):
        return dict(P2STD, params=[dict(decl, name="t")], witness={"t": value},
                    gamma=[["1", "0"], ["0", "1"], ["t", "0"]])

    quad = {"kind": "quadratic", "D": "2"}
    f1 = _write(tmp_path, "f1.json", with_param(quad, "sqrt"))
    mid = _write(tmp_path, "id.json", {"L": [["1", "0"], ["0", "1"]]})
    for name, decl, value in (
            ("f3.json", dict(quad, D="3"), "sqrt"),
            ("neg.json", quad, "-sqrt"),
            ("tr.json", {"kind": "transcendental"}, "1/2")):
        other = _write(tmp_path, name, with_param(decl, value))
        for cmd in (["morphism-check", "--morphism", mid],
                    ["cal-morphism-check", "--search"]):
            code, rep = run(capsys, [*cmd, f1, other])
            assert code == 2 and rep["error"]["code"] == "InputError"
            assert "'t'" in rep["error"]["message"]
    a1, a5 = (_write(tmp_path, name,
                     with_param({"kind": "transcendental"}, v))
              for name, v in (("a1.json", "1/2"), ("a5.json", "5")))
    code, rep = run(capsys, ["morphism-check", "--morphism", mid, a1, a5])
    assert code == 2 and rep["error"]["code"] == "InputError"
    # one declaration and one value in both files still runs
    code, rep = run(capsys, ["morphism-check", "--morphism", mid, a1, a1])
    assert code == 0 and rep["valid"]


# rays (1,0), (t,1), (2,t), (0,1), (-1,-1) with t^2 = 2: (2,t) = t*(t,1)
QUAD_OVERLAP = {
    "dim": 2, "params": [{"name": "t", "kind": "quadratic", "D": "2"}],
    "witness": {"t": "sqrt"},
    "gamma": [["1", "0"], ["0", "1"], ["t", "0"], ["0", "t"]],
    "rays": [["1", "0"], ["t", "1"], ["2", "t"], ["0", "1"], ["-1", "-1"]],
    "cones": [[1, 2], [3, 4], [4, 5], [5, 1]],
}


def test_quadratic_overlap_is_found(tmp_path, capsys):
    code, rep = run(capsys, ["validate", _write(tmp_path, "q.json",
                                                 QUAD_OVERLAP)])
    assert code == 1 and not rep["valid"]
    assert {"kind": "overlap", "detail": {"cones": [[2], [3]]}} \
        in rep["violations"]


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "qtoric":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for _ in range(2):
        code, rep = run(capsys, ["wps-weights", "--a", "-2", "--b", "-3"])
        assert code == 0 and rep["weights"] == [1, 2, 3]
    assert len(built) == 1


def test_import_builds_no_parser():
    proc = fresh("-c", """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import qtoric.cli
print(len(built))
""")
    assert proc.returncode == 0 and proc.stdout.split() == ["0"]


# first call, its exit code, second call; upper-case words name input files
SHARED_PARSER_CASES = {
    "iso-then-morphism": (
        ["morphism-check", "--morphism", "ID", "--iso", "BLOWUP", "P2"], 1,
        ["morphism-check", "--morphism", "ID", "BLOWUP", "P2"]),
    "indeterminate-then-good": (
        ["validate", "VANISH"], 3,
        ["p2-orbit", "--a", "sqrt:2-577/408", "--b", "-1"]),
    "batch-then-single": (
        ["validate", "BLOWUP", "P2", "--jobs", "2"], 0, ["validate", "P2"]),
    "usage-error-then-good": (
        ["p2-orbit", "--a", "-2"], 2, ["p2-orbit", "--a", "-2", "--b", "-3"]),
    "no-command-then-good": ([], 2, ["comb-type", "BLOWUP"]),
    "schema-then-command": (
        ["--schema"], 0, ["wps-weights", "--a", "-2", "--b", "-3"]),
}


@pytest.mark.parametrize("case", sorted(SHARED_PARSER_CASES))
def test_shared_parser_keeps_no_state(case, tmp_path, capsys):
    files = {"BLOWUP": _write(tmp_path, "blowup.json", BLOWUP),
             "P2": _write(tmp_path, "p2.json", P2STD),
             "ID": _write(tmp_path, "id.json", {"L": [["1", "0"], ["0", "1"]]}),
             "VANISH": _write(tmp_path, "vanish.json", VANISH)}
    first, first_code, second = SHARED_PARSER_CASES[case]
    try:
        code = main([files.get(a, a) for a in first])
    except SystemExit as e:
        code = e.code
    capsys.readouterr()
    assert code == first_code
    second = [files.get(a, a) for a in second]
    code, rep = run(capsys, second)
    proc = fresh("-m", "qtoric.cli", *second)
    assert (code, rep) == (proc.returncode, json.loads(proc.stdout))


# the target's maximal cone <1,2> has the dependent rays (1,0) and (2,0)
DEPENDENT_TARGET = {
    "dim": 2, "params": [], "witness": {},
    "gamma": [["1", "0"], ["0", "1"]],
    "rays": [["1", "0"], ["2", "0"], ["0", "1"], ["-1", "-1"]],
    "cones": [[1, 2], [3, 4]],
}

LINE = {
    "dim": 1, "params": [], "witness": {},
    "gamma": [["1"]],
    "rays": [["1"], ["-1"]],
    "cones": [[1], [2]],
}


def test_dependent_target_cone_is_singular(tmp_path, capsys):
    src = _write(tmp_path, "line.json", LINE)
    dst = _write(tmp_path, "dependent.json", DEPENDENT_TARGET)
    m = _write(tmp_path, "m.json", {"L": [["1"], ["0"]]})
    for argv in (["morphism-check", "--morphism", m, src, dst],
                 ["cal-morphism-check", "--search", src, dst]):
        code, rep = run(capsys, argv)
        assert code == 2 and rep["error"]["code"] == "Singular"


def test_long_literals_are_read_and_written(capsys):
    limit = sys.get_int_max_str_digits()
    n = "1" * 5000
    code = main(["wps-weights", f"--a=-{n}", "--b=-1"])
    out = capsys.readouterr().out
    assert code == 0 and f"{n},\n" in out
    code, rep = run(capsys, ["moduli-equiv-2d", "--a", "1" * 4400,
                             "--b", "1"])
    assert code == 0 and rep["equivalent"]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("args", [
    ["--schema"],
    # about 90 kB of output, more than a pipe holds: the writer is still
    # writing when the reader leaves
    ["moduli-equiv-2d", "--a", "1" * 90000, "--b", "1"]])
def test_reader_closing_the_pipe_early(args):
    src = os.path.dirname(os.path.dirname(qtoric.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "qtoric.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert b"Traceback" not in err and b"Error" not in err
