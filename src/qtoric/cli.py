"""Batch front-end: parse fan/calibration/LVMB files, dispatch operations,
emit JSON reports on stdout.

Exit codes: 0 on Valid/true, 1 on Invalid/false, 2 on input error,
3 on Indeterminate, 4 on an InternalError: an exception of no other kind
(a defect in qtoric) is reported with its traceback on stderr.  The files
of a batch are decided one after another, each failing on its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from fractions import Fraction
from math import prod

from . import atlas as atlas_mod
from . import gale_lvmb as gl
from . import lattice_fan as lf
from . import moduli
from .calibration import (CalibratedFan, standardize_calibration,
                          trivial_calibration)
from .errors import Indeterminate, InputError, InternalError, QtoricError
from .io import (SCHEMA, FanFile, fan_to_json, load_fan_file,
                 load_morphism_file, parse_scalar, reading,
                 require_independent_roots)
from .linalg import Matrix
from .morphism import (CalMorphism, check_cal_morphism, check_fan_iso,
                       check_fan_morphism, find_cal_morphism)
from .scalars import Parameter, Scalar, Witness, square_class

Q = Fraction

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload) -> None:
    """Write the payload as indented JSON and a newline, in one write:
    json.dump would write each of its many small chunks on its own."""
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    sys.stdout.flush()


def _cli_scalar(text, params: dict, witness_vals: dict) -> Scalar:
    """Parse a command-line scalar, or a JSON number inside an argument
    as in fan files.  sqrt:D is r*sqrt(D_1)*...*sqrt(D_j) when
    D*D_1*...*D_j is a rational square for declared parameters t_i^2 = D_i
    (j = 0 when D is a square), else it declares a new quadratic parameter
    (positive root at the witness), so the declared ones stay
    multiplicatively independent."""
    def root(D):
        d = Q(D)
        name = f"sqrt{d.numerator}_{d.denominator}"
        known = (1, [params[name]]) if name in params else \
            square_class(d, params.values())   # a declared D is its own class
        if known is not None:
            r, S = known
            return prod(map(Scalar.of_param, S), start=Scalar.from_fraction(r))
        p = Parameter(name, "quadratic", d)
        params[p.name] = p
        witness_vals[p] = Q(1)
        return Scalar.of_param(p)

    return parse_scalar(text, params, root)


def _need(ff: FanFile, attr, what):
    val = getattr(ff, attr)
    if val is None:
        raise InputError(f"input file lacks {what}")
    return val


def _fan_or_calibrated(ff: FanFile):
    """The file's calibrated fan, or its fan when it has no calibration."""
    fan = _need(ff, "fan", "a fan")
    return CalibratedFan(fan, ff.cal) if ff.cal is not None else fan


def _calibrated(ff: FanFile) -> CalibratedFan:
    target = _fan_or_calibrated(ff)
    if isinstance(target, CalibratedFan):
        return target
    return trivial_calibration(target)


# ---------------------------------------------------------------------------
# per-command handlers: return (payload, exit_code)
# ---------------------------------------------------------------------------

def cmd_validate(ff: FanFile, args):
    rep = lf.validate_fan(_need(ff, "fan", "a fan"), ff.witness)
    return rep.to_json(), EXIT_TRUE if rep.valid else EXIT_FALSE


def cmd_properties(ff: FanFile, args):
    props = lf.fan_properties(_need(ff, "fan", "a fan"), ff.witness)
    return props.to_json(), EXIT_TRUE


def cmd_comb_type(ff: FanFile, args):
    return lf.comb_type(_need(ff, "fan", "a fan")).to_json(), EXIT_TRUE


def cmd_standardize(ff: FanFile, args):
    target = _fan_or_calibrated(ff)
    if isinstance(target, CalibratedFan):
        std, (L, H, s) = standardize_calibration(target)
        payload = fan_to_json(ff.params, ff.raw.get("witness", {}),
                              std.fan, std.cal)
        payload["transform"] = {
            "L": [[str(x) for x in r] for r in L.rows],
            "H": [[int(x.as_fraction()) for x in r] for r in H.rows],
            "s": {str(k): v for k, v in s.items()}}
    else:
        std, L = lf.standardize_fan(target)
        payload = fan_to_json(ff.params, ff.raw.get("witness", {}), std)
        payload["transform"] = {"L": [[str(x) for x in r] for r in L.rows]}
    return payload, EXIT_TRUE


def cmd_atlas(ff: FanFile, args):
    rep = atlas_mod.atlas_report(_fan_or_calibrated(ff),
                                 cone_orders=ff.cone_orders())
    return rep, EXIT_TRUE


def cmd_irrelevant(ff: FanFile, args):
    return atlas_mod.build_irrelevant(_fan_or_calibrated(ff)).to_json(), \
        EXIT_TRUE


def cmd_gale(ff: FanFile, args):
    cf = _calibrated(ff)
    if args.affine:
        images = list(cf.cal.images)
        extra = [Scalar.zero()] * cf.cal.d
        for v in images:
            extra = [e - x for e, x in zip(extra, v)]
        mode = "tail" if args.tail else "pivot"
        data = gl.gale_affine(images + [tuple(extra)], normalization=mode)
    else:
        data = gl.gale_linear(cf.cal)
    return data.to_json(), EXIT_TRUE


def cmd_lvmb_build(ff: FanFile, args):
    datum = gl.build_lvmb(_calibrated(ff))
    payload = datum.to_json()
    payload["indispensable"] = datum.indispensable()
    return payload, EXIT_TRUE


def cmd_lvmb_check(ff: FanFile, args):
    datum = _need(ff, "lvmb", "an lvmb block")
    res = gl.check_lvmb(datum, ff.witness)
    payload = res.to_json()
    payload["indispensable"] = datum.indispensable()
    return payload, EXIT_TRUE if res.ok else EXIT_FALSE


def cmd_lvm_check(ff: FanFile, args):
    datum = _need(ff, "lvmb", "an lvmb block")
    res = gl.check_lvm(datum.points, datum.m, ff.witness)
    ok = res["siegel"] and res["weak_hyperbolic"]
    payload = {"siegel": res["siegel"],
               "weak_hyperbolic": res["weak_hyperbolic"],
               "E": sorted(sorted(e) for e in res["E"])}
    return payload, EXIT_TRUE if ok else EXIT_FALSE


def cmd_polytope(ff: FanFile, args):
    datum = _need(ff, "lvmb", "an lvmb block")
    return gl.polytope_faces(datum, ff.witness).to_json(), EXIT_TRUE


def cmd_kh_check(ff: FanFile, args):
    datum = _need(ff, "lvmb", "an lvmb block")
    verdict = gl.condition_KH(datum.points, ff.witness)
    return {"condition": verdict}, EXIT_TRUE


def cmd_lvmb_to_fan(ff: FanFile, args):
    datum = _need(ff, "lvmb", "an lvmb block")
    cf = gl.lvmb_to_fan(datum)
    payload = fan_to_json(ff.params, ff.raw.get("witness", {}),
                          cf.fan, cf.cal)
    return payload, EXIT_TRUE


# -- two-file commands -------------------------------------------------------

def _two_files(args):
    """The two fan files, their parameters and their merged witness.  A
    name declared in both files must have one kind, D and witness value."""
    ff1, ff2 = (load_fan_file(_read(f)) for f in args.files)
    w1, w2 = ff1.witness.values, ff2.witness.values
    for name in sorted(w1.keys() & w2.keys()):
        if w1[name] != w2[name]:
            raise InputError(f"parameter {name!r} is declared or valued "
                             "differently in the two files")
    values = {p: v for ff in (ff1, ff2) for p, v in ff.witness.values.values()}
    require_independent_roots(values)
    return ff1, ff2, {**ff1.params, **ff2.params}, Witness(values)


def cmd_comb_equiv(args):
    ff1, ff2 = (load_fan_file(_read(f)) for f in args.files)
    D1 = lf.comb_type(_need(ff1, "fan", "a fan"))
    D2 = lf.comb_type(_need(ff2, "fan", "a fan"))
    perm = lf.comb_equivalent(D1, D2)
    if perm is None:
        return {"equivalent": False}, EXIT_FALSE
    return {"equivalent": True,
            "permutation": {str(k): v for k, v in sorted(perm.items())}}, \
        EXIT_TRUE


def cmd_morphism_check(args):
    ff1, ff2, params, w = _two_files(args)
    L, _, _ = load_morphism_file(_read(args.morphism), params)
    if L is None:
        raise InputError("morphism file lacks L")
    check = check_fan_iso if args.iso else check_fan_morphism
    res = check(L, ff1.fan, ff2.fan, w)
    return res.to_json(), EXIT_TRUE if res.ok else EXIT_FALSE


def cmd_cal_morphism_check(args):
    ff1, ff2, params, w = _two_files(args)
    cf1, cf2 = _calibrated(ff1), _calibrated(ff2)
    if args.search:
        L = None
        if args.morphism:
            L, _, _ = load_morphism_file(_read(args.morphism), params)
        m = find_cal_morphism(cf1, cf2, w, L=L)
        if m is None:
            return {"found": False}, EXIT_FALSE
        return {"found": True, "morphism": m.to_json()}, EXIT_TRUE
    if not args.morphism:
        raise InputError("cal-morphism-check needs --morphism or --search")
    L, H, s = load_morphism_file(_read(args.morphism), params)
    if L is None or H is None:
        raise InputError("morphism file must carry L and H")
    res = check_cal_morphism(CalMorphism(L, H, s), cf1, cf2, w)
    return res.to_json(), EXIT_TRUE if res.ok else EXIT_FALSE


# -- moduli commands ----------------------------------------------------------

def cmd_moduli_act(args):
    params, wvals = {}, {}
    with reading("--hbar"):
        hbar = Matrix([[_cli_scalar(x, params, wvals) for x in r]
                       for r in json.loads(args.hbar)])
    with reading("--H"):
        H = Matrix([[Scalar.from_fraction(Q(str(x))) for x in r]
                    for r in json.loads(args.H)])
    out = moduli.torus_act(hbar, H)
    return {"hbar": [[str(x) for x in r] for r in out.rows]}, EXIT_TRUE


def cmd_moduli_equiv_2d(args):
    params, wvals = {}, {}
    a = _cli_scalar(args.a, params, wvals)
    b = _cli_scalar(args.b, params, wvals)
    H = moduli.torus_equiv_2d(a, b)
    if H is None:
        return {"equivalent": False}, EXIT_FALSE
    # torus_equiv_2d checks act_2d(a, H) = b before it returns H
    return {"equivalent": True,
            "H": [[str(x) for x in r] for r in H.rows],
            "verified": True}, EXIT_TRUE


def cmd_p2_orbit(args):
    params, wvals = {}, {}
    a = _cli_scalar(args.a, params, wvals)
    b = _cli_scalar(args.b, params, wvals)
    w = Witness(wvals)
    rep = moduli.p2_orbit(a, b, w)
    return rep.to_json(), EXIT_TRUE


def cmd_wps_weights(args):
    params, wvals = {}, {}
    alpha, beta, gamma = moduli.wps_weights(
        _cli_scalar(args.a, params, wvals), _cli_scalar(args.b, params, wvals))
    return {"weights": [alpha, beta, gamma]}, EXIT_TRUE


def cmd_hopf_equiv(args):
    params, wvals = {}, {}

    @reading("Hopf pair")
    def pair(text):
        vals = [_cli_scalar(x, params, wvals) for x in json.loads(text)]
        if len(vals) != 4:
            raise InputError("a Hopf pair needs 4 reals: re3, im3, re4, im4")
        return ((vals[0], vals[1]), (vals[2], vals[3]))

    p1 = pair(args.pair1)
    p2 = pair(args.pair2)
    w = Witness(wvals)
    res = moduli.hopf_equiv(p1, p2, w)
    return res, EXIT_TRUE if res["equivalent"] else EXIT_FALSE


SINGLE_FILE_COMMANDS = {
    "validate": cmd_validate,
    "properties": cmd_properties,
    "comb-type": cmd_comb_type,
    "standardize": cmd_standardize,
    "atlas": cmd_atlas,
    "irrelevant": cmd_irrelevant,
    "gale": cmd_gale,
    "lvmb-build": cmd_lvmb_build,
    "lvmb-check": cmd_lvmb_check,
    "lvm-check": cmd_lvm_check,
    "polytope": cmd_polytope,
    "kh-check": cmd_kh_check,
    "lvmb-to-fan": cmd_lvmb_to_fan,
}

ARGS_COMMANDS = {
    "comb-equiv": cmd_comb_equiv,
    "morphism-check": cmd_morphism_check,
    "cal-morphism-check": cmd_cal_morphism_check,
    "moduli-act": cmd_moduli_act,
    "moduli-equiv-2d": cmd_moduli_equiv_2d,
    "p2-orbit": cmd_p2_orbit,
    "wps-weights": cmd_wps_weights,
    "hopf-equiv": cmd_hopf_equiv,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtoric",
        description="Exact combinatorics of quantum toric geometry")
    ap.add_argument("--schema", action="store_true",
                    help="print the input file schema and exit")
    sub = ap.add_subparsers(dest="command")
    for name in SINGLE_FILE_COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("files", nargs="+", help="fan file(s), - for stdin")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: the files are decided "
                             "one after another")
        if name == "gale":
            sp.add_argument("--affine", action="store_true")
            sp.add_argument("--tail", action="store_true",
                            help="normalize the last n-d affine Gale "
                                 "vectors to the canonical basis")
    sp = sub.add_parser("comb-equiv")
    sp.add_argument("files", nargs=2)
    sp = sub.add_parser("morphism-check")
    sp.add_argument("files", nargs=2)
    sp.add_argument("--morphism", required=True)
    sp.add_argument("--iso", action="store_true")
    sp = sub.add_parser("cal-morphism-check")
    sp.add_argument("files", nargs=2)
    sp.add_argument("--morphism")
    sp.add_argument("--search", action="store_true")
    sp = sub.add_parser("moduli-act")
    sp.add_argument("--hbar", required=True)
    sp.add_argument("--H", required=True)
    sp = sub.add_parser("moduli-equiv-2d")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp = sub.add_parser("p2-orbit")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp = sub.add_parser("wps-weights")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp = sub.add_parser("hopf-equiv")
    sp.add_argument("--pair1", required=True)
    sp.add_argument("--pair2", required=True)
    ap.commands = sub.choices      # each command's subparser, by name
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sp = ap.commands.get(argv[0]) if argv else None
    if sp is None:
        args = ap.parse_args(argv)
    else:
        # what parse_args does for a command, without the top-level walk
        args, extra = sp.parse_known_args(
            argv[1:], argparse.Namespace(schema=False, command=argv[0]))
        if extra:
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
    if not args.schema and not args.command:
        ap.print_help()
        return EXIT_INPUT
    # literals of any length are read and written: CPython >= 3.10.7 caps
    # int <-> decimal str conversions at 4300 digits unless told otherwise
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        payload, code = _run(args)
        _emit(payload)
    except BrokenPipeError:
        # the reader left early (qtoric ... | head): point stdout at
        # devnull so that the interpreter's final flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


def _run(args):
    """(payload, exit code) of the command the arguments name."""
    if args.schema:
        return SCHEMA, EXIT_TRUE
    if args.command not in SINGLE_FILE_COMMANDS:
        return _reported(lambda: ARGS_COMMANDS[args.command](args))
    handler = SINGLE_FILE_COMMANDS[args.command]
    results = [_reported(lambda: handler(load_fan_file(_read(path)), args))
               for path in args.files]
    if len(results) == 1:
        return results[0]
    # handlers exit 0 or 1; a failed file (exit 2, 3 or 4) holds its
    # {"error": ...} in place of a report
    return ([{"file": f, **(payload if code >= EXIT_INPUT
                           else {"report": payload})}
             for f, (payload, code) in zip(args.files, results)],
            max(code for _, code in results))


def _reported(run):
    """run() -> (payload, exit code), with any exception turned into an
    {"error": {"code", "message"}} payload: Indeterminate, an input error,
    or an InternalError for a defect in qtoric, whose traceback goes to
    stderr."""
    try:
        return run()
    except Indeterminate as e:
        return ({"error": {"code": "Indeterminate", "message": str(e)}},
                EXIT_INDETERMINATE)
    except InternalError as e:
        return _defect(e)
    except (QtoricError, OSError, ValueError, KeyError,
            ZeroDivisionError) as e:
        return ({"error": {"code": type(e).__name__, "message": str(e)}},
                EXIT_INPUT)
    except Exception as e:
        return _defect(e)


def _defect(e):
    traceback.print_exc()
    return ({"error": {"code": "InternalError",
                       "message": f"{type(e).__name__}: {e}"}},
            EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
