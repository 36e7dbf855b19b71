"""JSON input/output: the fan file schema, scalar expression parsing and
canonical serialization.

Numbers are exchanged as exact strings ("-1/2", "a*b+1", "(-b)/(a)");
floats are rejected.  Witness values for quadratic parameters may be given
as "sqrt" / "-sqrt" (the chosen root of t^2 = D) or as an explicit
rational approximation whose sign selects the root.
"""

from __future__ import annotations

import itertools
import json
import re
from contextlib import contextmanager
from fractions import Fraction

from .calibration import Calibration
from .errors import InputError
from .gale_lvmb import LVMBDatum
from .lattice_fan import QLattice, QuantumFan
from .linalg import Matrix
from .scalars import Parameter, Scalar, Witness, square_class

Q = Fraction

SCHEMA = {
    "version": 1,
    "description": "qtoric fan file",
    "fields": {
        "dim": "ambient dimension d (int)",
        "params": [{"name": "identifier",
                    "kind": "transcendental | quadratic",
                    "D": "positive non-square rational (quadratic only)"}],
        "witness": {"<param>": "exact rational string, or sqrt/-sqrt for "
                               "quadratic parameters"},
        "gamma": [["scalar strings (one vector per generator)"]],
        "rays": [["scalar strings (one vector per ray)"]],
        "cones": [["1-based ray indices"]],
        "close_faces": "bool (default true): close the cone list under faces",
        "calibration": {"n": "int", "images": [["scalar strings"]],
                        "J": ["virtual indices"], "I": ["generator indices"]},
        "lvmb": {"m": "int", "Lambda": [["2m real scalar strings"]],
                 "E": [["1-based indices, size 2m+1"]]},
    },
    "scalars": "expressions over declared parameter names with + - * / ^ "
               "and rational literals",
    "morphism file": {"L": [["scalar strings"]], "H": [["integers"]],
                      "s": {"virtual index": "virtual index"}},
}


# ---------------------------------------------------------------------------
# scalar expressions
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s+|sqrt:([0-9]+(?:/[0-9]+)?)|([0-9]+)|(\w+)|([-+*/^()])|(.)", re.S)


def _tokenize(text: str, resolve=None):
    """The tokens of a scalar expression, one per match of _TOKEN: an ASCII
    numeral, a name (a word that starts with a letter or "_") or an operator;
    white space is skipped, and any other character is an error.  With a
    resolver, sqrt:D (D an ASCII numeral or n/d) is one ("scalar",
    resolve(D)) token; without one it is the name sqrt before a stray ':'."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        val = m[kind] if kind else None
        if kind == 1 and resolve is not None:
            out.append(("scalar", resolve(val)))
        elif kind == 2:
            out.append(("num", int(val)))
        elif kind == 3 and (val[0].isalpha() or val[0] == "_"):
            out.append(("name", val))
        elif kind == 4:
            out.append((val, val))
        elif kind:
            bad = ":" if kind == 1 else val[0]
            raise InputError(f"unexpected character {bad!r} in scalar")
    return out


class _Parser:
    def __init__(self, text, params, resolve=None):
        self.text, self.toks, self.pos = text, _tokenize(text, resolve), 0
        self.params = params

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos == len(self.toks):
            raise InputError(f"unexpected end of scalar {self.text!r}")
        self.pos += 1
        return self.toks[self.pos - 1]

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while self.peek() in ("*", "/"):
            op, _ = self.next()
            rhs = self.factor()
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self):
        sign = self.peek()
        if sign in ("-", "+"):
            self.next()
            return -self.factor() if sign == "-" else self.factor()
        atom = self.atom()
        if self.peek() == "^":
            self.next()
            kind, val = self.next()
            neg = False
            if kind == "-":
                neg = True
                kind, val = self.next()
            if kind != "num":
                raise InputError("exponent must be an integer")
            return atom ** (-val if neg else val)
        return atom

    def atom(self):
        kind, val = self.next()
        if kind in ("num", "scalar"):
            return Scalar.coerce(val)
        if kind == "name":
            if val not in self.params:
                raise InputError(f"undeclared parameter {val!r}")
            return Scalar.of_param(self.params[val])
        if kind == "(":
            out = self.expr()
            if self.peek() != ")":
                raise InputError("unbalanced parentheses")
            self.next()
            return out
        raise InputError(f"unexpected token {val!r}")


# a rational literal such as "-3" or "5/4", read without the parser; a zero
# denominator is left to the parser and its error
_LITERAL = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")


def parse_scalar(text, params: dict, resolve=None) -> Scalar:
    """The Scalar of an expression over the parameters in params; resolve,
    when given, reads each sqrt:D token (see _tokenize)."""
    if isinstance(text, bool) or isinstance(text, float):
        raise InputError("numbers must be exact strings, not floats/bools")
    if isinstance(text, int):
        return Scalar.from_fraction(text)
    text = str(text)
    m = _LITERAL.fullmatch(text)
    if m:
        sign, num, den = m.groups()
        n, d = int(num), int(den or 1)
        if d:
            return Scalar.from_fraction(Fraction(-n if sign == "-" else n, d))
    p = _Parser(text, params, resolve)
    if not p.toks:
        raise InputError("empty scalar")
    try:
        out = p.expr()
    except RecursionError as e:
        raise InputError("scalar nested too deeply") from e
    if p.pos != len(p.toks):
        raise InputError(f"trailing input in scalar {text!r}")
    return out


# ---------------------------------------------------------------------------
# fan files
# ---------------------------------------------------------------------------

class FanFile:
    """Parsed fan file: parameters, witness, q-lattice, fan, optional
    calibration and LVMB block."""

    def __init__(self, params, witness, gamma=None, fan=None, cal=None,
                 lvmb=None, raw=None):
        self.params = params
        self.witness = witness
        self.gamma = gamma
        self.fan = fan
        self.cal = cal
        self.lvmb = lvmb
        self.raw = raw or {}

    def cone_orders(self):
        return [tuple(c) for c in _indices(self.raw.get("cones", []))]


def _require(cond, msg):
    if not cond:
        raise InputError(msg)


def _indices(lists) -> list:
    """Index lists as ints; an index is an int (not a bool) or digits."""
    for i in itertools.chain(*lists):
        _require(type(i) is int or isinstance(i, str)
                 and re.fullmatch("[0-9]+", i), f"index {i!r} is not an int")
    return [[int(i) for i in c] for c in lists]


def require_independent_roots(params) -> None:
    """InputError unless the quadratic parameters' roots are multiplicatively
    independent, which makes the zero tests of scalars and of their values
    in Q(sqrt(D_1), ..., sqrt(D_k)) exact."""
    quads = [p for p in params if p.kind == "quadratic"]
    for i, p in enumerate(quads):
        _require(square_class(p.D, quads[:i]) is None,
                 f"the root of quadratic parameter {p.name!r} is a rational "
                 "multiple of a product of earlier ones: declared roots "
                 "must be multiplicatively independent")


@contextmanager
def reading(what):
    """Turn a type or shape error raised while reading input (a number
    where a list belongs, a list where an object belongs), or input nested
    deeper than the interpreter's stack, into an InputError; a context
    manager, or a decorator of a reader."""
    try:
        yield
    except (TypeError, AttributeError) as e:
        raise InputError(f"malformed {what}: {e}") from e
    except RecursionError as e:
        raise InputError(f"{what} nested too deeply") from e


def _json(data):
    if isinstance(data, (str, bytes)):
        try:
            return json.loads(data)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from e
    return data


@reading("fan file")
def load_fan_file(data) -> FanFile:
    """The FanFile of a JSON text or of its parsed object.  Each distinct
    str or int scalar of gamma, the rays, the calibration images and Lambda
    is parsed once per file, keyed by its type and value (so a bool is
    never read as the int it equals), and shared; any other entry goes to
    parse_scalar as it stands, for its error."""
    data = _json(data)
    _require(isinstance(data, dict), "fan file must be a JSON object")
    params = {}
    for p in data.get("params", []):
        _require("name" in p, "parameter without a name")
        kind = p.get("kind", "transcendental")
        D = p.get("D")
        try:
            params[p["name"]] = Parameter(
                p["name"], kind, Q(str(D)) if D is not None else None)
        except ValueError as e:
            raise InputError(str(e)) from e
    require_independent_roots(params.values())
    wvals = {}
    for name, val in (data.get("witness") or {}).items():
        _require(name in params, f"witness for undeclared parameter {name!r}")
        p = params[name]
        if isinstance(val, str) and val.strip() in ("sqrt", "-sqrt"):
            _require(p.kind == "quadratic",
                     "sqrt witness for a non-quadratic parameter")
            wvals[p] = Q(1) if val.strip() == "sqrt" else Q(-1)
        else:
            if isinstance(val, float):
                raise InputError("witness values must be exact strings")
            wvals[p] = Q(str(val))
    for name, p in params.items():
        _require(name in (data.get("witness") or {}),
                 f"parameter {name!r} has no witness value")
    witness = Witness(wvals)
    scalars = {}

    def scalar(x):
        if type(x) not in (str, int):
            return parse_scalar(x, params)
        key = type(x), x
        if key not in scalars:
            scalars[key] = parse_scalar(x, params)
        return scalars[key]

    def vec(v):
        return [scalar(x) for x in v]

    gamma = fan = cal = lvmb = None
    if "dim" in data and "gamma" in data:
        dim = int(data["dim"])
        gamma = QLattice(dim, [vec(g) for g in data["gamma"]])
    if gamma is not None and "rays" in data:
        rays = [vec(r) for r in data["rays"]]
        fan = QuantumFan(gamma, rays, _indices(data.get("cones", [])))
        if data.get("close_faces", True):
            fan = fan.with_closure()
    if fan is not None and "calibration" in data:
        c = data["calibration"]
        images = [vec(v) for v in c["images"]]
        _require(len(images) == int(c["n"]), "calibration n != #images")
        J, I = _indices([c.get("J", []), c["I"]])
        cal = Calibration(gamma, images, J, I)
        _require(len(cal.I) == fan.nrays,
                 "calibration I size differs from ray count")
    if "lvmb" in data:
        l = data["lvmb"]
        pts = [vec(p) for p in l["Lambda"]]
        lvmb = LVMBDatum(int(l["m"]), pts, _indices(l["E"]))
    return FanFile(params, witness, gamma, fan, cal, lvmb, raw=data)


@reading("morphism file")
def load_morphism_file(data, params: dict):
    data = _json(data)
    L = Matrix([[parse_scalar(x, params) for x in r] for r in data["L"]]) \
        if "L" in data else None
    H = Matrix([[parse_scalar(x, params) for x in r] for r in data["H"]]) \
        if "H" in data else None
    s = data.get("s") or {}
    s = dict(zip(*_indices([s, s.values()])))
    return L, H, s


def fan_to_json(ff_params, witness_raw, fan: QuantumFan,
                cal: Calibration | None = None) -> dict:
    out = {
        "version": 1,
        "dim": fan.dim,
        "params": [_param_json(p) for p in sorted(ff_params.values(),
                                                  key=lambda p: p.name)],
        "witness": witness_raw,
        "gamma": [[str(x) for x in g] for g in fan.gamma.generators],
        "rays": [[str(x) for x in v] for v in fan.rays],
        "cones": sorted((sorted(c) for c in fan.cones),
                        key=lambda c: (len(c), c)),
        "close_faces": False,
    }
    if cal is not None:
        out["calibration"] = {
            "n": cal.n,
            "images": [[str(x) for x in v] for v in cal.images],
            "J": list(cal.J),
            "I": list(cal.I),
        }
    return out


def _param_json(p: Parameter) -> dict:
    out = {"name": p.name, "kind": p.kind}
    if p.D is not None:
        out["D"] = str(p.D)
    return out
