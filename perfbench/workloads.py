"""Request decks for the three workloads, made from a seed.

Every request is one ``qtoric <command>`` invocation on generated files,
together with the answer it must give.  The answer follows from how the
input was built (a complete fan is valid, a duplicated ray direction is an
overlap, a GL_n(Z) image is a morphism, b = a.H is equivalent to a, ...);
it is never computed by qtoric itself.

Inputs are plain JSON written by this module; the program under test sees
only the files and the command line.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q

from exact import QuadNumber, kernel, rank

WORKLOADS = ("fans-rational", "fans-parametric", "moduli")

# Rounds of the kind cycle in one deck.  A run sends the deck's requests in
# order and starts again at the top, so the kinds stay interleaved in any
# prefix of the stream.
ROUNDS = {"fans-rational": 12, "fans-parametric": 9, "moduli": 90}
EQUIV_PER_ROUND = 3


@dataclass
class Request:
    kind: str
    argv: list                    # file arguments are names inside the workdir
    expect: dict                  # checked by oracle.check
    defect: str | None = None     # known defect this request exposes, if any
    round: int = 0


@dataclass
class Deck:
    workload: str
    seed: int
    requests: list
    files: dict                   # name -> JSON-able payload

    def file_bytes(self, name) -> bytes:
        return (json.dumps(self.files[name], sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# affine scalars: {basis name: Fraction}, "1" is the constant
# ---------------------------------------------------------------------------

PARAM_DECL = {
    "a": {"name": "a", "kind": "transcendental"},
    "b": {"name": "b", "kind": "transcendental"},
    "t": {"name": "t", "kind": "quadratic", "D": "2"},
    "u": {"name": "u", "kind": "quadratic", "D": "3"},
}


def aff(const=0, **coeffs):
    out = {"1": Q(const)} if const else {}
    out.update({k: Q(v) for k, v in coeffs.items() if v})
    return out


def aff_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, Q(0)) + v
        if out[k] == 0:
            del out[k]
    return out


def aff_scale(x, c):
    return {k: v * c for k, v in x.items() if v * c != 0}


def aff_str(x) -> str:
    if not x:
        return "0"
    parts = []
    for k in sorted(x, key=lambda k: (k != "1", k)):
        c = x[k]
        lit = str(c) if k == "1" else f"{c}*{k}"
        parts.append(lit if not parts or c < 0 else "+" + lit)
    return "".join(parts)


def aff_params(vectors):
    return sorted({k for v in vectors for x in v for k in x if k != "1"})


def coefficient_rows(vectors, names):
    """Each vector flattened over the basis (1) x coordinates."""
    return [[x.get(k, Q(0)) for x in v for k in ["1"] + names]
            for v in vectors]


def rational_vec(v):
    return [aff(c) for c in v]


def is_rational(vectors):
    return all(set(x) <= {"1"} for v in vectors for x in v)


def to_fractions(v):
    return [x.get("1", Q(0)) for x in v]


# ---------------------------------------------------------------------------
# complete fans
# ---------------------------------------------------------------------------

def circle_dirs(rng, p):
    """p primitive directions in cyclic order, consecutive gaps < 180
    degrees: the rays of a complete simplicial fan in R^2."""
    while True:
        dirs = set()
        while len(dirs) < p:
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            if x or y:
                g = math.gcd(x, y)
                dirs.add((x // g, y // g))
        dirs = sorted(dirs, key=lambda v: math.atan2(v[1], v[0]))
        if all(dirs[i][0] * dirs[(i + 1) % p][1]
               - dirs[i][1] * dirs[(i + 1) % p][0] > 0 for i in range(p)):
            return [list(v) for v in dirs]


@dataclass
class Fan:
    dim: int
    rays: list            # affine vectors
    cones: list           # maximal cones, 1-based ray indices
    witness: dict = field(default_factory=dict)

    @property
    def params(self):
        return aff_params(self.rays)

    def intersecting_pairs(self):
        return sum(1 for i in range(len(self.cones))
                   for j in range(i + 1, len(self.cones))
                   if set(self.cones[i]) & set(self.cones[j]))

    def gamma_rank(self):
        return rank(coefficient_rows(self.rays, self.params))


def shaped_dirs(B, p):
    """Directions from the seed-independent shape stream, moved by an
    SL_2(Z) map drawn from the seed: the seed changes every coordinate but
    keeps the cyclic order and the size of the numbers, so the cost of a
    deck varies little from seed to seed."""
    dirs = circle_dirs(B.shapes, p)
    G = unimodular(B.rng, 2, 2, flip=False)
    return [[G[0][0] * x + G[0][1] * y, G[1][0] * x + G[1][1] * y]
            for x, y in dirs]


def circle_fan(B, p):
    dirs = shaped_dirs(B, p)
    return Fan(2, [rational_vec(v) for v in dirs],
               [[i + 1, (i + 1) % p + 1] for i in range(p)])


def bipyramid_fan(B, k):
    base = shaped_dirs(B, k)
    rays = [v + [0] for v in base] + [[0, 0, 1], [0, 0, -1]]
    cones = []
    for i in range(k):
        a, b = i + 1, (i + 1) % k + 1
        cones += [[a, b, k + 1], [a, b, k + 2]]
    return Fan(3, [rational_vec(v) for v in rays], cones)


def fan_payload(fan: Fan, calibration=None):
    names = fan.params
    out = {
        "dim": fan.dim,
        "params": [PARAM_DECL[n] for n in names],
        "witness": {n: fan.witness[n] for n in names},
        "gamma": [[aff_str(x) for x in v] for v in fan.rays],
        "rays": [[aff_str(x) for x in v] for v in fan.rays],
        "cones": fan.cones,
    }
    if calibration is not None:
        out["calibration"] = calibration
    return out


# ---------------------------------------------------------------------------
# parametric transformations with known effect
# ---------------------------------------------------------------------------

# Affine scalars positive at every witness used here (a, b < 0 and the
# positive roots t = sqrt 2, u = sqrt 3).  Each has coprime coefficients, so
# s*v is not divisible by 2 in the coefficient lattice when v is primitive.
POSITIVE = {
    "trans": [aff(0, a=-1), aff(1, a=-1), aff(0, b=-1), aff(2, b=-1)],
    "quad": [aff(0, t=1), aff(1, t=1), aff(0, u=1), aff(-1, u=1)],
}


def transcendental_witness(rng):
    return {"a": f"-{rng.randint(2, 9)}/{rng.randint(1, 4)}",
            "b": f"-{rng.randint(2, 9)}/{rng.randint(1, 4)}"}


def with_witness(fan: Fan, family, rng):
    fan.witness = (transcendental_witness(rng) if family == "trans"
                   else {"t": "sqrt", "u": "sqrt"})
    return fan


def scale_rays(fan: Fan, B, family, count):
    """Scale `count` rays other than ray 1 by positive parametric scalars:
    cones keep their supports, so every geometric answer is unchanged.
    Which rays and scalars come from the shape stream, the witness from the
    seed."""
    with_witness(fan, family, B.rng)
    idx = B.shapes.sample(range(1, len(fan.rays)),
                          min(count, len(fan.rays) - 1))
    for i in idx:
        s = B.shapes.choice(POSITIVE[family])
        fan.rays[i] = [aff_scale(s, x["1"]) if x else {} for x in fan.rays[i]]
    return fan


def perturb_rays(fan: Fan, B, count):
    """Add multiples of (a - a0) to `count` rays other than ray 1: at the
    witness a = a0 the rays are the rational ones.  The multiplier clears
    a0's denominator so the coefficient lattice stays integral."""
    with_witness(fan, "trans", B.rng)
    a0 = Q(fan.witness["a"])
    vanishing = aff(-a0 * a0.denominator, a=a0.denominator)   # q*a - p
    idx = B.shapes.sample(range(1, len(fan.rays)),
                          min(count, len(fan.rays) - 1))
    for i in idx:
        w = [B.shapes.choice([-1, 0, 1]) for _ in range(fan.dim)]
        if not any(w):
            w[0] = 1
        fan.rays[i] = [aff_add(x, aff_scale(vanishing, c))
                       for x, c in zip(fan.rays[i], w)]
    return fan


# ---------------------------------------------------------------------------
# invalid fans: one ray direction used twice
# ---------------------------------------------------------------------------

def duplicate_ray(fan: Fan, j: int, dup):
    """Append ray `dup` (a positive multiple of ray j) and give it the cone
    <j, j+1> in place of j: the 1-d cones [j] and [new] overlap."""
    p = len(fan.rays)
    fan.rays.append(dup)
    new = p + 1
    fan.cones = [[new if (i == j and c == [j, j % p + 1]) else i for i in c]
                 for c in fan.cones]
    return [[j], [new]]


def overlap_fan_rational(B, p):
    rng = B.rng
    fan = circle_fan(B, p)
    j = rng.randint(2, len(fan.rays))
    c = rng.randint(2, 3)
    pair = duplicate_ray(fan, j, [aff_scale(x, c) for x in fan.rays[j - 1]])
    return fan, pair


def quad_direction_fan(B, p):
    """A complete 2-d fan whose ray j points in the irrational direction
    K*v_j + t*v_(j+1), strictly inside the old cone <j, j+1>."""
    rng = B.rng
    fan = circle_fan(B, p)
    with_witness(fan, "quad", rng)
    p = len(fan.rays)
    j = rng.randint(2, p)
    vp, vj, vn = (to_fractions(fan.rays[(j - 2) % p]),
                  to_fractions(fan.rays[j - 1]), to_fractions(fan.rays[j % p]))
    # det(v_(j-1), K v_j + t v_(j+1)) > 0 needs K det(v_(j-1), v_j) > 2 |...|
    d_prev = vp[0] * vj[1] - vp[1] * vj[0]
    d_skip = abs(vp[0] * vn[1] - vp[1] * vn[0])
    K = int(2 * d_skip / d_prev) + 1 + rng.randint(0, 2)
    fan.rays[j - 1] = [aff(K * x, t=y) for x, y in zip(vj, vn)]
    return fan, j


def quad_overlap_fan(B, p):
    """ROADMAP item 4's repro generalised: ray j has an irrational quadratic
    direction r, and a second ray s*r with s = e + f*t > 0, f != 0."""
    rng = B.rng
    fan, j = quad_direction_fan(B, p)
    e, f = rng.choice([(0, 1), (1, 1), (-1, 1), (3, -1)])
    r = fan.rays[j - 1]
    # (e + f t)(x + y t) = (e x + 2 f y) + (e y + f x) t
    dup = [aff(e * x.get("1", 0) + 2 * f * x.get("t", 0),
               t=e * x.get("t", 0) + f * x.get("1", 0)) for x in r]
    return fan, duplicate_ray(fan, j, dup)


# ---------------------------------------------------------------------------
# GL_n(Z), calibrations and LVMB data
# ---------------------------------------------------------------------------

def unimodular(rng, n, steps=3, flip=True):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        M = [[M[r][k] + (c * M[j][k] if r == i else 0) for k in range(n)]
             for r in range(n)]
    if flip and rng.random() < 0.5:
        M[0] = [-x for x in M[0]]
    return M


def apply_int(M, v):
    out = []
    for row in M:
        acc = {}
        for c, x in zip(row, v):
            acc = aff_add(acc, aff_scale(x, c))
        out.append(acc)
    return out


def even_calibration(rng, fan: Fan, r):
    """Maximal-length calibration with n - d even: the rays plus virtual
    images that are small nonzero integer combinations of the rays."""
    p, d = len(fan.rays), fan.dim
    n = p + (p - d) % 2 + 2 * cycle([0, 1, 1], r)
    while n > 9:
        n -= 2
    images = [list(v) for v in fan.rays]
    while len(images) < n:
        coeffs = [rng.randint(-2, 2) for _ in range(p)]
        img = [{} for _ in range(d)]
        for c, v in zip(coeffs, fan.rays):
            img = [aff_add(x, aff_scale(y, c)) for x, y in zip(img, v)]
        if any(img):
            images.append(img)
    cal = {"n": n, "images": [[aff_str(x) for x in v] for v in images],
           "J": list(range(p + 1, n + 1)), "I": list(range(1, p + 1))}
    return cal, images


def lvmb_datum(fan: Fan, images):
    """Affine Gale transform of the rational images plus the balancing
    vector, and E = complements of the maximal cones in {1..n+1}."""
    n, d = len(images), fan.dim
    cols = [to_fractions(v) for v in images]
    cols.append([-sum(c[k] for c in cols) for k in range(d)])
    A = [[c[k] for c in cols] for k in range(d)] + [[Q(1)] * (n + 1)]
    basis = kernel(A)
    scaled = []
    for vec in basis:
        den = math.lcm(*(x.denominator for x in vec))
        scaled.append([x * den for x in vec])
    points = [[aff(scaled[k][i]) for k in range(len(scaled))]
              for i in range(n + 1)]
    E = sorted(sorted(set(range(1, n + 2)) - set(c)) for c in fan.cones)
    return points, E


def lvmb_block(points, E):
    return {"m": len(points[0]) // 2,
            "Lambda": [[aff_str(x) for x in p] for p in points], "E": E}


def transform_points(points, family, a0=None):
    """An invertible parametric linear map of the Gale space: admissibility,
    balance and the recovered fan's combinatorics are unchanged.  Quadratic:
    scale the first coordinate by t.  Transcendental: add (q a - p) times
    the second coordinate to the first, with a0 = p/q."""
    out = []
    for p in points:
        p = list(p)
        if family == "quad":
            p[0] = aff_scale(aff(0, t=1), p[0].get("1", Q(0)))
        else:
            vanish = aff(-a0 * a0.denominator, a=a0.denominator)
            p[0] = aff_add(p[0], aff_scale(vanish, p[1].get("1", Q(0))))
        out.append(p)
    return out


def lvmb_fan(B, r):
    shape = cycle([3, 4, 5, "3d"], r)
    if shape == "3d":
        return bipyramid_fan(B, 3)
    return circle_fan(B, shape)


# ---------------------------------------------------------------------------
# deck building
# ---------------------------------------------------------------------------

class DeckMaker:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.shapes = random.Random(f"{workload}:shapes")
        self.strata_total = EQUIV_PER_ROUND * ROUNDS[workload]
        self.strata = list(range(self.strata_total))
        self.shapes.shuffle(self.strata)
        self.files = {}
        self.requests = []
        self.round = 0

    def file(self, payload, tag):
        name = f"f{len(self.files):04d}-{tag}.json"
        self.files[name] = payload
        return name

    def add(self, kind, argv, expect, defect=None):
        self.requests.append(Request(kind, list(argv), expect, defect,
                                     self.round))


def properties_expect(fan):
    return {"check": "properties",
            "irrational": fan.gamma_rank() > fan.dim,
            "complete": True, "gamma_complete": True, "polytopal": True}


def atlas_expect(fan):
    out = {"check": "atlas", "charts": len(fan.cones),
           "gluings": 2 * fan.intersecting_pairs()}
    if is_rational(fan.rays):
        out["rays"] = [[str(x) for x in to_fractions(v)] for v in fan.rays]
    return out


def cycle(options, r, salt=0):
    """Sizes and variants follow the round index, not the seed, so every
    seed's deck has the same mix of shapes; the seed draws the numbers."""
    return options[(r + salt) % len(options)]


def sized_fan(B, shape, r, salt=0):
    if shape == "2d":
        return circle_fan(B, cycle([4, 5, 6, 7, 8], r, salt))
    return bipyramid_fan(B, cycle([3, 4], r, salt))


def parametric(fan: Fan, B, count, r, salt=0):
    mode = cycle(["trans", "quad", "perturb"], r, salt)
    if mode == "perturb":
        return perturb_rays(fan, B, count)
    return scale_rays(fan, B, mode, count)


def add_fan_requests(B: DeckMaker, params: bool, r: int):
    """Round r of the fan command mix; `params` selects the parametric
    variants of the same shapes."""
    rng = B.rng
    # The costly requests (properties, 3-d atlas, morphisms, properties
    # batches) come in every third round only, so a deck holds many
    # requests for its length; they cycle through their sizes by h.
    heavy, h = r % 3 == 0, r // 3

    def fan_of(shape, salt, count=2, r=r):
        fan = sized_fan(B, shape, r, salt)
        if params:
            parametric(fan, B, count, r, salt)
        return fan

    for salt, shape in enumerate(("2d", "3d")):
        fan = fan_of(shape, salt)
        f = B.file(fan_payload(fan), "fan")
        B.add("validate", ["validate", f], {"check": "valid"})
        if heavy:
            fan = fan_of(shape, salt + 2, r=h)
            f = B.file(fan_payload(fan), "fan")
            B.add("properties", ["properties", f], properties_expect(fan))

    fan, pair = overlap_fan_rational(B, cycle([4, 5, 6, 7], r))
    f = B.file(fan_payload(fan), "overlap")
    B.add("validate-overlap", ["validate", f],
          {"check": "overlap", "pair": pair})
    if params:
        fan, pair = quad_overlap_fan(B, cycle([4, 5, 6], r))
        f = B.file(fan_payload(fan), "quad-overlap")
        B.add("validate-quad-overlap", ["validate", f],
              {"check": "overlap", "pair": pair}, defect="quad-overlap")
        fan, _ = quad_direction_fan(B, cycle([4, 5, 6], r, 1))
        f = B.file(fan_payload(fan), "quad-direction")
        B.add("validate", ["validate", f], {"check": "valid"})

    # atlases; a parametric 3-d bipyramid has three base rays and one
    # parametric ray, since the cost grows steeply with parametric rays
    fan = fan_of("2d", 1)
    f = B.file(fan_payload(fan), "fan")
    B.add("atlas", ["atlas", f], atlas_expect(fan))
    if heavy:
        if params:
            fan = bipyramid_fan(B, 3)
            parametric(fan, B, 1, h, 2)
        else:
            fan = bipyramid_fan(B, cycle([3, 3, 4], h))
        f = B.file(fan_payload(fan), "fan3")
        B.add("atlas-3d", ["atlas", f], atlas_expect(fan))
        add_morphism_requests(B, params, h)

    # LVMB: build from an even calibrated fan; check, invert and list the
    # faces of a datum made by this module from another one
    # (a fan with p - d even goes without a calibration, so the command
    # takes the trivial one: n = p and no virtual generators)
    fan = lvmb_fan(B, r)
    if params:
        scale_rays(fan, B, cycle(["trans", "quad"], r, 1), 1)
    n, d = len(fan.rays), fan.dim
    if (n - d) % 2:
        cal, _ = even_calibration(rng, fan, r)
        n, J = cal["n"], cal["J"]
        f = B.file(fan_payload(fan, calibration=cal), "calibrated")
    else:
        J = []
        f = B.file(fan_payload(fan), "fan")
    B.add("lvmb-build", ["lvmb-build", f],
          {"check": "lvmb-build", "m": (n - d) // 2, "N": n + 1,
           "E": len(fan.cones), "indispensable": J + [n + 1]})

    fan = lvmb_fan(B, r + 1)
    cal, images = even_calibration(rng, fan, r + 1)
    n, d, p = cal["n"], fan.dim, len(fan.rays)
    points, E = lvmb_datum(fan, images)
    witness = {}
    if params:
        family = cycle(["trans", "quad"], r)
        witness = with_witness(fan, family, rng).witness
        points = transform_points(points, family,
                                  Q(witness["a"]) if family == "trans"
                                  else None)
    names = aff_params(points)
    lv = B.file({"params": [PARAM_DECL[x] for x in names],
                 "witness": {x: witness[x] for x in names},
                 "lvmb": lvmb_block(points, E)}, "lvmb")
    B.add("lvmb-check", ["lvmb-check", lv],
          {"check": "lvmb-check", "indispensable": cal["J"] + [n + 1]})
    B.add("lvmb-to-fan", ["lvmb-to-fan", lv],
          {"check": "lvmb-to-fan", "dim": d, "rays": p, "n": n,
           "J": cal["J"], "cones": len(fan.cones)})
    B.add("polytope", ["polytope", lv],
          {"check": "polytope", "facets": p, "vertices": len(fan.cones)})

    # batches of two files through the --jobs 2 pool
    for salt, cmd in enumerate(("validate", "properties")):
        if cmd == "properties" and not heavy:
            continue
        names, expects = [], []
        for k in range(2):
            fan = fan_of(cycle(["2d", "3d", "2d"], k + salt), k + salt, 1,
                         r if cmd == "validate" else h)
            names.append(B.file(fan_payload(fan), "batch"))
            expects.append({"check": "valid"} if cmd == "validate"
                           else properties_expect(fan))
        B.add(f"batch-{cmd}", [cmd, *names, "--jobs", "2"],
              {"check": "batch", "items": expects})


def add_morphism_requests(B: DeckMaker, params: bool, h: int):
    """A GL_n(Z) image of a fan is a morphism and an isomorphism; half of
    it is not a morphism.  Rays are only scaled here: a perturbed ray can
    put an image exactly on a cone boundary at the witness, where no sign
    is decidable."""
    fan = sized_fan(B, cycle(["2d", "3d"], h), h, 2)
    if params:
        scale_rays(fan, B, cycle(["trans", "quad"], h), 2)
    G = unimodular(B.rng, fan.dim, 2)
    img = Fan(fan.dim, [apply_int(G, v) for v in fan.rays], fan.cones,
              fan.witness)
    f1 = B.file(fan_payload(fan), "src")
    f2 = B.file(fan_payload(img), "dst")
    mg = B.file({"L": [[str(x) for x in row] for row in G]}, "morphism")
    B.add("morphism-check", ["morphism-check", "--morphism", mg, f1, f2],
          {"check": "flag", "key": "valid", "value": True, "exit": 0})
    B.add("morphism-iso", ["morphism-check", "--iso", "--morphism", mg, f1,
                           f2],
          {"check": "flag", "key": "valid", "value": True, "exit": 0})
    mh = B.file({"L": [[str(Q(x, 2)) for x in row] for row in G]}, "half")
    B.add("morphism-check-non", ["morphism-check", "--morphism", mh, f1, f2],
          {"check": "flag", "key": "valid", "value": False, "exit": 1})


def add_search_requests(B: DeckMaker):
    """Acceptance criterion 4's family: P1 with h = (1, -1, a) into quantum
    P2 with a fourth generator (x, y).  A morphism exists for (2a, a) and
    for neither (a/2, a) nor (1, a)."""
    w = {"a": B.rng.choice(["-7/3", "-5/2", "-9/4", "-3"])}
    p1 = B.file({"dim": 1, "params": [PARAM_DECL["a"]], "witness": w,
                 "gamma": [["1"], ["a"]], "rays": [["1"], ["-1"]],
                 "cones": [[1], [2]],
                 "calibration": {"n": 3, "images": [["1"], ["-1"], ["a"]],
                                 "J": [3], "I": [1, 2]}}, "p1")
    base = [["1", "0"], ["0", "1"], ["-1", "-1"]]
    for (x, y), found in ((("2*a", "a"), True), (("a/2", "a"), False),
                          (("1", "a"), False)):
        p2 = B.file({"dim": 2, "params": [PARAM_DECL["a"]], "witness": w,
                     "gamma": base + [[x, y]], "rays": base,
                     "cones": [[1, 2], [2, 3], [3, 1]],
                     "calibration": {"n": 4, "images": base + [[x, y]],
                                     "J": [4], "I": [1, 2, 3]}}, "p2")
        expect = {"check": "search", "found": found}
        if found:
            expect["L"] = [["2"], ["1"]]
            expect["H"] = [[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 0, 1]]
        B.add("cal-morphism-search",
              ["cal-morphism-check", "--search", p1, p2], expect)


# ---------------------------------------------------------------------------
# moduli requests
# ---------------------------------------------------------------------------

def squarefree_core(n: int) -> int:
    core, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            core *= d
        d += 1
    return core * n


def log_uniform_nonsquare(rng, lo=2, hi=10 ** 7, stratum=None):
    """A non-square D, log-uniform in [lo, hi]; with stratum = (j, k) it is
    drawn from the j-th of k equal slices of the log range, so a deck's
    spread of discriminants is the same for every seed."""
    u = rng.random()
    if stratum is not None:
        u = (stratum[0] + u) / stratum[1]
    D = int(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    # D + 1 is never a square when D >= 2 is one
    return D + 1 if math.isqrt(D) ** 2 == D else D


def small_fraction(rng, lo=-5, hi=5, den=4, nonzero=False):
    while True:
        x = Q(rng.randint(lo, hi), rng.randint(1, den))
        if x or not nonzero:
            return x


def quad_literal(x: QuadNumber) -> str:
    return f"({x.u})+({x.v})*sqrt:{x.D}"


def random_quad(rng, D):
    return QuadNumber(small_fraction(rng), small_fraction(rng, -3, 3, 3, True),
                      D)


def negative_value(rng, quadratic):
    if quadratic:
        D = rng.choice([2, 3, 5, 7, 11])
        return f"-({rng.randint(0, 3)}+{rng.randint(1, 3)}*sqrt:{D})"
    while True:
        x = -Q(rng.randint(1, 9), rng.randint(1, 5))
        if x != -1:
            return str(x)


def hopf_pair(rng, side):
    """(re3, im3, re4, im4) with both imaginary parts on one side of 1."""
    def im():
        return (Q(rng.randint(5, 20), 4) if side > 0
                else Q(rng.randint(-8, 3), 4))
    return [small_fraction(rng), im(), small_fraction(rng), im()]


def add_moduli_requests(B: DeckMaker):
    rng = B.rng
    # b = a.H for a in Q(sqrt D), D log-uniform in [2, 1e7].  As with the
    # fans, the shape stream draws D and a base value a0, and the seed moves
    # it by a GL_2(Z) map G: a = a0.G has the periodic tail of a0's
    # continued fraction, so the walk lengths (the cost of a request, and
    # whether it reaches the step cap) vary little from seed to seed.
    for _ in range(EQUIV_PER_ROUND):
        D = log_uniform_nonsquare(B.shapes, stratum=(B.strata.pop(),
                                                     B.strata_total))
        G = [[int(x) for x in r] for r in unimodular(rng, 2, 3)]
        a = random_quad(B.shapes, D).act(G)
        H = [[int(x) for x in r] for r in unimodular(rng, 2, 3)]
        b = a.act(H)
        B.add("equiv-2d", ["moduli-equiv-2d", f"--a={quad_literal(a)}",
                           f"--b={quad_literal(b)}"],
              {"check": "equiv-2d", "a": [str(a.u), str(a.v)],
               "b": [str(b.u), str(b.v)], "D": D}, defect="cf-cap")
    # rationals are all equivalent (Bezout)
    a, b = small_fraction(rng, -30, 30, 30), small_fraction(rng, -30, 30, 30)
    B.add("equiv-2d-rational",
          ["moduli-equiv-2d", f"--a={a}", f"--b={b}"],
          {"check": "equiv-2d", "a": [str(a), "0"], "b": [str(b), "0"],
           "D": 2})
    # different square classes, or rational against quadratic
    D1 = log_uniform_nonsquare(rng)
    while True:
        D2 = log_uniform_nonsquare(rng)
        if squarefree_core(D2) != squarefree_core(D1):
            break
    other = (quad_literal(random_quad(rng, D2)) if rng.random() < 0.7
             else str(small_fraction(rng)))
    B.add("inequiv-2d", ["moduli-equiv-2d",
                         f"--a={quad_literal(random_quad(rng, D1))}",
                         f"--b={other}"],
          {"check": "flag", "key": "equivalent", "value": False, "exit": 1})
    # quantum P2 orbits: the isotropy class is chosen, the values drawn
    for quadratic in (False, True):
        iso = rng.choice(["S3", "Z2(sigma)", "Z2(sigma.tau)",
                          "Z2(tau.sigma)", "trivial", "trivial"])
        x = negative_value(rng, quadratic)
        y = negative_value(rng, False)
        while y == x:
            y = negative_value(rng, False)
        a, b = {"S3": ("-1", "-1"), "Z2(sigma)": (x, x),
                "Z2(sigma.tau)": (x, "-1"), "Z2(tau.sigma)": ("-1", x),
                "trivial": (x, y)}[iso]
        B.add("p2-orbit", ["p2-orbit", f"--a={a}", f"--b={b}"],
              {"check": "p2-orbit", "isotropy": iso,
               "orbit": {"S3": 1, "trivial": 6}.get(iso, 3)})
    # weighted projective weights, checked against the chart formula
    fa = -Q(rng.randint(1, 40), rng.randint(1, 40))
    fb = -Q(rng.randint(1, 40), rng.randint(1, 40))
    B.add("wps-weights", ["wps-weights", f"--a={fa}", f"--b={fb}"],
          {"check": "wps", "weights": wps_chart_weights(fa, fb)})
    # Hopf pairs: integer shifts, possibly switched, are equivalent
    for equivalent in (True, False):
        side = rng.choice([1, -1])
        p = hopf_pair(rng, side)
        if rng.random() < 0.3:
            p[2], p[3] = p[0] + rng.randint(-2, 2), p[1]   # isotropy Z2
        iso = p[1] == p[3] and (p[2] - p[0]).denominator == 1
        k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
        if equivalent:
            q = ([p[0] + k1, p[1], p[2] + k2, p[3]] if rng.random() < 0.5
                 else [p[2] + k1, p[3], p[0] + k2, p[1]])
        else:
            while p[1] == p[3]:
                p[3] = hopf_pair(rng, side)[3]
            iso = False
            q = [p[0] + k1 + Q(1, 2), p[1], p[2] + k2, p[3]]
        B.add("hopf-equiv",
              ["hopf-equiv", "--pair1=" + json.dumps([str(x) for x in p]),
               "--pair2=" + json.dumps([str(x) for x in q])],
              {"check": "hopf", "equivalent": equivalent,
               "isotropy": "Z2" if iso else "trivial"})


def wps_chart_weights(a, b):
    """Per chart of P2, the least t making t * (chart hbar vector)
    integral; the chart vectors are (a, b), (-b/a, 1/a), (1/b, -a/b)."""
    charts = [(a, b), (-b / a, 1 / a), (1 / b, -a / b)]
    return [math.lcm(u.denominator, v.denominator) for u, v in charts]


def build_deck(workload: str, seed: int) -> Deck:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    B = DeckMaker(workload, seed)
    for r in range(ROUNDS[workload]):
        B.round = r
        if workload == "moduli":
            add_moduli_requests(B)
        else:
            params = workload == "fans-parametric"
            add_fan_requests(B, params, r)
            if params:
                add_search_requests(B)
    return Deck(workload, seed, B.requests, B.files)
