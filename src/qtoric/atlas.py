"""Chart and gluing data of (calibrated) quantum toric varieties:
chart matrices, gluing exponent matrices, chart calibrations, and the
toric open set S with its fan Delta_H.

Exponent matrices are emitted for the monomial convention
z^M = (prod_i z_i^{M_i1}, ..., prod_i z_i^{M_id}); under that convention
the transition from chart I to chart I' is z -> z^M with
M = (A_{I'} A_I^{-1})^T, and the rows of M indexed by the shared rays are
identity rows pointing at the rays' positions in the target chart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .calibration import CalibratedFan
from .errors import EmptyIntersection
from .lattice_fan import QuantumFan, _ordered
from .linalg import Matrix, ratio


@dataclass
class ChartData:
    cone: tuple            # ray indices of the maximal cone, in chart order
    A: Matrix              # the chart matrix A_I
    completion: tuple      # canonical basis indices used when |I| < d
    H: Matrix | None = None        # permutation H_I (calibrated case)
    hbar: Matrix | None = None     # d x (n-d) chart calibration values

    def to_json(self):
        out = {"I": list(self.cone),
               "A": [[str(x) for x in r] for r in self.A.rows],
               "completion": list(self.completion)}
        if self.H is not None:
            out["H"] = [[int(x.as_fraction()) for x in r]
                        for r in self.H.rows]
        if self.hbar is not None:
            out["hbar"] = [[str(x) for x in r] for r in self.hbar.rows]
        return out


def chart_matrix(fan: QuantumFan, cone) -> tuple:
    """A_I for a maximal cone: the exact inverse of the generator matrix,
    completed (when |I| < d) by canonical basis vectors chosen greedily in
    index order.  Returns (A_I, completion indices)."""
    return fan.chart(cone)


def gluing_exponents(fan: QuantumFan, cone_from, cone_to) -> Matrix:
    """Exponent matrix M with z_to = z_from^M, i.e. (A_to A_from^-1)^T.

    Row t of M is A_to applied to the t-th column of A_from^-1: for a ray
    both cones share, the unit row of its position in the target chart;
    for any other ray, A_to applied to it (QuantumFan.chart_image, keyed
    by the ray's index, so each (chart, ray) pair is formed once per fan);
    for a completion vector e_j, column j of A_to, each entry formed once
    from A_to = N/D (chart_rows).  Requires two maximal cones with nonempty
    intersection."""
    if not frozenset(cone_from) & frozenset(cone_to):
        raise EmptyIntersection(
            f"{_ordered(cone_from)} and {_ordered(cone_to)} are disjoint")
    N, D, _ = fan.chart_rows(cone_to)
    _, _, completion = fan.chart_rows(cone_from)
    to = _ordered(cone_to)
    eye = Matrix.identity(fan.dim).rows
    return Matrix([eye[to.index(i)] if i in to
                   else fan.chart_image(to, fan.ray(i), i).entries()
                   for i in _ordered(cone_from)]
                  + [[ratio(r[j - 1], D) for r in N] for j in completion])


def chart_calibration(cf: CalibratedFan, cone) -> tuple:
    """(H_I, hbar_I): the permutation aligning the cone's calibration
    indices with the leading coordinates, and the chart calibration making
    h_I = A_I h H_I^{-1} standard (h_I = [Id | hbar_I]): column k of h_I is
    A_I h(e_order[k]) (QuantumFan.chart_image)."""
    cal = cf.cal
    n, d = cal.n, cal.d
    # calibration indices of the cone's rays, in cone order
    cone_cal_idx = [cf.index_of_ray(ray) for ray in _ordered(cone)]
    rest = [i for i in range(1, n + 1) if i not in cone_cal_idx]
    order = cone_cal_idx + rest
    pos = {src: t + 1 for t, src in enumerate(order)}
    eye = Matrix.identity(n)
    H_I = Matrix.from_columns([eye.column(pos[src] - 1)
                               for src in range(1, n + 1)])
    cols = [cf.fan.chart_image(cone, cal.image(src)).entries()
            for src in order[d:]]
    return H_I, Matrix([[c[r] for c in cols] for r in range(d)])


@dataclass
class IrrelevantDescriptor:
    """Minimal forbidden index subsets (z_i = 0 for i in F excluded) plus
    the cone list of Delta_H."""
    n: int
    forbidden: list = field(default_factory=list)
    delta_H: list = field(default_factory=list)

    def allows(self, zero_set) -> bool:
        z = set(zero_set)
        return not any(set(f) <= z for f in self.forbidden)

    def to_json(self):
        return {"n": self.n,
                "forbidden": [sorted(f) for f in self.forbidden],
                "delta_H": [sorted(c) for c in self.delta_H]}


def build_irrelevant(cf_or_fan) -> IrrelevantDescriptor:
    """Minimal non-faces of the cone poset (the minimal forbidden zero-sets
    of S) and the cone list of Delta_H lifted to canonical basis cones.

    For a calibrated fan the ambient coordinates are the calibration
    indices 1..n (virtual indices are never faces, so each is a minimal
    forbidden singleton).  Minimal non-faces of a simplicial fan have at
    most d+1 elements, which bounds the enumeration."""
    if isinstance(cf_or_fan, CalibratedFan):
        cf = cf_or_fan
        n = cf.cal.n
        d = cf.fan.dim
        cones = {frozenset(cf.index_of_ray(k) for k in c)
                 for c in cf.fan.cones}
    else:
        fan = cf_or_fan
        n = fan.nrays
        d = fan.dim
        cones = set(fan.cones)
    forbidden = []
    for size in range(1, min(n, d + 1) + 1):
        for sub in itertools.combinations(range(1, n + 1), size):
            fs = frozenset(sub)
            if fs in cones:
                continue
            if any(set(f) <= fs for f in forbidden):
                continue
            forbidden.append(tuple(sorted(fs)))
    delta_H = sorted((tuple(sorted(c)) for c in cones),
                     key=lambda t: (len(t), t))
    return IrrelevantDescriptor(n, forbidden, [list(c) for c in delta_H])


def atlas_report(cf_or_fan, cone_orders=None) -> dict:
    """Per maximal cone chart data, per intersecting pair the gluing
    exponents, and the irrelevant descriptor.

    "cocycle" is the constant true: with M_IJ = (A_J A_I^-1)^T,
    M_IJ M_JK = (A_K A_J^-1 A_J A_I^-1)^T = M_IK for any invertible
    charts, so the gluings satisfy the cocycle condition by construction.

    cone_orders: optional list of ordered index tuples fixing the chart
    coordinate order of each maximal cone (e.g. the order written in the
    input file); maximal cones not listed fall back to sorted order."""
    cf = cf_or_fan if isinstance(cf_or_fan, CalibratedFan) else None
    fan = cf_or_fan if cf is None else cf.fan
    order_of = {frozenset(t): tuple(t) for t in cone_orders or []}
    maxc = [order_of.get(frozenset(c), tuple(sorted(c)))
            for c in fan.maximal_cones()]
    charts = []
    for cone in maxc:
        chart = ChartData(cone, *chart_matrix(fan, cone))
        if cf is not None:
            chart.H, chart.hbar = chart_calibration(cf, cone)
        charts.append(chart)
    # both directions of an intersecting pair next to each other
    pairs = [(s, t) for c1, c2 in itertools.combinations(maxc, 2)
             if set(c1) & set(c2) for s, t in ((c1, c2), (c2, c1))]
    return {"charts": [c.to_json() for c in charts],
            "gluings": [{"from": list(s), "to": list(t),
                         "exponents": [[str(x) for x in r] for r in
                                       gluing_exponents(fan, s, t).rows]}
                        for s, t in pairs],
            "cocycle": True,
            "irrelevant": build_irrelevant(cf_or_fan).to_json()}
