"""Calibrations h: Z^n -> Gamma with virtual generators, standard forms,
kernel (gerbe) rank, and the induced classical fan in Z^n."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotGammaComplete
from .lattice_fan import QLattice, QuantumFan, _is_gamma_complete
from .linalg import Matrix, basis_inverse
from .scalars import Scalar


class Calibration:
    """Images h(e_1)..h(e_n) in Gamma, virtual set J, generator index set I.

    The attached fan's rays are exactly the rays through h(e_i), i in I,
    listed in increasing index order (so ray k of the fan is h(e_{I[k]}))."""

    def __init__(self, gamma: QLattice, images, J, I):
        self.gamma = gamma
        self.images = tuple(tuple(Scalar.coerce(x) for x in v)
                            for v in images)
        I, J = tuple(I), tuple(J)
        if not set(range(1, self.n + 1)).issuperset(I + J):
            raise ValueError("calibration index out of range")
        if len(set(I + J)) < len(I + J):
            raise ValueError("calibration lists an index twice")
        self.J, self.I = tuple(sorted(J)), tuple(sorted(I))
        for v in self.images:
            if len(v) != gamma.dim:
                raise ValueError("image of wrong dimension")

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def d(self) -> int:
        return self.gamma.dim

    def image(self, i: int):
        return self.images[i - 1]

    def matrix(self) -> Matrix:
        """The d x n matrix with columns h(e_1)..h(e_n)."""
        return Matrix.from_columns(self.images)

    def is_maximal(self) -> bool:
        return len(self.J) == self.n - len(self.I)

    def __repr__(self):
        return (f"Calibration(n={self.n}, d={self.d}, J={list(self.J)}, "
                f"I={list(self.I)})")


@dataclass
class CalibratedFan:
    """A quantum fan together with a calibration attached to it; the fan's
    ray generators are exactly the images h(e_i) for i in I, in order."""
    fan: QuantumFan
    cal: Calibration

    def __post_init__(self):
        if len(self.cal.I) != self.fan.nrays:
            raise ValueError("generator index set size differs from ray count")
        for k, i in enumerate(self.cal.I):
            ray = self.fan.rays[k]
            img = self.cal.image(i)
            if any(x != y for x, y in zip(ray, img)):
                raise ValueError(
                    f"ray {k + 1} differs from calibration image h(e_{i})")

    def ray_of_index(self, i: int) -> int:
        """Position in the fan's ray list of calibration index i in I."""
        return self.cal.I.index(i) + 1

    def index_of_ray(self, k: int) -> int:
        return self.cal.I[k - 1]


def trivial_calibration(fan: QuantumFan) -> CalibratedFan:
    """h(e_i) = v_i with empty virtual set; needs a Gamma-complete fan."""
    if not _is_gamma_complete(fan):
        raise NotGammaComplete("trivial calibration needs a gamma-complete fan")
    cal = Calibration(fan.gamma, fan.rays, [], range(1, fan.nrays + 1))
    return CalibratedFan(fan, cal)


def kernel_rank(cal: Calibration):
    """(a, basis): a = n - rank_Z(Gamma) and a saturated Z-basis of
    Xi = ker(h) in Z^n, the relations among the images h(e_i)."""
    basis = QLattice(cal.d, cal.images).relations()
    return len(basis), basis


def induced_fan(cf: CalibratedFan) -> QuantumFan:
    """Classical fan Delta_h in Z^n: rays e_i for i in I, one cone i*(sigma)
    per cone sigma; the cone poset is carried over index-for-index."""
    n = cf.cal.n
    eye = Matrix.identity(n)
    rays = [eye.column(i - 1) for i in cf.cal.I]
    return QuantumFan(QLattice.standard(n), rays, cf.fan.cones)


def standardize_calibration(cf: CalibratedFan):
    """Standard form per the normalization conventions: h'(e_i) = e_i for
    i <= d, virtual generators moved to the tail, generator index set
    I' = {1..k, d+1..d+p-k}.  Returns ((fan', cal'), (L, H, s))."""
    cal, fan = cf.cal, cf.fan
    n, d, p = cal.n, cal.d, fan.nrays
    # the lexicographically first independent set among the ray images,
    # completed by non-virtual non-ray images, lexicographically first
    others = [i for i in range(1, n + 1) if i not in cal.J and i not in cal.I]
    candidates = list(cal.I) + others
    picks, inv = basis_inverse([cal.image(i) for i in candidates])
    basis_idx = [candidates[j] for j in picks]
    if len(basis_idx) != d:
        raise ValueError("non-virtual images do not span R^d")
    L = Matrix(inv)
    chosen = [i for i in basis_idx if i in cal.I]
    # target ordering of the source indices
    rest_rays = [i for i in cal.I if i not in chosen]
    rest_nonvirtual = [i for i in range(1, n + 1)
                       if i not in cal.J and i not in basis_idx
                       and i not in rest_rays]
    virtual = list(cal.J)
    order = basis_idx + rest_rays + rest_nonvirtual + virtual
    pos = {src: t + 1 for t, src in enumerate(order)}
    # H: permutation with H(e_src) = e_{pos[src]}
    eye = Matrix.identity(n)
    H = Matrix.from_columns([eye.column(pos[src] - 1)
                             for src in range(1, n + 1)])
    new_images = [None] * n
    for src in range(1, n + 1):
        new_images[pos[src] - 1] = L.apply(cal.image(src))
    new_I = sorted(pos[i] for i in cal.I)
    new_J = sorted(pos[j] for j in cal.J)
    s = {j: pos[j] for j in cal.J}
    # relabel fan rays: ray k of the new fan is image at new_I[k-1]
    ray_perm = {k: new_I.index(pos[cal.I[k - 1]]) + 1 for k in range(1, p + 1)}
    new_rays = [None] * p
    for old_k in range(1, p + 1):
        new_rays[ray_perm[old_k] - 1] = L.apply(fan.rays[old_k - 1])
    new_cones = [frozenset(ray_perm[i] for i in c) for c in fan.cones]
    new_gamma = fan.gamma.transform(L)
    new_fan = QuantumFan(new_gamma, new_rays, new_cones)
    new_cal = Calibration(new_gamma, new_images, new_J, new_I)
    return CalibratedFan(new_fan, new_cal), (L, H, s)
