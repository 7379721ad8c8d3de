"""Spectral machinery on the round two-sphere.

Real orthonormal spherical harmonics on a Gauss-Legendre colatitude grid
crossed with a uniform azimuth grid.  With ``lmax + 1`` colatitude nodes and
``2 * lmax + 1`` azimuths the quadrature integrates products of harmonics
exactly up to combined degree ``2 * lmax``, so analysis
followed by synthesis is the identity on band-limited fields.

Conventions
-----------
Coefficients are stored flat with index ``l**2 + l + m`` for degree ``l``
and order ``m`` in ``[-l, l]``.  Positive orders carry ``cos(m*lon)``,
negative orders ``sin(|m|*lon)``.  The constant function 1 has sole
coefficient ``sqrt(4*pi)`` at ``(0, 0)``.

A field of coefficients ``c`` has unit-sphere integrals

* ``integral f^2          = sum c^2``              (Parseval)
* ``integral |grad f|^2   = sum l(l+1) c^2``
* ``integral (lap f)^2    = sum (l(l+1))^2 c^2``

and the same field read on a round slice of radius ``u`` scales these by
``u^2``, ``1`` and ``u^-2`` respectively.

A ``HarmonicField`` is its coefficients alone.  Each transform is a
method of the grid it runs on: ``grid.synthesize(phi.coeffs)`` gives grid
values and ``HarmonicField(grid.analyze(values))`` the field back.  Every
synthesis takes coefficients of any band limit up to the grid's and
refuses a higher one.

Transform layout
----------------
Each grid gathers the flat coefficients into a zero-padded
``(m, branch, l)`` array (branch 0 cosine, 1 sine; slots with ``l < m``
and the sine branch of ``m = 0`` read 0) and keeps one Legendre table in
``(m, l, theta)`` layout, value, d/dtheta and d2/dtheta2 blocks side by
side with the azimuth normalization folded in; its ``l < m`` entries are
exactly 0.  Synthesis is then one batched matmul over the orders for the
colatitude profiles and one matmul of the stacked profile pairs against
the cosines and sines.  Analysis and the gradient transpose run the same
two steps backwards and scatter through the same index (the padded
layout of SHTns: Schaeffer, G^3 14, 2013).  A synthesis of a field whose
band limit L is below the grid's runs the colatitude matmul and the pair
products for the orders m <= L alone, as SHTns sizes a transform by the
field's band, and zero-fills the pairs above; every matmul keeps the
inner dimension of the full band, which is what keeps the bits of the
zero-padded field.  The colatitude nodes are Newton-polished
Gauss-Legendre nodes.

The syntheses also take a block of B coefficient rows, shape
``(B, n_modes)``, as SHTns transforms many fields per call.  The block is
a leading axis on the stack (broadcast) axes of both matmuls:
``(B, m, branch, l) @ (m, l, 3 * n_lat)`` and then the profile pairs of
each row, transposed, against the azimuth matrix.  Every row thus goes
through the same gemm calls, with the same shapes and strides, as a
single field, and its fields are bitwise those of its own call.  Folding
B into a matmul's row or column dimension instead would let BLAS pick
another kernel and change the last bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SphereGrid",
    "HarmonicField",
    "SobolevNorms",
    "get_grid",
    "coeff_index",
    "laplacian_unit",
    "gradient_norm_sq_integral",
    "sobolev_norms",
    "MAX_GRID_LMAX",
]

# the largest grid band limit L: the Legendre table alone holds 3 (L + 1)^3
# floats, 407 MB at 256, on the scale of the 6e7 entries ``basis_matrix``
# allows.  Every path to a grid meets this bound before it allocates.
MAX_GRID_LMAX = 256


def coeff_index(l: int, m: int) -> int:
    """Flat storage index of the ``(l, m)`` coefficient."""
    if not 0 <= abs(m) <= l:
        raise ValueError(f"order {m} invalid for degree {l}")
    return l * l + l + m


def _legendre_recurrence(n: int, x: np.ndarray):
    """Legendre polynomial ``P_n`` and its derivative at ``x`` by the
    three-term recurrence (``|x| < 1``)."""
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] for ``n >= 2`` nodes.

    ``leggauss`` nodes are off by a few ulps, which at 81 nodes leaves the
    orthonormal ``x * p_63`` integrated to 1.5e-14 instead of 0.  Two Newton steps on
    the three-term recurrence and the weights ``2 / ((1 - x^2) P_n'^2)``
    at the polished nodes remove that (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013).
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    for _ in range(2):
        p, dp = _legendre_recurrence(n, x)
        x = x - p / dp
    dp = _legendre_recurrence(n, x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _legendre_tables(lmax: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values and colatitude derivatives.

    Returns ``table[m, l, k, j]`` for ``k`` = 0, 1, 2: the function
    orthonormal on [-1, 1] (``int p_lm^2 dx = 1``) and its first and
    second theta-derivatives at node ``j``.  Entries with ``l < m`` are
    exactly 0.  The values extend to degree ``lmax + 1`` internally because
    the derivative recurrence couples neighbouring degrees.
    """
    nt = x.size
    s = np.sqrt(1.0 - x * x)
    lt = lmax + 1
    p = np.zeros((lt + 1, lt + 1, nt))          # p[m, l]
    p[0, 0] = 1.0 / np.sqrt(2.0)
    for m in range(1, lt + 1):
        p[m, m] = np.sqrt((2 * m + 1) / (2.0 * m)) * s * p[m - 1, m - 1]
    for m in range(0, lt):
        p[m, m + 1] = np.sqrt(2 * m + 3.0) * x * p[m, m]
        for l in range(m + 2, lt + 1):
            alpha = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            beta = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[m, l] = alpha * (x * p[m, l - 1] - beta * p[m, l - 2])

    table = np.zeros((lt, lt, 3, nt))
    table[:, :, 0] = p[:lt, :lt]
    ll = np.arange(lt)
    for m in range(0, lt):
        for l in range(m, lt):
            e_up = np.sqrt(((l + 1.0) ** 2 - m * m) / (4.0 * (l + 1.0) ** 2 - 1.0))
            term = l * e_up * p[m, l + 1]
            if l - 1 >= m:
                e_dn = np.sqrt((l * l - m * m) / (4.0 * l * l - 1.0))
                term = term - (l + 1) * e_dn * p[m, l - 1]
            table[m, l, 1] = term / s
        # second theta-derivative from the Legendre ODE:
        # p'' = -cot(theta) p' - (l(l+1) - m^2/sin^2) p
        klm = (ll * (ll + 1.0))[:, None] - m * m / (s * s)
        table[m, :, 2] = -(x / s) * table[m, :, 1] - klm * table[m, :, 0]
    return table


class _Buffers:
    """Float arrays handed out one after another from one slab.

    ``take(*shapes)`` lays one C-contiguous array per shape end to end,
    after every earlier take since the last ``reset``; a take the slab has
    no room for gets a new slab of its own size.  So no two arrays taken
    since the last reset share memory.  ``reset`` grows the slab to the
    total taken since the last one and hands it out again from its start.
    A new ``_Buffers`` makes new arrays for every take; a sweep keeps one
    per thread and resets it once per block.
    """

    def __init__(self):
        self._slab = np.empty(0)
        self._taken = 0

    def take(self, *shapes: tuple) -> list:
        """One array per shape, laid end to end after the last take."""
        sizes = [math.prod(shape) for shape in shapes]
        slab, start = self._slab, self._taken
        self._taken += sum(sizes)
        if self._taken > slab.size:
            slab, start = np.empty(sum(sizes)), 0
        arrays = []
        for shape, size in zip(shapes, sizes):
            arrays.append(slab[start:start + size].reshape(shape))
            start += size
        return arrays

    def reset(self):
        """Hand the slab out again from its start, grown to hold all that
        was taken since the last reset."""
        if self._slab.size < self._taken:
            self._slab = np.empty(self._taken)
        self._taken = 0


class SphereGrid:
    """Quadrature grid plus cached harmonic tables for one band limit.

    Parameters
    ----------
    lmax : int
        Band limit.  The grid has ``lmax + 1`` Gauss-Legendre colatitude
        nodes (poles excluded) and ``2 * lmax + 1`` uniform azimuths.
    """

    def __init__(self, lmax: int):
        if not 1 <= lmax <= MAX_GRID_LMAX:
            raise ValueError(
                f"grid lmax must be in [1, {MAX_GRID_LMAX}], got {lmax}")
        self.lmax = int(lmax)
        x, w = _gauss_legendre(lmax + 1)
        self.x = x
        self.theta = np.arccos(x)
        self.sin_theta = np.sqrt(1.0 - x * x)
        self.n_lat = lmax + 1
        self.n_lon = 2 * lmax + 1
        # sin and cos of the colatitude at every node, (n_lat, n_lon): a node
        # ufunc then reads two contiguous operands instead of broadcasting
        # a column
        self.sin_theta_nodes = np.repeat(self.sin_theta[:, None], self.n_lon, 1)
        self.cos_theta_nodes = np.repeat(x[:, None], self.n_lon, 1)
        self.lon = 2.0 * np.pi * np.arange(self.n_lon) / self.n_lon
        # quadrature weight per node; sums to 4*pi
        self.quad_weights = np.outer(w, np.full(self.n_lon, 2.0 * np.pi / self.n_lon))
        self.n_modes = (lmax + 1) ** 2

        m = np.arange(lmax + 1)
        # azimuth normalization of the real harmonics, folded into the table
        azf = np.full(lmax + 1, 1.0 / np.sqrt(np.pi))
        azf[0] = 1.0 / np.sqrt(2.0 * np.pi)
        table = _legendre_tables(lmax, x)
        table *= azf[:, None, None, None]
        # (m, l, value | d/dtheta | d2/dtheta2 blocks of n_lat nodes each)
        self._table = table.reshape(lmax + 1, lmax + 1, 3 * self.n_lat)
        # rows cos(m lon), sin(m lon) interleaved by order m
        ang = np.outer(m, self.lon)
        self._azimuth = np.stack([np.cos(ang), np.sin(ang)], axis=1).reshape(
            2 * (lmax + 1), self.n_lon)
        # flat index of the (m, cosine | sine branch, l) coefficient; the
        # pad slots (l < m, and the sine branch of m = 0) point one past the
        # end, at a zero appended to the coefficients
        ms, l = m[:, None, None], m[None, None, :]
        sign = np.array([1, -1])[None, :, None]
        pad = (l < ms) | ((ms == 0) & (sign < 0))
        self._gather = np.where(pad, self.n_modes, l * l + l + sign * ms)
        # d/dlon of c cos(m lon) + s sin(m lon) has branches (m s, -m c)
        self._dlon = m[:, None] * np.array([1.0, -1.0])
        self._basis_cache: dict[str, np.ndarray] = {}

    # -- transforms: one batched matmul over the orders m ----------------

    def _profiles(self, coeffs: np.ndarray, blocks: int) -> np.ndarray:
        """Colatitude profiles ``(..., m, branch, blocks * n_lat)`` of
        checked flat coefficients ``(..., (L + 1)**2)`` against the first
        ``blocks`` table blocks, for the orders m <= L alone.  Each order's
        gemm keeps its inner dimension lmax + 1, the degrees above L
        reading 0: a shorter one changed the last bits."""
        n = coeffs.shape[-1]
        ext = np.zeros(coeffs.shape[:-1] + (self.n_modes + 1,))
        ext[..., :n] = coeffs
        orders = math.isqrt(n)
        padded = ext[..., self._gather[:orders]]       # (..., m, branch, l)
        return padded @ self._table[:orders, :, : blocks * self.n_lat]

    def _azimuth_sum(self, pairs: np.ndarray, out=None) -> np.ndarray:
        """Grid fields from profile pairs ``(..., m, branch, k, n_lat)``:
        one matmul against the stacked cosines and sines, shape
        ``(..., k, n_lat, n_lon)``, into ``out`` of shape
        ``(..., k * n_lat, n_lon)`` when given.  Pairs of the orders
        m <= L alone are zero-filled above L first, so the matmul keeps
        its inner dimension 2 (lmax + 1)."""
        lead, orders, k = pairs.shape[:-4], pairs.shape[-4], pairs.shape[-2]
        if orders <= self.lmax:
            full = np.zeros(lead + (self.lmax + 1,) + pairs.shape[-3:])
            full[..., :orders, :, :, :] = pairs
            pairs = full
        flat = pairs.reshape(lead + (self._azimuth.shape[0], k * self.n_lat))
        return np.matmul(np.swapaxes(flat, -1, -2), self._azimuth,
                         out=out).reshape(lead + (k, self.n_lat, self.n_lon))

    def _scatter(self, proj: np.ndarray) -> np.ndarray:
        """Flat coefficients from ``(m, l, branch)`` projections."""
        out = np.zeros(self.n_modes + 1)
        out[self._gather] = proj.transpose(0, 2, 1)
        return out[: self.n_modes]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values of the field with the given flat coefficients, of
        any band limit L <= ``lmax``, one vector or a block of rows, as
        ``synthesize_jet`` takes them; shape ``(n_lat, n_lon)``, or
        ``(B, n_lat, n_lon)`` for a block."""
        prof = self._profiles(self._check_coeffs(coeffs), 1)
        return self._azimuth_sum(prof[..., None, :])[..., 0, :, :]

    def synthesize_jet(self, coeffs: np.ndarray, *, _buffers=None):
        """Values and first/second coordinate derivatives on the grid.

        ``coeffs`` is one flat coefficient vector of any band limit
        L <= ``lmax``, shape ``((L + 1)**2,)``, or a block of them, shape
        ``(B, (L + 1)**2)``; each row of a block gives the bits of its own
        call, and any L gives the bits of the same coefficients
        zero-padded to ``lmax``.  Only the orders m <= L run (the
        transform sizes of SHTns: Schaeffer, G^3 14, 2013); the profile
        pairs above them are zero-filled, so the azimuth gemm keeps its
        inner dimension 2 (lmax + 1), as the profile gemms keep theirs.
        The profile pairs and the fields are one take of ``_buffers``, a
        sweep's; by default each is a new array, so the fields share
        memory with nothing else and the pairs die with the call.

        Returns
        -------
        dict with keys ``f, ft, fl, ftt, ftl, fll`` (t = colatitude,
        l = longitude), each of shape ``(n_lat, n_lon)``, or
        ``(B, n_lat, n_lon)`` for a block.
        """
        nm, nl = self.lmax + 1, self.n_lat
        prof = self._profiles(self._check_coeffs(coeffs), 3)
        lead, orders = prof.shape[:-3], prof.shape[-3]
        prof = prof.reshape(lead + (orders, 2, 3, nl))
        shapes = (lead + (nm, 2, 6, nl), lead + (6 * nl, self.n_lon))
        if _buffers is None:
            pairs, fields = (np.empty(shape) for shape in shapes)
        else:
            pairs, fields = _buffers.take(*shapes)
        pairs[..., orders:, :, :, :] = 0.0
        own = pairs[..., :orders, :, :, :]
        own[..., :3, :] = prof
        np.multiply(self._dlon[:orders, :, None, None], prof[..., ::-1, :2, :],
                    out=own[..., 3:5, :])
        np.multiply(-(self._dlon[:orders, 0, None, None] ** 2),
                    prof[..., 0, :], out=own[..., 5, :])
        f, ft, ftt, fl, ftl, fll = np.moveaxis(
            self._azimuth_sum(pairs, fields), -3, 0)
        return {"f": f, "ft": ft, "fl": fl, "ftt": ftt, "ftl": ftl, "fll": fll}

    def synthesize_gradient(self, coeffs: np.ndarray):
        """The ``ft`` and ``fl`` fields of ``synthesize_jet`` alone, read
        from the value and first-derivative tables only; the same
        coefficients as ``synthesize_jet`` take."""
        nl = self.n_lat
        prof = self._profiles(self._check_coeffs(coeffs), 2)
        orders = prof.shape[-3]
        prof = prof.reshape(prof.shape[:-3] + (orders, 2, 2, nl))
        pairs = np.empty(prof.shape[:-2] + (2, nl))
        pairs[..., 0, :] = prof[..., 1, :]
        pairs[..., 1, :] = self._dlon[:orders, :, None] * prof[..., ::-1, 0, :]
        ft, fl = np.moveaxis(self._azimuth_sum(pairs), -3, 0)
        return ft, fl

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Flat coefficient vector of grid values (exact through lmax)."""
        if values.shape != (self.n_lat, self.n_lon):
            raise ValueError(
                f"values shape {values.shape} != {(self.n_lat, self.n_lon)}"
            )
        nm, nl = self.lmax + 1, self.n_lat
        wts = self.quad_weights[:, :1] * (values @ self._azimuth.T)
        proj = self._table[:, :, :nl] @ wts.reshape(nl, nm, 2).transpose(1, 0, 2)
        return self._scatter(proj)

    def gradient_transpose(self, flux_t: np.ndarray,
                           flux_l: np.ndarray) -> np.ndarray:
        """Exact transpose of ``synthesize_gradient`` (the ``ft`` and ``fl``
        outputs of ``synthesize_jet``): the coefficient vector ``g`` with
        ``g @ c == sum(flux_t * ft + flux_l * fl)`` for every ``c``, where
        ``ft, fl`` are the gradient of ``c``.  No quadrature weights are
        applied; fold them into the fluxes."""
        nm, nl = self.lmax + 1, self.n_lat
        fluxes = (np.concatenate([flux_t, flux_l]) @ self._azimuth.T).reshape(2, nl, nm, 2)
        # value block tested against the transposed d/dlon, then d/dtheta
        weights = np.concatenate([-self._dlon * fluxes[1, :, :, ::-1], fluxes[0]])
        proj = self._table[:, :, : 2 * nl] @ weights.transpose(1, 0, 2)
        return self._scatter(proj)

    # -- dense mode matrices (small lmax only) --------------------------

    def basis_matrix(self, kind: str = "value") -> np.ndarray:
        """Dense (n_nodes, n_modes) synthesis matrix.

        kind is one of ``value``, ``dtheta``, ``dlon``.  Guarded against
        accidental huge allocations.  The package computes with the
        transforms; this is the dense reference they are tested against.
        """
        if kind not in ("value", "dtheta", "dlon"):
            raise ValueError(f"unknown basis matrix kind {kind!r}")
        n_nodes = self.n_lat * self.n_lon
        if n_nodes * self.n_modes > 6.0e7:
            raise ValueError(
                f"dense basis for lmax={self.lmax} would need "
                f"{n_nodes * self.n_modes:.2e} entries; keep lmax <= 40"
            )
        cached = self._basis_cache.get(kind)
        if cached is not None:
            return cached
        mat = np.zeros((n_nodes, self.n_modes))
        nl = self.n_lat
        block = nl if kind == "dtheta" else 0
        for m in range(0, self.lmax + 1):
            colat = self._table[m, m:, block: block + nl]
            az_c, az_s = self._azimuth[2 * m], self._azimuth[2 * m + 1]
            if kind == "dlon":
                az_c, az_s = -m * az_s, m * az_c
            for branch, az in enumerate((az_c, az_s)):
                cols = self._gather[m, branch, m:]
                if cols[0] < self.n_modes:
                    values = colat[:, :, None] * az[None, None, :]
                    mat[:, cols] = values.reshape(cols.size, -1).T
        self._basis_cache[kind] = mat
        return mat

    def _check_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Float coefficients of a vector or a block of rows, of any band
        limit L up to the grid's: (L + 1)**2 of them per row."""
        coeffs = np.asarray(coeffs, dtype=float)
        n = coeffs.shape[-1] if coeffs.ndim else 0
        if (coeffs.ndim not in (1, 2)
                or not (0 < n <= self.n_modes and math.isqrt(n) ** 2 == n)):
            raise ValueError(
                f"coefficients have shape {coeffs.shape}, expected (n,) or a "
                f"block (B, n), n = (L + 1)**2 for a band L <= {self.lmax}")
        return coeffs

    def __repr__(self):  # pragma: no cover
        return f"SphereGrid(lmax={self.lmax})"


_GRID_CACHE: dict[int, SphereGrid] = {}


def get_grid(lmax: int) -> SphereGrid:
    """Shared grid instance for a band limit (built once, reused)."""
    grid = _GRID_CACHE.get(lmax)
    if grid is None:
        grid = SphereGrid(lmax)
        _GRID_CACHE[lmax] = grid
    return grid


def _geometry_lmax(field_lmax: int) -> int:
    """Band limit of the grid that samples nonlinear expressions in a field
    of band limit ``field_lmax``: twice it, so products do not alias, and
    at least 16, so sup estimates see enough nodes near the poles."""
    return max(2 * field_lmax, 16)


@dataclass
class SobolevNorms:
    """Norm estimates of a field read on a round slice of radius ``u``."""

    l2: float
    w12: float
    w22: float
    c0: float
    c1: float
    c2: float

    @property
    def c2_bound(self) -> float:
        """Scalar C^2 size used for rescaling: max of the grid maxima."""
        bound = np.maximum(np.maximum(self.c0, self.c1), self.c2)
        return float(bound) if np.ndim(bound) == 0 else bound


class HarmonicField:
    """A real band-limited field stored by harmonic coefficients.

    It carries no grid: each transform takes the grid it runs on.  A
    block of B fields of one band limit stores its coefficients as rows;
    ``padded`` and ``degree_energies`` then work row by row.

    Parameters
    ----------
    coeffs : array, shape ((lmax+1)**2,) or (B, (lmax+1)**2)
        Flat real coefficients, index ``l**2 + l + m``.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim not in (1, 2):
            raise ValueError("coefficients must be a vector or a block of rows")
        n = coeffs.shape[-1]
        if n == 0:
            raise ValueError("field lmax must be an integer >= 0, got no "
                             "coefficients")
        lmax = int(round(np.sqrt(n))) - 1
        if (lmax + 1) ** 2 != n:
            raise ValueError(f"coefficient length {n} is not a perfect square")
        self.lmax = lmax
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, lmax: int) -> "HarmonicField":
        return cls(np.zeros((lmax + 1) ** 2))

    @classmethod
    def single(cls, l: int, m: int, value: float = 1.0) -> "HarmonicField":
        c = np.zeros((l + 1) ** 2)
        c[coeff_index(l, m)] = value
        return cls(c)

    # -- algebra --------------------------------------------------------

    def padded(self, lmax: int) -> np.ndarray:
        """Coefficients zero-padded (or validated) to a larger band limit."""
        n = (lmax + 1) ** 2
        if lmax < self.lmax:
            if np.any(self.coeffs[..., n:] != 0.0):
                raise ValueError("cannot truncate nonzero coefficients")
            return self.coeffs[..., :n].copy()
        out = np.zeros(self.coeffs.shape[:-1] + (n,))
        out[..., : self.coeffs.shape[-1]] = self.coeffs
        return out

    def degree_energies(self) -> np.ndarray:
        """Sum of squared coefficients per degree (unit-sphere L^2)."""
        return np.add.reduceat(self.coeffs**2, np.arange(self.lmax + 1) ** 2,
                               axis=-1)

    def scaled(self, factor: float) -> "HarmonicField":
        return HarmonicField(self.coeffs * float(factor))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        entries = []
        for l in range(self.lmax + 1):
            for m in range(-l, l + 1):
                v = self.coeffs[coeff_index(l, m)]
                if v != 0.0:
                    entries.append([l, m, float(v)])
        return json.dumps({"lmax": self.lmax, "coeffs": entries})

    @classmethod
    def from_json(cls, text: str) -> "HarmonicField":
        """Read a ``to_json`` document, {"lmax": L, "coeffs": [[l, m, v],
        ...]}; a malformed one raises ``ValueError`` naming what is bad."""
        data = json.loads(text)
        if not (isinstance(data, dict) and "lmax" in data
                and isinstance(data.get("coeffs"), list)):
            raise ValueError('field JSON must be an object with "lmax" and '
                             'a "coeffs" list')
        lmax = data["lmax"]
        if type(lmax) is not int or lmax < 0:
            raise ValueError(f"field lmax must be an integer >= 0, "
                             f"got {lmax!r}")
        if _geometry_lmax(lmax) > MAX_GRID_LMAX:
            raise ValueError(
                f"field lmax {lmax} needs a geometry grid of band limit "
                f"{_geometry_lmax(lmax)}, above {MAX_GRID_LMAX}")
        c = np.zeros((lmax + 1) ** 2)
        for k, entry in enumerate(data["coeffs"]):
            try:
                l, m, v = entry
                ok = (type(l) is int and type(m) is int and abs(m) <= l <= lmax
                      and type(v) in (int, float) and math.isfinite(v))
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ValueError(
                    f"coefficient entry {k} {entry!r} is not [l, m, value] "
                    f"with |m| <= l <= lmax {lmax} and a finite value")
            c[coeff_index(l, m)] = float(v)
        return cls(c)

    def __repr__(self):  # pragma: no cover
        nz = int(np.count_nonzero(self.coeffs))
        return f"HarmonicField(lmax={self.lmax}, nonzero={nz})"


# -- module-level operations ------------------------------------------------


def laplacian_unit(field: HarmonicField) -> HarmonicField:
    """Laplace-Beltrami on the unit sphere: coefficients scaled by -l(l+1).

    On a round slice of radius u the Laplacian is this divided by u^2.
    """
    ll = np.arange(field.lmax + 1)
    return HarmonicField(field.coeffs * np.repeat(-ll * (ll + 1.0), 2 * ll + 1))


def gradient_norm_sq_integral(field: HarmonicField) -> float:
    """integral |grad f|^2 over the unit sphere: sum l(l+1) c^2.

    Scale-invariant: the same number is the slice integral on radius u.
    """
    e = field.degree_energies()
    ll = np.arange(field.lmax + 1)
    return float(np.sum(ll * (ll + 1.0) * e))


def sobolev_norms(field: HarmonicField, u: float = 1.0) -> SobolevNorms:
    """L^2 / W^{1,2} / W^{2,2} and C^0..C^2 estimates on a radius-u slice.

    The Sobolev squares are ``int phi^2 dsig``, ``+ int |grad phi|^2 dsig``
    and ``+ int (lap phi)^2 dsig`` with slice scalings; the C^k numbers are
    grid maxima of the field, its slice gradient norm and its slice
    covariant Hessian norm.
    """
    # oversampled grid: the C^k numbers are sup estimates, and the
    # field's own band-limit grid is too coarse near the poles
    grid = get_grid(_geometry_lmax(field.lmax))
    jet = grid.synthesize_jet(field.coeffs)
    return _sobolev_norms(field, u, grid, jet)


def _sobolev_norms(field: HarmonicField, u: float, grid: SphereGrid,
                   jet: dict) -> SobolevNorms:
    """``sobolev_norms`` with the field's jet on ``grid`` already made.

    A block of fields with its block jet gives one array entry per row,
    each equal to the row's own call; a single field gives floats."""
    if u <= 0.0:
        raise ValueError("slice radius u must be positive")
    e = field.degree_energies()
    ll = np.arange(field.lmax + 1)
    k = ll * (ll + 1.0)
    l2_sq = u * u * np.sum(e, axis=-1)
    w12_sq = l2_sq + np.sum(k * e, axis=-1)
    w22_sq = w12_sq + np.sum(k * k * e, axis=-1) / (u * u)

    nodes = (-2, -1)
    st, ct = grid.sin_theta_nodes, grid.cos_theta_nodes
    grad_sq = jet["ft"] ** 2 + (jet["fl"] / st) ** 2
    # covariant Hessian of the round metric, orthonormal-frame components
    h_tt = jet["ftt"]
    h_tl = (jet["ftl"] - (ct / st) * jet["fl"]) / st
    h_ll = (jet["fll"] + (st * ct) * jet["ft"]) / st**2
    hess_sq = h_tt**2 + 2.0 * h_tl**2 + h_ll**2
    norms = dict(
        l2=np.sqrt(l2_sq),
        w12=np.sqrt(w12_sq),
        w22=np.sqrt(w22_sq),
        c0=np.max(np.abs(jet["f"]), axis=nodes),
        c1=np.sqrt(np.max(grad_sq, axis=nodes)) / u,
        c2=np.sqrt(np.max(hess_sq, axis=nodes)) / (u * u),
    )
    if e.ndim == 1:
        norms = {name: float(v) for name, v in norms.items()}
    return SobolevNorms(**norms)
