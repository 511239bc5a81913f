"""Independent grid oracles: dense level-function evaluation, a brute-force
pseudospectral abscissa, and contour extraction for plotting.

Everything here avoids the predictor/corrector machinery on purpose: the
only ingredients are model's weight, its batched sigma_min(F) sweep
(`smallest_singular`) and its bounds on F's delay terms (`delay_bound`),
so results can cross-check the fast path.

|sigma_min(F(lam)) - sigma_min(F(c))| <= ||F(lam) - F(c)||_2 <= L |lam - c|
with L the smaller of 1 + sum_i tau_i ||A_i||_2 exp(-tau_i min(Re lam, Re c))
and ||F'(z0)||_2 + r sum_i tau_i^2 ||A_i||_2 exp(-tau_i re_min), z0 and r the
region's center and half-diagonal.  One kernel, _place, uses this to put
most grid nodes on their side of the level set unevaluated; its dense first
lattice keeps its cost nearly the same from plant to plant.  contours
evaluates the corners of the cells the boundary crosses; grid_psa drops the
columns left of a node known inside and evaluates the inside nodes of its
answer column.  grid_level evaluates every node.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import (char_matrix, check_pair, delay_bound, eval_weight,
                    smallest_singular)

_STRIDES = (4, 2)  # lattices _place evaluates before the undecided nodes
_MARGIN = 1e-8  # rounding slack of the Lipschitz test, relative to ||F||


class RegionTooSmallError(numerics.DelayPsaError):
    """The level set reaches the right edge of the search region."""


class EmptyPseudospectrumError(numerics.DelayPsaError):
    """No grid node reached the level; region or resolution is off."""


@dataclass(frozen=True)
class GridRegion:
    """Rectangle [re_min, re_max] x [im_min, im_max] sampled n_re x n_im."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        try:  # math.isfinite and operator.index raise TypeError on other types
            if not all(map(math.isfinite, bounds)):
                raise ValueError(f"region bounds must be finite, got {bounds!r}")
            if not (self.re_min < self.re_max and self.im_min < self.im_max):
                raise ValueError("empty region: need re_min < re_max and im_min < im_max")
            if min(map(operator.index, (self.n_re, self.n_im))) < 2:
                raise ValueError("need at least 2 samples per axis")
        except TypeError:
            raise ValueError("sample counts must be integers and bounds numbers, got "
                             f"{bounds!r} and {self.n_re!r}, {self.n_im!r}") from None

    def re_axis(self):
        return np.linspace(self.re_min, self.re_max, self.n_re)

    def im_axis(self):
        return np.linspace(self.im_min, self.im_max, self.n_im)


def _weight_row(system, pert, re):
    """w(sigma) at every sigma of re."""
    return np.array([eval_weight(pert, system, s) for s in re])


def grid_level(system, pert, region):
    """Level function f on the grid, shape (n_im, n_re); +inf at roots."""
    frequency_bound(system, pert, region.re_min)
    re, im = region.re_axis(), region.im_axis()
    smin = smallest_singular(system, re[None, :] + 1j * im[:, None])
    with np.errstate(divide="ignore"):
        return _weight_row(system, pert, re)[None, :] / smin


@dataclass(frozen=True)
class GridPsaResult:
    """Brute-force abscissa: value, achieved resolution, maximizer location."""

    value: float
    resolution: float
    location: complex


def grid_psa(system, pert, region, refine_iters=3):
    """Rightmost grid node inside the pseudospectrum, with local refinement.

    Finds max Re lam over nodes with f >= 1/eps, then re-grids a one-cell
    window around the maximizer at 10x resolution, refine_iters (an integer
    >= 0, else ValueError) times.  The right edge of the region must stay
    outside the level set, or RegionTooSmallError is raised: the region
    cannot contain the rightmost point.  Reported resolution is the final
    cell width along Re.  Nodes are placed by _place, so few are evaluated.
    """
    if not isinstance(refine_iters, numbers.Integral) or refine_iters < 0:
        raise ValueError(f"refine_iters must be an integer >= 0, got {refine_iters!r}")
    frequency_bound(system, pert, region.re_min)
    j, best_re, best_im = _rightmost_inside(system, pert, region)
    if j == region.n_re - 1:
        raise RegionTooSmallError("level set reaches the right edge; extend re_max")
    cell_re = (region.re_max - region.re_min) / (region.n_re - 1)
    cell_im = (region.im_max - region.im_min) / (region.n_im - 1)
    for _ in range(refine_iters):
        sub = GridRegion(best_re - cell_re, best_re + cell_re,
                         best_im - cell_im, best_im + cell_im, 21, 21)
        # the previous maximizer is the center node, so sub has an inside node
        _, best_re, best_im = _rightmost_inside(system, pert, sub)
        cell_re, cell_im = cell_re / 10.0, cell_im / 10.0
    return GridPsaResult(float(best_re), float(cell_re), complex(best_re, best_im))


def _rightmost_inside(system, pert, region):
    """(j, Re, Im): the rightmost column j with a node at f >= 1/eps, and
    its largest-f node there.

    Only the answer column's inside nodes need their f for the argmax;
    those _place left unevaluated are evaluated here.
    """
    re, im = region.re_axis(), region.im_axis()
    smin, inside, w = _place(system, pert, re, im, rightmost=True)
    cols = np.nonzero(inside.any(axis=0))[0]
    if not cols.size:
        raise EmptyPseudospectrumError("no grid node reaches the level; "
                                       "enlarge the region or refine the grid")
    j = cols[-1]
    todo = inside[:, j] & np.isnan(smin[:, j])
    smin[todo, j] = smallest_singular(system, re[j] + 1j * im[todo])
    with np.errstate(divide="ignore"):
        i = int(np.argmax(np.where(inside[:, j], w[j] / smin[:, j], -np.inf)))
    return j, re[j], im[i]


def frequency_bound(system, pert, sigma_min):
    """Upper bound on |lam| over pseudospectrum points with Re lam >= sigma_min.

    Any lam there satisfies |lam| <= sum_i ||A_i||_2 exp(-sigma_min tau_i)
    + eps * w(sigma_min); useful for sizing oracle regions.  Raises
    ValueError when sigma_min is so far left that the bound overflows.
    """
    check_pair(system, pert)
    total = delay_bound(system, sigma_min, 0)
    if math.isfinite(total):  # then no exp(-sigma_min*tau) in w overflows
        total += pert.epsilon * eval_weight(pert, system, sigma_min)
    if not math.isfinite(total):
        raise ValueError(f"Re lam = {sigma_min!r} is too far left: "
                         "exp(-lam*tau) overflows")
    return float(total)


@dataclass(frozen=True)
class ContourSet:
    """Polylines of the boundary level set f = level (level = 1/eps)."""

    level: float
    polylines: tuple  # complex ndarrays, ordered for plotting


def contours(system, pert, region):
    """Marching-squares extraction of the pseudospectrum boundary.

    The level set f = 1/eps is extracted as the epsilon level set of the
    reciprocal field sigma_min(F)/w, which is finite at characteristic
    roots (f is not), so linear edge interpolation stays well conditioned.
    Saddle cells are disambiguated with the cell-center average.  Chains
    are stitched on shared grid edges; closed loops repeat their first
    vertex at the end.  sigma_min(F) is evaluated only where a Lipschitz
    bound cannot place a node on its side of the level set, and at the
    corners of the cells the boundary crosses (see _boundary_field), so
    the cost grows with the length of the boundary.
    """
    frequency_bound(system, pert, region.re_min)
    re, im = region.re_axis(), region.im_axis()
    g, inside, mixed = _boundary_field(system, pert, re, im)
    level = pert.epsilon

    def interp(i0, j0, i1, j1):
        ga, gb = g[i0, j0], g[i1, j1]
        t = 0.5 if gb == ga else (level - ga) / (gb - ga)
        t = min(max(t, 0.0), 1.0)
        x = re[j0] + t * (re[j1] - re[j0])
        y = im[i0] + t * (im[i1] - im[i0])
        return complex(x, y)

    # edge keys: ("h", i, j) joins (i, j)-(i, j+1); ("v", i, j) joins (i, j)-(i+1, j)
    points = {}
    segments = []

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key not in points:
            points[key] = interp(i, j, i + (kind == "v"), j + (kind == "h"))
        return key

    # row-major, the order in which segments reach _stitch
    for i, j in np.argwhere(mixed).tolist():
        # bool() casts matter: numpy bools add as logical or
        b00 = bool(inside[i, j])
        b10 = bool(inside[i, j + 1])
        b11 = bool(inside[i + 1, j + 1])
        b01 = bool(inside[i + 1, j])
        count = int(b00) + int(b10) + int(b11) + int(b01)
        bottom = ("h", i, j)
        top = ("h", i + 1, j)
        left = ("v", i, j)
        right = ("v", i, j + 1)
        # the two edges at each corner, counterclockwise from (i, j)
        around = [(left, bottom), (bottom, right), (right, top), (top, left)]
        if count in (1, 3):  # cut off the corner that differs
            pairs = [around[[b00, b10, b11, b01].index(count == 1)]]
        elif b00 == b10:  # horizontal split
            pairs = [(left, right)]
        elif b00 == b01:  # vertical split
            pairs = [(bottom, top)]
        else:  # saddle; cut off the corners on the other side of the center
            center_inside = 0.25 * (
                g[i, j] + g[i, j + 1] + g[i + 1, j] + g[i + 1, j + 1]
            ) < level
            pairs = around[int(b00 == center_inside)::2]
        for a, b in pairs:
            segments.append((edge_point(*a), edge_point(*b)))

    return ContourSet(1.0 / pert.epsilon, tuple(_stitch(segments, points)))


def _boundary_field(system, pert, re, im):
    """The nodes' sides of the level set and the values contours reads.

    Returns (g, inside, mixed) over the grid re + j*im: g is sigma_min(F)/w
    at evaluated nodes and nan elsewhere, inside is g < eps at every node,
    and mixed marks the cells with corners on both sides.  _place decides
    every node; the unevaluated corners of mixed cells are evaluated here.
    """
    smin, inside, w = _place(system, pert, re, im)
    count = (inside[:-1, :-1].astype(np.int8) + inside[:-1, 1:]
             + inside[1:, :-1] + inside[1:, 1:])
    mixed = (count > 0) & (count < 4)
    corners = np.zeros(inside.shape, dtype=bool)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        corners[di:di + mixed.shape[0], dj:dj + mixed.shape[1]] |= mixed
    rows, cols = np.nonzero(corners & np.isnan(smin))
    smin[rows, cols] = smallest_singular(system, re[cols] + 1j * im[rows])
    return smin / w[None, :], inside, mixed


def _place(system, pert, re, im, rightmost=False):
    """Sides of the level set at the nodes re + j*im, evaluating few of them.

    Returns (smin, inside, w): smin is sigma_min(F) at evaluated nodes and
    nan elsewhere, inside marks the nodes known inside, w is w(re).  By the
    module docstring's bound, a node lam at distance d from an evaluated
    node c with |sigma_min(F(c)) - eps*w(Re lam)| > L*d + margin lies on the
    side of c.  Each lattice of _STRIDES is evaluated where undecided and
    places the nodes its nearest lattice node decides; then the undecided
    nodes are evaluated, none twice.  An evaluated node is inside at
    sigma_min/w < eps, or with rightmost at f >= 1/eps (grid_psa's test);
    then each pass also stops evaluating the columns left of the rightmost
    one with a node known inside, whose nodes may stay undecided.
    """
    shape = (len(im), len(re))
    w = _weight_row(system, pert, re)
    z0 = complex(re[0] + re[-1], im[0] + im[-1]) / 2
    with np.errstate(over="ignore", invalid="ignore"):  # inf where it overflows
        fp = char_matrix(system, z0, 1)
        cap = abs(z0 - complex(re[0], im[0])) * delay_bound(system, re[0], 2)
    cap += np.linalg.norm(fp, 2) if np.isfinite(fp).all() else np.inf
    slack = _MARGIN * (1.0 + sum(system.norms) + math.hypot(
        max(abs(re[0]), abs(re[-1])), max(abs(im[0]), abs(im[-1]))))
    smin = np.full(shape, np.nan)  # nan until evaluated
    known = np.zeros(shape, dtype=bool)  # side decided
    inside = np.zeros(shape, dtype=bool)
    live = np.ones(shape[1], dtype=bool)  # columns still evaluated

    def evaluate(mask):
        rows, cols = np.nonzero(mask & live[None, :])
        s = smin[rows, cols] = smallest_singular(system, re[cols] + 1j * im[rows])
        with np.errstate(divide="ignore"):
            inside[rows, cols] = (w[cols] / s >= 1.0 / pert.epsilon if rightmost
                                  else s / w[cols] < pert.epsilon)
        known[rows, cols] = True

    for stride in _STRIDES:
        near_r = _nearest_on_lattice(shape[0], stride)
        near_c = _nearest_on_lattice(shape[1], stride)
        on_r = near_r == np.arange(shape[0])
        on_c = near_c == np.arange(shape[1])
        evaluate(on_r[:, None] & on_c[None, :] & ~known)
        gap = smin[near_r[:, None], near_c[None, :]] - pert.epsilon * w[None, :]
        dist = np.hypot((im - im[near_r])[:, None], (re - re[near_c])[None, :])
        lip = np.minimum(cap, 1.0 + delay_bound(system, np.minimum(re, re[near_c]), 1))
        with np.errstate(over="ignore", invalid="ignore"):
            # false where c is unevaluated (nan) and where L overflows
            placed = ~known & (np.abs(gap) > lip[None, :] * dist + slack)
        inside[placed] = gap[placed] < 0.0
        known |= placed
        if rightmost and inside.any():
            live[: np.nonzero(inside.any(axis=0))[0][-1]] = False
    evaluate(~known)
    return smin, inside, w


def _nearest_on_lattice(size, stride):
    """For each of 0..size-1, the nearest of 0, stride, 2*stride, ..., size-1."""
    idx = np.arange(size)
    lo = idx - idx % stride
    hi = np.minimum(lo + stride, size - 1)
    return np.where(idx - lo <= hi - idx, lo, hi)


def _stitch(segments, points):
    """Join segments sharing grid edges into polylines; loops repeat their head."""
    adj = {}
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append(idx)
        adj.setdefault(b, []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        # extend forward then backward
        for endpos in (True, False):
            while True:
                tip = chain[-1] if endpos else chain[0]
                nxt = next((idx for idx in adj[tip] if not used[idx]), None)
                if nxt is None:
                    break
                used[nxt] = True
                a, b = segments[nxt]
                other = b if a == tip else a
                if endpos:
                    chain.append(other)
                else:
                    chain.insert(0, other)
        # closed loops revisit their head edge, so chain[0] == chain[-1] there
        polylines.append(np.array([points[k] for k in chain]))
    polylines.sort(key=lambda p: (p[0].real, p[0].imag, len(p)))
    return polylines
