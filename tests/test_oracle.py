import math
import tracemalloc

import numpy as np
import pytest

from delaypsa import (
    GridRegion,
    PerturbationSpec,
    TimeDelaySystem,
    compute_psa,
    contours,
    grid_level,
    grid_psa,
)
from delaypsa import numerics, oracle
from delaypsa.discretization import assemble, spectral_abscissa_approx
from delaypsa.model import _CHUNK, char_matrix, check_pair, smallest_singular
from delaypsa.oracle import (
    ContourSet,
    EmptyPseudospectrumError,
    GridPsaResult,
    RegionTooSmallError,
    _boundary_field,
    _stitch,
    _weight_row,
    frequency_bound,
)

from conftest import (
    _criterion10_plant,
    _stiff_plant,
    _wide_plant,
    delay_free,
    level_sup_profile,
    smallest_singular_reference,
)


def disk_pert(eps):
    return PerturbationSpec((1.0,), eps)


# --- region ------------------------------------------------------------------


def test_region_validation():
    with pytest.raises(ValueError, match="empty region"):
        GridRegion(1.0, 0.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError, match="samples"):
        GridRegion(0.0, 1.0, 0.0, 1.0, 1, 5)


@pytest.mark.parametrize("n_re, n_im", [(2.5, 3), (21.0, 21), (21, 21.0),
                                        ("21", 21), (None, 21), (np.float64(5), 5)])
def test_region_rejects_non_integer_counts(n_re, n_im):
    with pytest.raises(ValueError, match="sample counts must be integers"):
        GridRegion(-2.0, 1.0, -1.0, 1.0, n_re, n_im)


@pytest.mark.parametrize("bounds", [(-2.0, math.inf, -1.0, 1.0),
                                    (-math.inf, 1.0, -1.0, 1.0),
                                    (-2.0, 1.0, -1.0, math.nan),
                                    (math.nan, math.nan, -1.0, 1.0)])
def test_region_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="must be finite"):
        GridRegion(*bounds, 21, 21)


@pytest.mark.parametrize("bounds", [("a", 1, 0, 1), (None, 1.0, 0.0, 1.0),
                                    (-2.0, 1.0, 1j, 2.0), (0, 1, 0, [1])])
def test_region_rejects_non_number_bounds(bounds):
    with pytest.raises(ValueError, match="bounds numbers"):
        GridRegion(*bounds, 5, 5)


def test_region_accepts_integer_like_counts():
    region = GridRegion(-2, 1, -1, 1, np.int64(5), 5)
    assert len(region.re_axis()) == 5 and len(region.im_axis()) == 5


def test_region_axes_hit_endpoints():
    reg = GridRegion(-1.0, 1.0, 0.0, 2.0, 11, 21)
    assert reg.re_axis()[0] == -1.0 and reg.re_axis()[-1] == 1.0
    assert len(reg.im_axis()) == 21


# --- gridded level function --------------------------------------------------


def test_grid_level_reciprocal_distance():
    # scalar a=0, unit weight: f(lam) = 1/|lam|
    reg = GridRegion(0.1, 1.0, 0.2, 1.0, 12, 9)
    f = grid_level(delay_free(0.0), disk_pert(0.25), reg)
    lam = reg.re_axis()[None, :] + 1j * reg.im_axis()[:, None]
    assert np.max(np.abs(f - 1.0 / np.abs(lam))) < 1e-12


def test_grid_level_conjugate_symmetry(one_delay, one_delay_pert):
    reg = GridRegion(-0.6, 0.2, -1.5, 1.5, 21, 31)
    f = grid_level(one_delay, one_delay_pert, reg)
    assert np.max(np.abs(f - f[::-1, :])) < 1e-10  # im axis symmetric about 0


def test_grid_level_hand_value_at_origin(one_delay, one_delay_pert):
    # f(0) = w(0)/sigma_min(F(0)) = 2/1
    reg = GridRegion(-0.5, 0.5, -0.5, 0.5, 3, 3)
    f = grid_level(one_delay, one_delay_pert, reg)
    assert abs(f[1, 1] - 2.0) < 1e-12


def test_grid_level_infinite_at_root():
    reg = GridRegion(-1.0, 3.0, -1.0, 1.0, 5, 3)
    f = grid_level(delay_free(2.0), disk_pert(0.1), reg)
    assert math.isinf(f[1, 3])  # lam = 2 is a characteristic root


# --- brute-force abscissa ----------------------------------------------------


def test_grid_psa_disk():
    reg = GridRegion(-0.5, 0.5, -0.5, 0.5, 101, 101)
    res = grid_psa(delay_free(0.0), disk_pert(0.25), reg, refine_iters=0)
    assert abs(res.value - 0.25) < 0.01  # one cell
    assert abs(res.location.imag) < 0.02


def test_grid_psa_refinement_tightens():
    reg = GridRegion(-0.5, 0.5, -0.5, 0.5, 101, 101)
    res = grid_psa(delay_free(0.0), disk_pert(0.25), reg, refine_iters=3)
    assert res.resolution == pytest.approx(0.01 / 1000.0)
    assert abs(res.value - 0.25) < 2.0 * res.resolution
    assert grid_psa(delay_free(0.0), disk_pert(0.25), reg,
                    refine_iters=np.int64(3)) == res


@pytest.mark.parametrize("refine", [-2, -1, 2.5, "3", None])
def test_grid_psa_rejects_bad_refine_iters(monkeypatch, refine):
    # -2 once returned the unrefined answer and 2.5 raised TypeError; both
    # are bad input, rejected before any sigma_min is evaluated
    calls = []
    monkeypatch.setattr(oracle, "smallest_singular", lambda *a: calls.append(a))
    reg = GridRegion(-0.5, 0.5, -0.5, 0.5, 101, 101)
    with pytest.raises(ValueError, match="refine_iters"):
        grid_psa(delay_free(0.0), disk_pert(0.25), reg, refine_iters=refine)
    assert calls == []


def test_grid_psa_normal_matrix_union_of_disks():
    # normal matrices: pseudospectrum is the union of eps-disks around
    # the eigenvalues, so the rightmost point is -1 + 0.3
    sys2 = TimeDelaySystem((0.0,), (np.diag([-1.0, -2.0]),))
    reg = GridRegion(-1.6, 0.0, -0.6, 0.6, 161, 121)
    res = grid_psa(sys2, disk_pert(0.3), reg, refine_iters=2)
    assert abs(res.value - (-0.7)) < 1e-3


def test_grid_psa_right_edge_guard():
    reg = GridRegion(-0.5, 0.2, -0.5, 0.5, 51, 51)
    with pytest.raises(RegionTooSmallError):
        grid_psa(delay_free(0.0), disk_pert(0.25), reg)


def test_grid_psa_edge_rule_is_the_main_regions_only(monkeypatch):
    # eigenvalues 0.45 +- 0.5j of a normal matrix: the level set is two
    # disks of radius eps.  The main region's last column (Re = 1) misses
    # them, but its nodes are 1 apart along Im; the first refinement
    # window's last column is the same line with nodes 0.1 apart, and one
    # at Im = +-0.5 is inside.  That is not an edge of the region.
    system = TimeDelaySystem((0.0,), (np.array([[0.45, 0.5], [-0.5, 0.45]]),))
    columns = []
    real = oracle._rightmost_inside

    def recorded(system, pert, region):
        j, re, im = real(system, pert, region)
        columns.append((j, region.n_re))
        return j, re, im

    monkeypatch.setattr(oracle, "_rightmost_inside", recorded)
    res = grid_psa(system, disk_pert(0.72), GridRegion(-1.0, 1.0, 0.0, 1.0, 3, 2))
    # each window's answer is its last column, one cell right of the last
    # answer; the rightmost point is 0.45 + 0.72
    assert columns == [(1, 3)] + [(20, 21)] * 3
    assert res.value == pytest.approx(1.11) and res.value < 1.17


def test_grid_psa_empty_region():
    reg = GridRegion(1.0, 1.5, 0.0, 0.4, 21, 21)
    with pytest.raises(EmptyPseudospectrumError):
        grid_psa(delay_free(0.0), disk_pert(0.25), reg)


def test_grid_psa_matches_corrector(one_delay, one_delay_pert):
    res = compute_psa(one_delay, one_delay_pert, N=15, tol=1e-4)
    reg = GridRegion(-0.4, 0.1, 0.9, 1.7, 126, 201)
    grid = grid_psa(one_delay, one_delay_pert, reg, refine_iters=3)
    assert abs(grid.value - res.alpha_eps) <= 2e-3
    assert abs(grid.location.imag - res.omega_eps) < 1e-2


# --- grid_psa against the full grid -------------------------------------------


def full_grid_psa(system, pert, region, refine_iters=3):
    """grid_psa evaluated on the whole grid through grid_level, as before the
    Lipschitz placement; grid_psa must reproduce it exactly."""
    level = 1.0 / pert.epsilon
    f = grid_level(system, pert, region)
    if (f[:, -1] >= level).any():
        raise RegionTooSmallError(
            "level set reaches the right edge; extend re_max"
        )
    mask = f >= level
    if not mask.any():
        raise EmptyPseudospectrumError(
            "no grid node reaches the level; enlarge the region or refine the grid"
        )
    re = region.re_axis()
    im = region.im_axis()
    cols = np.where(mask.any(axis=0))[0]
    j = cols.max()
    i = int(np.argmax(np.where(mask[:, j], f[:, j], -np.inf)))
    best_re, best_im = re[j], im[i]
    cell_re = (region.re_max - region.re_min) / (region.n_re - 1)
    cell_im = (region.im_max - region.im_min) / (region.n_im - 1)
    for _ in range(refine_iters):
        sub = GridRegion(
            best_re - cell_re, best_re + cell_re,
            best_im - cell_im, best_im + cell_im,
            21, 21,
        )
        f = grid_level(system, pert, sub)
        mask = f >= level
        re = sub.re_axis()
        im = sub.im_axis()
        cols = np.where(mask.any(axis=0))[0]
        j = cols.max()
        i = int(np.argmax(np.where(mask[:, j], f[:, j], -np.inf)))
        best_re, best_im = re[j], im[i]
        cell_re /= 10.0
        cell_im /= 10.0
    return GridPsaResult(float(best_re), float(cell_re),
                         complex(best_re, best_im))


@pytest.fixture(scope="module")
def large_case():
    return _rightmost_case(7)


def _rightmost_case(seed):
    """A (10, 7) criterion-10 plant on a 201 x 201 region around its
    rightmost point, right edge at alpha + 0.0537 and left edge at
    alpha - 0.15, so the answer sits in column 147."""
    rng = np.random.default_rng(seed)
    n, m = 10, 7
    delays = (0.0,) + tuple(np.sort(rng.uniform(0.1, 1.0, m)))
    mats = tuple(rng.normal(0.0, 1.0, (n, n)) / math.sqrt(n)
                 for _ in range(m + 1))
    system = TimeDelaySystem(delays, mats)
    pert = PerturbationSpec((1.0,) * (m + 1), 0.05)
    res = compute_psa(system, pert, N=15, tol=1e-3)
    a, w, h = res.alpha_eps, res.omega_eps, 0.1
    region = GridRegion(a - 1.5 * h, a + 0.537 * h, w - h, w + h, 201, 201)
    return system, pert, region


def normal_ten():
    # diag(-1, ..., -10) with eps = 0.3: only columns 0-4 reach the level,
    # so the answer sits near the left edge
    system = TimeDelaySystem((0.0,), (np.diag(-np.arange(1.0, 11.0)),))
    region = GridRegion(-1.2, 3.0, -0.5, 0.5, 41, 201)
    return system, disk_pert(0.3), region


@pytest.mark.parametrize("case", ["disk", "union", "one_delay", "large",
                                  "leftmost"])
def test_grid_psa_scan_matches_full_grid(case, request):
    if case == "disk":
        args = (delay_free(0.0), disk_pert(0.25),
                GridRegion(-0.5, 0.5, -0.5, 0.5, 101, 101))
    elif case == "union":
        args = (TimeDelaySystem((0.0,), (np.diag([-1.0, -2.0]),)),
                disk_pert(0.3), GridRegion(-1.6, 0.0, -0.6, 0.6, 161, 121))
    elif case == "one_delay":
        args = (request.getfixturevalue("one_delay"),
                request.getfixturevalue("one_delay_pert"),
                GridRegion(-0.4, 0.1, 0.9, 1.7, 126, 201))
    elif case == "large":
        args = request.getfixturevalue("large_case")
    else:
        args = normal_ten()
    got = grid_psa(*args)
    want = full_grid_psa(*args)
    assert got.value == want.value
    assert got.resolution == want.resolution
    assert got.location == want.location


def test_grid_psa_leftmost_answer_evaluates_few_nodes(monkeypatch):
    system, pert, region = normal_ten()
    counted = _count_matrices(monkeypatch)
    res = grid_psa(system, pert, region, refine_iters=0)
    assert abs(res.value - (-0.7)) <= 4.2 / 40.0
    # the full grid is 41 * 201 = 8 241, the stride-4 lattice 11 * 51 = 561
    assert counted[0] <= 1000


def test_grid_psa_evaluates_few_nodes(large_case, monkeypatch):
    counted = _count_matrices(monkeypatch)
    grid_psa(*large_case)
    # the full grid would be 201 * 201 + 3 * 441 = 41 724, the stride-4
    # lattice is 51 * 51 = 2 601
    assert counted[0] <= 3500


def test_oracle_outputs_equal_on_one_worker(large_case, monkeypatch):
    # the 201 x 201 region of a (10, 7) plant: its stacks run split across
    # the thread pool, and every output equals the one of a single worker
    outputs = []
    for workers in (2, 1):
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        outputs.append((contours(*large_case), grid_psa(*large_case),
                        grid_level(*large_case)))
    (c2, p2, g2), (c1, p1, g1) = outputs
    assert c2.level == c1.level and len(c2.polylines) == len(c1.polylines)
    for a, b in zip(c2.polylines, c1.polylines):
        assert a.tobytes() == b.tobytes()
    assert p2 == p1
    assert g2.tobytes() == g1.tobytes()


def test_oracle_cost_varies_little_between_plants(monkeypatch):
    # the dense first lattice is most of the work, so grid_psa + contours
    # evaluate about as many nodes on each plant; with a stride-8 first
    # lattice these four plants ranged from 4 279 to 7 347
    totals = []
    for seed in range(1, 5):
        args = _rightmost_case(seed)
        counted = _count_matrices(monkeypatch)
        grid_psa(*args)
        contours(*args)
        totals.append(counted[0])
    assert max(totals) <= 1.3 * min(totals)


# --- frequency-sup profile ---------------------------------------------------


def test_profile_strictly_decreasing(one_delay, one_delay_pert):
    disc = assemble(one_delay, 15)
    alpha = spectral_abscissa_approx(disc)
    sigmas = np.linspace(alpha + 0.01, alpha + 1.5, 12)
    prof = level_sup_profile(disc, one_delay_pert, sigmas, 3.0)
    assert np.all(np.diff(prof) < 0.0)


def test_profile_blows_up_at_abscissa(one_delay, one_delay_pert):
    disc = assemble(one_delay, 15)
    alpha = spectral_abscissa_approx(disc)
    wmax = frequency_bound(one_delay, one_delay_pert, alpha)
    near = level_sup_profile(disc, one_delay_pert, [alpha + 1e-6], wmax)[0]
    far = level_sup_profile(disc, one_delay_pert, [alpha + 1e3], wmax)[0]
    assert near > 1e3
    assert far < 1e-2


def test_profile_growth_as_offset_shrinks(one_delay, one_delay_pert):
    disc = assemble(one_delay, 15)
    alpha = spectral_abscissa_approx(disc)
    vals = level_sup_profile(
        disc, one_delay_pert, [alpha + 1e-2, alpha + 1e-3, alpha + 1e-4], 3.0
    )
    assert vals[1] > 5.0 * vals[0]
    assert vals[2] > 5.0 * vals[1]


# --- region sizing bound -----------------------------------------------------


def test_frequency_bound_contains_extremal_point(one_delay, one_delay_pert):
    res = compute_psa(one_delay, one_delay_pert, N=15, tol=1e-3)
    sa = res.prediction.shift_used
    assert res.omega_eps <= frequency_bound(one_delay, one_delay_pert, sa)


@pytest.mark.parametrize("scale, sigma_min", [(1.0, -30.0), (10.0, -23.6)])
def test_frequency_bound_far_left_rejected(scale, sigma_min):
    # tau = 30: exp(900) overflows math.exp; exp(708) is finite but the
    # bound, 10 * exp(708) + ..., is not
    eye = scale * np.eye(2)
    system = TimeDelaySystem((0.0, 30.0), (eye, eye))
    with pytest.raises(ValueError, match="too far left"):
        frequency_bound(system, PerturbationSpec((1.0, 1.0), 0.1), sigma_min)


def test_frequency_bound_disk_closed_form():
    # a=0: any pseudospectrum point obeys |lam| <= 0 + eps*w = eps
    bound = frequency_bound(delay_free(0.0), disk_pert(0.25), -0.1)
    assert abs(bound - 0.25) < 1e-14


# --- boundary contours -------------------------------------------------------


def test_contours_disk_circle():
    reg = GridRegion(-0.5, 0.5, -0.5, 0.5, 201, 201)
    cs = contours(delay_free(0.0), disk_pert(0.25), reg)
    assert cs.level == 4.0
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert poly[0] == poly[-1]  # closed
    radius = np.abs(np.asarray(poly))
    cell = 1.0 / 200.0
    assert np.max(np.abs(radius - 0.25)) <= 2.0 * cell


def test_contours_empty_region():
    reg = GridRegion(1.0, 1.5, 0.0, 0.4, 21, 21)
    cs = contours(delay_free(0.0), disk_pert(0.25), reg)
    assert cs.polylines == ()


def test_contours_open_curve_ends_on_region_edge(one_delay, one_delay_pert):
    reg = GridRegion(-0.3, 0.1, 0.5, 1.8, 81, 81)
    cs = contours(one_delay, one_delay_pert, reg)
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert poly[0] != poly[-1]
    for end in (poly[0], poly[-1]):
        on_edge = (
            min(abs(end.real - reg.re_min), abs(end.real - reg.re_max),
                abs(end.imag - reg.im_min), abs(end.imag - reg.im_max))
        )
        assert on_edge < 1e-12


def test_contours_open_curve_extends_backward():
    # the disk |z| <= 0.25 cut at im = 0.05 leaves a U-shaped arc; its first
    # segment lies inside the arc, so stitching extends the chain backward
    reg = GridRegion(-0.5, 0.5, -0.5, 0.05, 41, 41)
    cs = contours(delay_free(0.0), disk_pert(0.25), reg)
    assert len(cs.polylines) == 1
    poly = cs.polylines[0]
    assert poly[0] != poly[-1]
    assert poly[0].imag == poly[-1].imag == 0.05
    cell = 1.0 / 40.0
    assert np.max(np.abs(np.abs(poly) - 0.25)) <= cell


def test_contours_rightmost_vertex_bounded_by_abscissa(one_delay, one_delay_pert):
    res = compute_psa(one_delay, one_delay_pert, N=15, tol=1e-4)
    reg = GridRegion(-0.6, 0.2, -2.0, 2.0, 161, 161)
    cs = contours(one_delay, one_delay_pert, reg)
    cell = 0.8 / 160.0
    rightmost = max(z.real for poly in cs.polylines for z in poly)
    assert rightmost <= res.alpha_eps + cell
    assert rightmost >= res.alpha_eps - 2.0 * cell


def test_contours_vertices_sit_on_level_set(one_delay, one_delay_pert):
    from delaypsa import eval_level

    reg = GridRegion(-0.6, 0.2, -2.0, 2.0, 201, 201)
    cs = contours(one_delay, one_delay_pert, reg)
    level = 1.0 / one_delay_pert.epsilon
    worst = 0.0
    for poly in cs.polylines:
        for z in poly[:: max(1, len(poly) // 20)]:
            worst = max(worst, abs(eval_level(one_delay, one_delay_pert, z) - level))
    # linear interpolation error scales with the cell size
    assert worst < 0.05 * level


# --- contours against the full grid ------------------------------------------


def full_grid_contours(system, pert, region):
    """contours with sigma_min evaluated at every grid node and every cell
    visited, as before the Lipschitz placement; contours must reproduce it
    exactly."""
    check_pair(system, pert)
    re = region.re_axis()
    im = region.im_axis()
    g = (smallest_singular(system, re[None, :] + 1j * im[:, None])
         / _weight_row(system, pert, re)[None, :])
    level = pert.epsilon
    inside = g < level

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
            if kind == "h":
                points[key] = interp(i, j, i, j + 1)
            else:
                points[key] = interp(i, j, i + 1, j)
        return key

    for i in range(region.n_im - 1):
        for j in range(region.n_re - 1):
            # bool() casts matter: numpy bools add as logical or
            b00 = bool(inside[i, j])
            b10 = bool(inside[i, j + 1])
            b11 = bool(inside[i + 1, j + 1])
            b01 = bool(inside[i + 1, j])
            count = int(b00) + int(b10) + int(b11) + int(b01)
            if count in (0, 4):
                continue
            bottom = ("h", i, j)
            top = ("h", i + 1, j)
            left = ("v", i, j)
            right = ("v", i, j + 1)
            if count in (1, 3):
                flag = count == 1
                if b00 == flag:
                    pairs = [(left, bottom)]
                elif b10 == flag:
                    pairs = [(bottom, right)]
                elif b11 == flag:
                    pairs = [(right, top)]
                else:
                    pairs = [(top, left)]
            elif b00 == b10:  # horizontal split
                pairs = [(left, right)]
            elif b00 == b01:  # vertical split
                pairs = [(bottom, top)]
            else:  # saddle; connect according to the center sample
                center_inside = 0.25 * (
                    g[i, j] + g[i, j + 1] + g[i + 1, j] + g[i + 1, j + 1]
                ) < level
                if b00 and b11:
                    pairs = ([(bottom, right), (top, left)] if center_inside
                             else [(left, bottom), (right, top)])
                else:
                    pairs = ([(left, bottom), (right, top)] if center_inside
                             else [(bottom, right), (top, left)])
            for a, b in pairs:
                segments.append((edge_point(*a), edge_point(*b)))

    return ContourSet(1.0 / pert.epsilon, tuple(_stitch(segments, points)))


def _contour_case(case, request):
    if case == "disk":
        return (delay_free(0.0), disk_pert(0.25),
                GridRegion(-0.5, 0.5, -0.5, 0.5, 201, 201))
    if case == "union":
        # the disks around -1 and -2 touch at -1.5
        return (TimeDelaySystem((0.0,), (np.diag([-1.0, -2.0]),)),
                disk_pert(0.5), GridRegion(-2.7, -0.3, -0.7, 0.7, 161, 121))
    if case == "neck":
        # normal, eigenvalues -1 +- j and -2 +- 2j: the disks overlap in a
        # diagonal neck, so cells there are saddles
        a = np.zeros((4, 4))
        a[:2, :2] = [[-1.0, 1.0], [-1.0, -1.0]]
        a[2:, 2:] = [[-2.0, 2.0], [-2.0, -2.0]]
        return (TimeDelaySystem((0.0,), (a,)), disk_pert(0.72),
                GridRegion(-3.0, 0.0, 0.0, 3.0, 201, 201))
    if case in ("one_delay_81", "one_delay_201"):
        region = (GridRegion(-0.3, 0.1, 0.5, 1.8, 81, 81)
                  if case == "one_delay_81"
                  else GridRegion(-0.6, 0.2, -2.0, 2.0, 201, 201))
        return (request.getfixturevalue("one_delay"),
                request.getfixturevalue("one_delay_pert"), region)
    if case == "large":
        return request.getfixturevalue("large_case")
    # tau = 30 on re >= -3: L is about 1e40, so the bound places almost nothing
    rng = np.random.default_rng(30)
    system = TimeDelaySystem((0.0, 30.0),
                             tuple(rng.uniform(-1.0, 1.0, (2, 2))
                                   for _ in range(2)))
    return (system, PerturbationSpec((1.0, 1.0), 0.1),
            GridRegion(-3.0, 0.2, -2.0, 2.0, 101, 101))


@pytest.mark.parametrize("oracle", [grid_level, grid_psa, contours])
def test_far_left_region_rejected(oracle):
    # tau = 30 on re >= -30: exp(-lam * tau) reaches e^900 and overflows
    system, pert, _ = _contour_case("stiff", None)
    region = GridRegion(-30.0, 0.2, -2.0, 2.0, 21, 21)
    with pytest.raises(ValueError, match="too far left"):
        oracle(system, pert, region)


def _count_matrices(monkeypatch):
    counted = [0]
    kernel = numerics.singular_values

    def counting(stack):
        counted[0] += stack.shape[0]
        return kernel(stack)

    monkeypatch.setattr(numerics, "singular_values", counting)
    return counted


@pytest.mark.parametrize("case", ["disk", "union", "neck", "one_delay_81",
                                  "one_delay_201", "large", "stiff"])
def test_contours_match_full_grid(case, request, monkeypatch):
    args = _contour_case(case, request)
    counted = _count_matrices(monkeypatch)
    got = contours(*args)
    # no node is evaluated twice
    assert counted[0] <= args[2].n_re * args[2].n_im
    want = full_grid_contours(*args)
    assert got.level == want.level
    assert len(got.polylines) == len(want.polylines)
    for a, b in zip(got.polylines, want.polylines):
        assert np.array_equal(a, b)


def test_contours_evaluate_few_nodes(large_case, monkeypatch):
    counted = _count_matrices(monkeypatch)
    contours(*large_case)
    # the full grid is 201 * 201 = 40 401
    assert counted[0] <= 8000


def test_derivative_cap_tightens_placement(large_case, monkeypatch):
    # with only the per-pair constant 1 + sum tau_i ||A_i|| exp(-tau_i Re)
    # contours evaluates 4 350 nodes here; the region's ||F'|| bound is
    # about half of it
    counted = _count_matrices(monkeypatch)
    contours(*large_case)
    assert counted[0] <= 4000


def _delay_free_plant(rng, n, m):
    return TimeDelaySystem((0.0,), (rng.uniform(-2.0, 2.0, (n, n)),))


def _long_delay_plant(rng, n, m):
    # tau >= 10: exp(-tau * Re lam) spans many decades across a region, so
    # the constant per node pair is far below the one at the left edge
    mats = tuple(rng.uniform(-1.0, 1.0, (n, n)) for _ in range(m + 1))
    delays = (0.0,) + tuple(np.sort(rng.uniform(10.0, 30.0, m)))
    return TimeDelaySystem(delays, mats)


@pytest.mark.parametrize("recipe", [_delay_free_plant, _criterion10_plant,
                                    _stiff_plant, _long_delay_plant])
def test_boundary_field_is_sound(recipe):
    # the bound-placed sides equal the evaluated ones at every node, and the
    # values contours reads equal the full-grid values
    placed = mixed_cells = 0
    for seed in range(8):
        rng = np.random.default_rng([11, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        system = recipe(rng, n, m)
        pert = PerturbationSpec((1.0,) * (system.m + 1),
                                float(10.0 ** rng.uniform(-1.5, 0.5)))
        re_min, im_min = rng.uniform(-3.0, 0.5), rng.uniform(-3.0, 1.0)
        re = np.linspace(re_min, re_min + rng.uniform(0.5, 3.0),
                         int(rng.integers(20, 90)))
        im = np.linspace(im_min, im_min + rng.uniform(0.5, 4.0),
                         int(rng.integers(20, 90)))
        g, inside, mixed = _boundary_field(system, pert, re, im)
        full = (smallest_singular(system, re[None, :] + 1j * im[:, None])
                / _weight_row(system, pert, re)[None, :])
        assert np.array_equal(inside, full < pert.epsilon)
        corners = np.zeros(inside.shape, dtype=bool)
        for rows in (slice(None, -1), slice(1, None)):
            for cols in (slice(None, -1), slice(1, None)):
                corners[rows, cols] |= mixed
        assert np.array_equal(g[corners], full[corners])
        placed += int(np.isnan(g).sum())
        mixed_cells += int(mixed.sum())
    assert placed > 0 and mixed_cells > 0


@pytest.mark.parametrize("recipe", [_delay_free_plant, _criterion10_plant,
                                    _stiff_plant, _wide_plant])
def test_smallest_singular_matches_char_matrix(recipe):
    # the batched sweep reads char_matrix stacks; each sigma_min must equal
    # the one of the scalar call bit for bit
    for seed in range(25):
        rng = np.random.default_rng([13, seed])
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        system = recipe(rng, n, m)
        pts = rng.uniform(-3.0, 1.0, 12) + 1j * rng.uniform(-5.0, 5.0, 12)
        expect = [numerics.svd_complex(char_matrix(system, p))[-1]
                  for p in pts]
        assert np.array_equal(smallest_singular(system, pts), expect)
        # a scalar lam, as eval_level passes, gives the same value
        assert np.array_equal([smallest_singular(system, p) for p in pts], expect)


@pytest.mark.parametrize("recipe, n", [(_criterion10_plant, 4), (_stiff_plant, 6),
                                       (_criterion10_plant, 1), (_stiff_plant, 1)])
def test_smallest_singular_matches_reference(recipe, n):
    # more grid points than one chunk holds, so the chunk seams are covered
    rng = np.random.default_rng([19, n])
    system = recipe(rng, n, 3)
    step = max(1, _CHUNK // (n * n))
    shape = (int(rng.integers(40, 60)), step // 40 + 7)
    lam = (rng.uniform(-3.0, 1.0, shape[1])[None, :]
           + 1j * rng.uniform(-5.0, 5.0, shape[0])[:, None])
    assert lam.size > step
    got = smallest_singular(system, lam)
    assert got.shape == shape
    assert np.array_equal(got, smallest_singular_reference(system, lam))
    assert np.array_equal(smallest_singular(system, lam[:0]), np.empty((0, shape[1])))


def test_smallest_singular_peak_memory():
    # one stack of F per chunk is alive at a time (plus the terms subtracted
    # from it), not the previous chunk's stacks as well
    rng = np.random.default_rng(23)
    system = _criterion10_plant(rng, 10, 7)
    re, im = np.linspace(-1.0, 1.0, 201), np.linspace(-4.0, 4.0, 201)
    lam = re[None, :] + 1j * im[:, None]
    stack = (_CHUNK // 100) * 100 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        smallest_singular(system, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stack


@pytest.mark.parametrize("recipe", [_delay_free_plant, _criterion10_plant,
                                    _stiff_plant, _wide_plant])
def test_grid_psa_matches_full_grid_on_random_plants(recipe):
    # regions around the rightmost root of the discretization, so most
    # cases have an answer; the others must raise the same error
    values = 0
    for seed in range(16):
        rng = np.random.default_rng([17, seed])
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        system = recipe(rng, n, m)
        pert = PerturbationSpec((1.0,) * (system.m + 1),
                                float(10.0 ** rng.uniform(-2.0, 0.0)))
        roots = numerics.eig_real(assemble(system, 10).state_matrix)
        root = roots[np.argmax(roots.real)]
        re0, im0 = root.real, abs(root.imag)
        region = GridRegion(
            re0 - rng.uniform(0.2, 1.0), re0 + rng.uniform(0.2, 1.0),
            im0 - rng.uniform(0.2, 1.0), im0 + rng.uniform(0.2, 1.0),
            int(rng.integers(15, 60)), int(rng.integers(15, 60)))
        outcome = []
        for oracle in (grid_psa, full_grid_psa):
            try:
                outcome.append(oracle(system, pert, region))
            except (RegionTooSmallError, EmptyPseudospectrumError) as exc:
                outcome.append(type(exc))
        assert outcome[0] == outcome[1]
        values += isinstance(outcome[1], GridPsaResult)
    assert values >= 8
