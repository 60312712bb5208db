"""Tests for price-surface storage, Greeks, control fields, and masks."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uvpricer.hjb import solve_bsb_1d, solve_hjb_2d
from uvpricer.model import GridSpec, ModelParams, PiecewiseLinearPayoff
from uvpricer.surface import (
    ControlField,
    PriceSurface,
    WorstCaseControl,
    _bilinear_read,
    _bilinear_weights,
    _q_argsup,
    _q_sup,
    default_gamma_tolerance,
    greeks,
    mismatch_set,
    optimal_control_field,
)

import csv_reference
import solver_reference
from bilinear_reference import gather_read, gather_weights
from test_hjb import sized, smallest_case, solver_cases
from uvpricer.sde import PathBatch

PARAMS = ModelParams(
    r=0.0, a=0.6, b=0.5, alpha=2.0, sigma=0.5, rho=0.5,
    sigma_min=0.1, sigma_max=0.2, delta=0.25,
)


def make_surface(fn, kind="limit_p0", n_t=4, grid=None, params=PARAMS):
    """Surface whose slices sample ``fn(X, V, t)`` on every time level."""
    if grid is None:
        grid = GridSpec(x_min=0.0, x_max=10.0, n_x=9, v_min=-1.0, v_max=1.0,
                        n_v=5, T=1.0, n_t=n_t)
    X, V = np.meshgrid(grid.x_nodes, grid.v_nodes, indexing="ij")
    kept = tuple(range(grid.n_t + 1))
    values = np.stack([fn(X, V, k * grid.dt) for k in kept])
    return PriceSurface(values=values, grid=grid, params=params, kind=kind,
                        kept_times=kept)


class TestPriceSurface:
    def test_slice_lookup(self):
        """pos_of/slice_at find retained slices and reject missing ones."""
        s = make_surface(lambda X, V, t: X + t)
        assert s.pos_of(0) == 0
        assert s.pos_of(4) == 4
        assert np.all(s.slice_at(2)[:, 0] == s.grid.x_nodes + 2 * s.grid.dt)
        thinned = PriceSurface(values=s.values[[0, 2, 4]], grid=s.grid,
                               params=s.params, kind=s.kind, kept_times=(0, 2, 4))
        with pytest.raises(KeyError):
            thinned.slice_at(1)

    def test_nearest_pos(self):
        """nearest_pos snaps a time to the closest retained slice."""
        s = make_surface(lambda X, V, t: X, n_t=4)  # dt = 0.25
        assert s.nearest_pos(0.0) == 0
        assert s.nearest_pos(0.26) == 1
        assert s.nearest_pos(0.9) == 4
        thinned = PriceSurface(values=s.values[[0, 2, 4]], grid=s.grid,
                               params=s.params, kind=s.kind, kept_times=(0, 2, 4))
        assert thinned.nearest_pos(0.3) == 1  # slice at t=0.5 vs t=0
        assert thinned.nearest_pos(0.2) == 0

    def test_bilinear_value_exact_on_bilinear_function(self):
        """value_at reproduces a + bx + cv + dxv exactly, inside and out."""
        s = make_surface(lambda X, V, t: 1.0 + 2.0 * X - 3.0 * V + 0.5 * X * V)
        for x, v in [(3.7, 0.21), (0.0, -1.0), (10.0, 1.0), (12.5, 1.4), (-1.0, -2.0)]:
            expected = 1.0 + 2.0 * x - 3.0 * v + 0.5 * x * v
            assert s.value_at(0, x, v) == pytest.approx(expected, rel=1e-12)

    def test_clamped_read_outside_domain(self):
        """With extrapolate=False the read clamps to the boundary value."""
        s = make_surface(lambda X, V, t: X)
        assert s.value_at(0, 15.0, 0.0, extrapolate=False) == pytest.approx(10.0)
        assert s.value_at(0, 15.0, 0.0, extrapolate=True) == pytest.approx(15.0)

    def test_vectorized_reads(self):
        """Array-valued (x, v) reads return arrays."""
        s = make_surface(lambda X, V, t: X * V)
        x = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, -0.5, 0.0])
        assert s.value_at(0, x, v) == pytest.approx(x * v)

    @pytest.mark.parametrize(
        "kept, ok",
        [((0, 4), True), ((0, 2, 4), True), ((0,), False), ((1, 4), False),
         ((0, 3), False), ((4, 0), False)],
    )
    def test_kept_times_validation(self, kept, ok):
        """kept_times must ascend and bracket the full time range."""
        grid = GridSpec(x_min=0.0, x_max=10.0, n_x=9, v_min=-1.0, v_max=1.0,
                        n_v=5, T=1.0, n_t=4)
        values = np.zeros((len(kept), grid.n_x + 2, grid.n_v))
        if ok:
            PriceSurface(values=values, grid=grid, params=PARAMS,
                         kind="limit_p0", kept_times=kept)
        else:
            with pytest.raises(ValueError):
                PriceSurface(values=values, grid=grid, params=PARAMS,
                             kind="limit_p0", kept_times=kept)

    def test_non_finite_rejected(self):
        """Surfaces with NaN entries cannot be constructed."""
        grid = GridSpec(x_min=0.0, x_max=10.0, n_x=9, v_min=-1.0, v_max=1.0,
                        n_v=5, T=1.0, n_t=1)
        values = np.zeros((2, grid.n_x + 2, grid.n_v))
        values[1, 3, 2] = np.nan
        with pytest.raises(ValueError):
            PriceSurface(values=values, grid=grid, params=PARAMS,
                         kind="limit_p0", kept_times=(0, 1))

    def test_csv_export(self, tmp_path):
        """to_csv writes the declared columns plus comment headers."""
        s = make_surface(lambda X, V, t: X + V)
        out = tmp_path / "surface.csv"
        s.to_csv(out, header_lines=["config_hash=abc"])
        lines = out.read_text().splitlines()
        assert lines[0] == "# config_hash=abc"
        assert lines[1] == "t,x,v,value"
        # two slices (initial + terminal) over the full node grid
        assert len(lines) == 2 + 2 * 11 * 5


class TestGreeks:
    def test_exact_on_quadratic(self):
        """All five Greeks are exact for a quadratic slice, edges included."""
        s = make_surface(
            lambda X, V, t: 2.0 * X**2 + 3.0 * X * V + V**2 + 4.0 * X + 5.0 * V + 6.0
        )
        g = greeks(s, 0)
        X, V = np.meshgrid(s.grid.x_nodes, s.grid.v_nodes, indexing="ij")
        assert g.delta == pytest.approx(4.0 * X + 3.0 * V + 4.0, rel=1e-11)
        assert g.gamma == pytest.approx(np.full_like(X, 4.0), rel=1e-11)
        assert g.vega == pytest.approx(3.0 * X + 2.0 * V + 5.0, rel=1e-11)
        assert g.vanna == pytest.approx(np.full_like(X, 3.0), rel=1e-11)
        assert g.vomma == pytest.approx(np.full_like(X, 2.0), rel=1e-11)

    def test_butterfly_terminal_delta(self):
        """Terminal slopes of the butterfly appear in the discrete delta."""
        grid = GridSpec(x_min=0.0, x_max=200.0, n_x=39, v_min=-1.0, v_max=1.0,
                        n_v=3, T=1.0, n_t=1)
        h = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)
        s = make_surface(lambda X, V, t: h(X), grid=grid, n_t=1)
        g = greeks(s, 1)
        i95 = int(np.argmin(np.abs(grid.x_nodes - 95.0)))
        i105 = int(np.argmin(np.abs(grid.x_nodes - 105.0)))
        assert g.delta[i95, 1] == pytest.approx(1.0)
        assert g.delta[i105, 1] == pytest.approx(-1.0)

    def test_missing_slice_raises(self):
        """Requesting Greeks of an unretained slice raises KeyError."""
        s = make_surface(lambda X, V, t: X)
        thinned = PriceSurface(values=s.values[[0, 4]], grid=s.grid,
                               params=s.params, kind=s.kind, kept_times=(0, 4))
        with pytest.raises(KeyError):
            greeks(thinned, 2)


class TestOptimalControlField:
    def test_convex_slice_selects_upper_bound(self):
        """Positive curvature puts the field at sigma_max everywhere."""
        s = make_surface(lambda X, V, t: X**2)
        field = optimal_control_field(s, PARAMS, 0)
        assert np.all(field.q_star == PARAMS.sigma_max)
        assert field.source_kind == "limit_p0"

    def test_concave_slice_selects_lower_bound(self):
        """Negative curvature beyond the dead band selects sigma_min."""
        s = make_surface(lambda X, V, t: -(X**2))
        field = optimal_control_field(s, PARAMS, 0)
        assert np.all(field.q_star == PARAMS.sigma_min)

    def test_flat_slice_ties_to_upper_bound(self):
        """Zero curvature resolves ties toward sigma_max."""
        s = make_surface(lambda X, V, t: 3.0 * X + 1.0)
        field = optimal_control_field(s, PARAMS, 0)
        assert np.all(field.q_star == PARAMS.sigma_max)

    def test_butterfly_kink_pattern(self):
        """Kink signs give sigma_max at the wings and sigma_min at the body."""
        grid = GridSpec(x_min=0.0, x_max=200.0, n_x=39, v_min=-1.0, v_max=1.0,
                        n_v=3, T=1.0, n_t=1)
        h = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)
        s = make_surface(lambda X, V, t: h(X), grid=grid, n_t=1)
        field = optimal_control_field(s, PARAMS, 1)
        x = grid.x_nodes
        at = lambda xs: field.q_star[int(np.argmin(np.abs(x - xs))), 1]
        assert at(90.0) == PARAMS.sigma_max
        assert at(110.0) == PARAMS.sigma_max
        assert at(100.0) == PARAMS.sigma_min

    def test_full_delta_interior_candidate(self):
        """A concave slice with cross curvature yields interior multipliers."""
        s = make_surface(lambda X, V, t: -0.5 * X**2 + 6.0 * X * V,
                         kind="full_delta")
        field = optimal_control_field(s, PARAMS, 0)
        assert np.all(field.q_star >= PARAMS.sigma_min)
        assert np.all(field.q_star <= PARAMS.sigma_max)
        # gamma = -1, vanna = 6, so the stationary point of the concave
        # quadratic is q_hat = 6 sqrt(delta) rho sigma / (x e^v).
        x = s.grid.x_nodes[:, None]
        ev = np.exp(s.grid.v_nodes)[None, :]
        with np.errstate(divide="ignore"):
            q_hat = (
                6.0 * np.sqrt(PARAMS.delta) * PARAMS.rho * PARAMS.sigma / (x * ev)
            )
        interior = (q_hat > PARAMS.sigma_min) & (q_hat < PARAMS.sigma_max)
        assert interior.any()
        assert field.q_star[interior] == pytest.approx(q_hat[interior], rel=1e-9)

    def test_corrector_surface_rejected(self):
        """Control extraction from a corrector surface is refused."""
        s = make_surface(lambda X, V, t: X, kind="corrector_p1")
        with pytest.raises(ValueError):
            optimal_control_field(s, PARAMS, 0)

    def test_control_field_validation(self):
        """Non-finite field entries are rejected at construction."""
        bad = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            ControlField(q_star=bad, source_kind="limit_p0", gamma_tolerance=1e-6)

    def test_field_csv_export(self, tmp_path):
        """Control fields export as x,v,q_star rows."""
        s = make_surface(lambda X, V, t: X**2)
        field = optimal_control_field(s, PARAMS, 0)
        out = tmp_path / "field.csv"
        field.to_csv(out, s.grid.x_nodes, s.grid.v_nodes)
        lines = out.read_text().splitlines()
        assert lines[0] == "x,v,q_star"
        assert len(lines) == 1 + 11 * 5


def reference_bilinear(grid, F, x, v, extrapolate=True):
    """The 2-D gather form of ``_bilinear``'s read."""
    return gather_read(F, *gather_weights(grid, x, v, extrapolate))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def grids_and_slices(draw):
    """A random grid and one slice of random values on it."""
    x_min = draw(st.floats(min_value=0.0, max_value=100.0))
    v_min = draw(st.floats(min_value=-3.0, max_value=1.0))
    grid = GridSpec(
        x_min=x_min, x_max=x_min + draw(st.floats(min_value=0.5, max_value=300.0)),
        n_x=draw(st.integers(min_value=3, max_value=40)),
        v_min=v_min, v_max=v_min + draw(st.floats(min_value=0.1, max_value=4.0)),
        n_v=draw(st.integers(min_value=3, max_value=12)), T=1.0, n_t=1,
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    F = np.random.default_rng(seed).standard_normal((grid.n_x + 2, grid.n_v))
    return grid, F


# Positions in units of the grid's width: inside, on the edges and outside.
UNIT = st.floats(min_value=-0.5, max_value=1.5)


class TestGreeksAxes:
    @given(case=grids_and_slices())
    @example(case=(GridSpec(x_min=0.0, x_max=4.0, n_x=3, v_min=0.0, v_max=1.0,
                            n_v=3, T=1.0, n_t=1),
                   np.random.default_rng(0).standard_normal((5, 3))))
    def test_equal_the_moveaxis_form(self, case):
        """The five fields equal those of the ``np.moveaxis`` form, bits
        and memory layout, also on a v-axis of three nodes, where the
        second difference copies the interior at the edges."""
        grid, F = case
        s = PriceSurface(values=np.stack([F, F]), grid=grid, params=PARAMS,
                         kind="limit_p0", kept_times=(0, 1))
        got = greeks(s, 1)
        want = solver_reference.greeks(F, grid.dx, grid.dv)
        for name, w in zip(("delta", "gamma", "vega", "vanna", "vomma"), want,
                           strict=True):
            g = getattr(got, name)
            assert same_bits(g, w) and g.strides == w.strides, name


class TestGreeksOracle:
    @settings(max_examples=30, deadline=None)
    @given(case=solver_cases())
    @example(case=smallest_case(0.0, 0))
    def test_solved_slices_equal_the_expression_form(self, case):
        """On every kept slice of a full and a limit solve, the five fields
        equal the expression-form Greeks, signs of zero included.  The
        example's three v-nodes reach the edge rows that the second
        v-difference copies from the interior."""
        p, h, grid, extra, options, _ = case
        options = dict(options, store_slices=True)
        for surface in (solve_hjb_2d(p, h, sized(p, grid, "full", extra), **options),
                        solve_bsb_1d(p, h, sized(p, grid, "bsb", extra), **options)):
            for k in surface.kept_times:
                got = greeks(surface, k)
                want = solver_reference.greeks(surface.slice_at(k),
                                               surface.grid.dx, surface.grid.dv)
                for name, w in zip(("delta", "gamma", "vega", "vanna", "vomma"),
                                   want, strict=True):
                    g = getattr(got, name)
                    assert np.array_equal(g, w), (name, k)
                    assert np.array_equal(np.signbit(g), np.signbit(w)), (name, k)


class TestFlatBilinearKernel:
    @given(case=grids_and_slices(),
           ux=st.lists(UNIT, min_size=1, max_size=30),
           uv=st.lists(UNIT, min_size=1, max_size=30),
           extrapolate=st.booleans())
    def test_matches_the_2d_gather_bit_for_bit(self, case, ux, uv, extrapolate):
        """Array reads equal the 2-D ``F[ix, iv]`` form exactly, extrapolated
        or clamped, inside and outside the rectangle."""
        grid, F = case
        n = min(len(ux), len(uv))
        x = grid.x_min + np.asarray(ux[:n]) * (grid.x_max - grid.x_min)
        v = grid.v_min + np.asarray(uv[:n]) * (grid.v_max - grid.v_min)
        want = reference_bilinear(grid, F, x, v, extrapolate)
        got = _bilinear_read(F, *_bilinear_weights(grid, x, v, extrapolate))
        assert same_bits(got, want)
        surface = PriceSurface(values=np.stack([F, F]), grid=grid, params=PARAMS,
                               kind="limit_p0", kept_times=(0, 1))
        assert same_bits(surface.value_at(0, x, v, extrapolate), want)
        # A scalar factor level broadcasts against the asset points.
        assert same_bits(surface.value_at(1, x, float(v[0]), extrapolate),
                         reference_bilinear(grid, F, x, float(v[0]), extrapolate))

    @given(case=grids_and_slices(),
           ux=UNIT, uv=UNIT, extrapolate=st.booleans())
    def test_scalar_reads(self, case, ux, uv, extrapolate):
        """A scalar point reads a Python float equal to the 2-D form."""
        grid, F = case
        x = grid.x_min + ux * (grid.x_max - grid.x_min)
        v = grid.v_min + uv * (grid.v_max - grid.v_min)
        surface = PriceSurface(values=np.stack([F, F]), grid=grid, params=PARAMS,
                               kind="limit_p0", kept_times=(0, 1))
        got = surface.value_at(0, x, v, extrapolate)
        assert type(got) is float
        assert same_bits(got, float(reference_bilinear(grid, F, x, v, extrapolate)))

    @given(case=grids_and_slices(),
           fx=st.floats(min_value=0.0, max_value=1.0),
           fv=st.floats(min_value=0.0, max_value=1.0))
    def test_last_cell(self, case, fx, fv):
        """Points of the top-right cell use ``ix = n_x``, ``iv = n_v - 2``
        and read the last node of the slice."""
        grid, F = case
        x = np.array([grid.x_max - (1.0 - fx) * grid.dx, grid.x_max])
        v = np.array([grid.v_max - (1.0 - fv) * grid.dv, grid.v_max])
        lower, upper = _bilinear_weights(grid, x, v)[:2]
        assert lower[1] == grid.n_x * grid.n_v + grid.n_v - 2
        assert upper[1] + 1 == F.size - 1
        got = _bilinear_read(F, *_bilinear_weights(grid, x, v))
        assert same_bits(got, reference_bilinear(grid, F, x, v))

    def test_greek_fields_are_c_contiguous(self):
        """Flat reads of Greek fields need no copy."""
        s = make_surface(lambda X, V, t: X**2 * np.exp(V))
        g = greeks(s, 0)
        for field in (g.delta, g.gamma, g.vega, g.vanna, g.vomma):
            assert field.flags.c_contiguous
            assert np.shares_memory(field.ravel(), field)

    @given(case=grids_and_slices(),
           ux=st.lists(UNIT, min_size=1, max_size=30),
           uv=st.lists(UNIT, min_size=1, max_size=30))
    # dx = 1 and dv = 0.5: x = 1.5, 2.5 and v = -0.25, 0.25 lie midway
    # between two nodes, where rint rounds to the even node (2 each time).
    @example(case=(GridSpec(x_min=0.0, x_max=4.0, n_x=3, v_min=-1.0, v_max=1.0,
                            n_v=5, T=1.0, n_t=1),
                   np.random.default_rng(0).standard_normal((5, 5))),
             ux=[0.375, 0.625, 0.375, 0.625], uv=[0.375, 0.625, 0.625, 0.375])
    def test_policy_reads_the_nearest_node(self, case, ux, uv):
        """The worst-case policy's flat nearest-node read equals ``q[ix, iv]``."""
        grid, F = case
        grid = GridSpec(x_min=grid.x_min, x_max=grid.x_max, n_x=grid.n_x,
                        v_min=grid.v_min, v_max=grid.v_max, n_v=grid.n_v,
                        T=1.0, n_t=2)
        surface = PriceSurface(values=np.stack([F, F, F]), grid=grid,
                               params=PARAMS, kind="limit_p0",
                               kept_times=(0, 1, 2))
        n = min(len(ux), len(uv))
        x = grid.x_min + np.asarray(ux[:n]) * (grid.x_max - grid.x_min)
        v = grid.v_min + np.asarray(uv[:n]) * (grid.v_max - grid.v_min)
        q = optimal_control_field(surface, PARAMS, 1).q_star
        ix = np.clip(np.rint((x - grid.x_min) / grid.dx).astype(int), 0, grid.n_x + 1)
        iv = np.clip(np.rint((v - grid.v_min) / grid.dv).astype(int), 0, grid.n_v - 1)
        got = WorstCaseControl(surface, PARAMS).values(0.5, x, v)
        assert same_bits(got, q[ix, iv])


COEF = st.floats(min_value=-1e3, max_value=1e3)
# Signed zeros, subnormal, huge and non-finite coefficients.
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e300,
                           -1e300, np.inf, -np.inf, np.nan])


@st.composite
def quadratics(draw):
    """``(aa, bb)`` drawn freely, or with the stationary point ``-bb/(2 aa)``
    drawn from [0, 2.5] so that it often falls inside the interval."""
    aa = draw(COEF)
    if draw(st.booleans()):
        return aa, draw(COEF)
    return aa, -2.0 * aa * draw(st.floats(min_value=0.0, max_value=2.5))


# One node's (aa, bb), special values included.
NODE = st.one_of(quadratics(), st.tuples(SPECIAL, SPECIAL), st.tuples(SPECIAL, COEF))


class TestQSup:
    @given(coef=quadratics(),
           lo=st.floats(min_value=0.01, max_value=1.0),
           width=st.floats(min_value=1e-3, max_value=1.0),
           u=st.floats(min_value=0.0, max_value=1.0))
    # b * b underflows (the sup read 2.27e-254 against f(1.5) = 2.55e-254)
    # and overflows (the sup read inf against 2.25e160).
    @example(coef=(-1.1330797918820889e-254, 3.399239375646267e-254), lo=1.0,
             width=1.0, u=0.5)
    @example(coef=(-1e160, 3e160), lo=1.0, width=1.0, u=0.5)
    def test_sup_is_attained_in_the_interval(self, coef, lo, width, u):
        """The sup dominates every q in the interval, the endpoints
        exactly, and equals f at the returned maximizer."""
        aa, bb = coef
        hi = lo + width

        def f(q):
            return q * q * aa + q * bb

        sup = _q_sup(np.array([aa]), np.array([bb]), lo, hi)[0][0]
        q_star = _q_argsup(np.array([aa]), np.array([bb]), lo, hi)[0]
        scale = 1e-9 * (abs(aa) * hi * hi + abs(bb) * hi) + 1e-300
        assert lo <= q_star <= hi
        assert sup >= f(lo) and sup >= f(hi)
        assert sup >= f(lo + u * width) - scale
        assert abs(sup - f(q_star)) <= scale

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           bb=st.floats(min_value=-1e3, max_value=1e3),
           lo=st.floats(min_value=0.01, max_value=1.0),
           width=st.floats(min_value=1e-3, max_value=1.0))
    def test_tiny_concave_curvature_is_silent(self, scale, bb, lo, width):
        """With aa near -1e-300 the stationary point overflows to infinity
        without a warning and never wins."""
        aa, hi = np.array([-scale * 1e-300]), lo + width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sup = _q_sup(aa, np.array([bb]), lo, hi)[0][0]
            q_star = _q_argsup(aa, np.array([bb]), lo, hi)[0]
        endpoints = (lo * lo * aa[0] + lo * bb, hi * hi * aa[0] + hi * bb)
        assert lo <= q_star <= hi
        if abs(bb) > 1e-290:
            assert sup == max(endpoints)
            assert q_star in (lo, hi)

    @given(coefs=st.lists(NODE, min_size=1, max_size=40),
           lo=st.floats(min_value=0.01, max_value=1.0),
           width=st.floats(min_value=0.0, max_value=1.0))
    def test_candidate_prefilter_changes_no_bit(self, coefs, lo, width):
        """All five returns equal those of the kernel that computes the
        stationary point at every concave node."""
        aa, bb = (np.array(c) for c in zip(*coefs))
        with np.errstate(all="ignore"):
            got = _q_sup(aa, bb, lo, lo + width)
            want = solver_reference.q_sup_parts(aa, bb, lo, lo + width)
        for g, w in zip(got, want, strict=True):
            assert same_bits(g, w)

    @given(rows=st.lists(st.lists(st.tuples(NODE, NODE), min_size=3,
                                  max_size=3), min_size=1, max_size=14),
           lo=st.floats(min_value=0.01, max_value=1.0),
           width=st.floats(min_value=0.0, max_value=1.0))
    def test_reused_buffers_change_no_bit(self, rows, lo, width):
        """Two draws into the same preallocated buffers, as the march makes
        its calls, each give the reference kernel's five returns."""
        shape = (len(rows), 3)
        out = (np.empty(shape), np.empty(shape), np.empty(shape),
               np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
        for draw in (0, 1):
            aa, bb = (np.array([[node[draw][i] for node in row] for row in rows])
                      for i in (0, 1))
            with np.errstate(all="ignore"):
                got = _q_sup(aa, bb, lo, lo + width, out=out)
                want = solver_reference.q_sup_parts(aa, bb, lo, lo + width)
            assert got[0] is out[0]
            for g, w in zip(got, want, strict=True):
                assert same_bits(g, w)

    @given(lo=st.floats(min_value=0.01, max_value=1.0),
           width=st.floats(min_value=1e-3, max_value=1.0))
    def test_flat_quadratic_ties_to_upper_bound(self, lo, width):
        """With aa = bb = 0 every q ties and the maximizer is the upper bound."""
        zero = np.zeros(1)
        assert _q_argsup(zero, zero, lo, lo + width)[0] == lo + width


class TestMismatchSet:
    def test_opposite_curvatures_fill_a_delta(self):
        """Positive delta-curvature against negative limit curvature."""
        pd = make_surface(lambda X, V, t: X**2, kind="full_delta")
        p0 = make_surface(lambda X, V, t: -(X**2), kind="limit_p0")
        masks = mismatch_set(pd, p0, 0)
        assert masks.a_delta.all()
        assert not masks.s0.any()
        assert masks.a_delta_fraction == 1.0

    def test_flat_limit_lands_in_zero_set(self):
        """An affine limit slice sits entirely in the curvature zero set."""
        pd = make_surface(lambda X, V, t: X**2, kind="full_delta")
        p0 = make_surface(lambda X, V, t: 2.0 * X + V, kind="limit_p0")
        masks = mismatch_set(pd, p0, 0)
        assert masks.s0.all()
        assert not masks.a_delta.any()

    def test_kind_and_grid_checks(self):
        """Wrong kinds or differing grids are rejected."""
        pd = make_surface(lambda X, V, t: X**2, kind="full_delta")
        p0 = make_surface(lambda X, V, t: X**2, kind="limit_p0")
        with pytest.raises(ValueError):
            mismatch_set(p0, p0, 0)
        other_grid = GridSpec(x_min=0.0, x_max=20.0, n_x=9, v_min=-1.0,
                              v_max=1.0, n_v=5, T=1.0, n_t=4)
        p0_other = make_surface(lambda X, V, t: X**2, kind="limit_p0",
                                grid=other_grid)
        with pytest.raises(ValueError):
            mismatch_set(pd, p0_other, 0)


class TestWorstCaseControl:
    def test_bang_bang_sampling(self):
        """The policy returns the nodewise bang-bang values of the field."""
        grid = GridSpec(x_min=0.0, x_max=200.0, n_x=39, v_min=-1.0, v_max=1.0,
                        n_v=3, T=1.0, n_t=1)
        h = PiecewiseLinearPayoff.butterfly(90.0, 100.0, 110.0)
        s = make_surface(lambda X, V, t: h(X), grid=grid, n_t=1)
        policy = WorstCaseControl(s, PARAMS)
        x = np.array([90.0, 100.0, 110.0, 91.2])
        v = np.zeros(4)
        q = policy.values(0.9, x, v)
        assert q == pytest.approx(
            [PARAMS.sigma_max, PARAMS.sigma_min, PARAMS.sigma_max, PARAMS.sigma_max]
        )
        assert policy.tag == "worst-case field"

    def test_requires_stored_slices(self):
        """A two-slice surface with many steps cannot back the policy."""
        grid = GridSpec(x_min=0.0, x_max=10.0, n_x=9, v_min=-1.0, v_max=1.0,
                        n_v=5, T=1.0, n_t=10)
        values = np.zeros((2, grid.n_x + 2, grid.n_v))
        s = PriceSurface(values=values, grid=grid, params=PARAMS,
                         kind="limit_p0", kept_times=(0, 10))
        with pytest.raises(ValueError):
            WorstCaseControl(s, PARAMS)


class TestDefaultGammaTolerance:
    def test_scales_with_payoff_and_grid(self):
        """The dead band tracks max|h|/dx^2."""
        s = make_surface(lambda X, V, t: X)  # terminal max value 10, dx = 1
        assert default_gamma_tolerance(s) == pytest.approx(1e-5)


def csv_values(seed, shape):
    """Random values of ``shape`` with -0.0, 5e-324 and 1e300 among them."""
    values = np.random.default_rng(seed).standard_normal(shape) * 1e3
    flat = values.reshape(-1)
    flat[:3] = (-0.0, 5e-324, 1e300)
    np.random.default_rng(seed + 1).shuffle(flat)
    return values


class TestCsvRows:
    """The artifact writers give the bytes of the ``csv.writer`` form."""

    HEADERS = ("config_hash=abc", "sigma_vol_of_vol_assumed=False")

    def assert_same_file(self, tmp_path, write, write_reference):
        write(tmp_path / "got.csv")
        write_reference(tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        return got

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("ks", [None, (4, 1, 0), ()])
    def test_surface(self, tmp_path, seed, ks):
        grid = GridSpec(x_min=0.0, x_max=10.0, n_x=9, v_min=-1.0, v_max=1.0,
                        n_v=5, T=1.0, n_t=4)
        s = PriceSurface(values=csv_values(seed, (5, 11, 5)), grid=grid,
                         params=PARAMS, kind="limit_p0",
                         kept_times=(0, 1, 2, 3, 4))
        got = self.assert_same_file(
            tmp_path,
            lambda path: s.to_csv(path, time_indices=ks,
                                  header_lines=self.HEADERS),
            lambda path: csv_reference.surface_csv(
                path, s, (0, 4) if ks is None else ks, self.HEADERS),
        )
        assert got.count(b"\r\n") == 1 + (2 if ks is None else len(ks)) * 55

    @pytest.mark.parametrize("max_paths", [None, 3, 150])
    def test_paths(self, tmp_path, max_paths):
        """Long enough to span several row blocks of the writer."""
        batch = PathBatch(x_paths=csv_values(3, (300, 11)),
                          v_paths=csv_values(4, (300, 11)), dt=0.1 / 10,
                          seed=3, control_tag="fixed q=0.15")
        got = self.assert_same_file(
            tmp_path,
            lambda path: batch.to_csv(path, max_paths=max_paths,
                                      header_lines=self.HEADERS),
            lambda path: csv_reference.paths_csv(path, batch, max_paths,
                                                 self.HEADERS),
        )
        if max_paths is None:
            for special in (b"-0.0", b"5e-324", b"1e+300"):
                assert special in got

    def test_repeated_values(self, tmp_path):
        """Columns that repeat values, signed zeros and the smallest
        subnormal among them, across several row blocks: each value keeps
        its own text."""
        pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5, 1e300])
        rng = np.random.default_rng(8)
        batch = PathBatch(x_paths=rng.choice(pool, (150, 11)),
                          v_paths=rng.choice(pool[:3], (150, 11)), dt=0.01,
                          seed=3, control_tag="fixed q=0.15")
        got = self.assert_same_file(
            tmp_path,
            lambda path: batch.to_csv(path, header_lines=self.HEADERS),
            lambda path: csv_reference.paths_csv(path, batch, None,
                                                 self.HEADERS),
        )
        for text in (b",0.0,", b",-0.0,", b",5e-324,", b",-5e-324,"):
            assert text in got

    def test_control_field(self, tmp_path):
        field = ControlField(q_star=csv_values(5, (11, 5)),
                             source_kind="limit_p0", gamma_tolerance=1e-6)
        x, v = csv_values(6, 11), csv_values(7, 5)
        got = self.assert_same_file(
            tmp_path,
            lambda path: field.to_csv(path, x, v, header_lines=self.HEADERS),
            lambda path: csv_reference.field_csv(path, field, x, v, self.HEADERS),
        )
        for special in (b"-0.0", b"5e-324", b"1e+300"):
            assert special in got
        with pytest.raises(ValueError, match="length"):
            field.to_csv(tmp_path / "short.csv", x[:-1], v)
