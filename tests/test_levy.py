"""Domain types: triplets, uncertainty sets, polyhedra, box compilation."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from rlp import (
    InfeasibleError,
    JumpMeasure,
    LevyTriplet,
    ModelError,
    OriginExcludedError,
    Polyhedron,
    SupportContainsZeroError,
    TooManyVerticesError,
    UncertaintySet,
    UtilitySpec,
    bounding_box,
    characteristics_bound,
    compile_box_to_vertices,
    discretize_density,
    effective_domain,
    natural_constraints,
    truncation,
    validate_triplet,
)

from helpers_instances import pooled_vertices
from helpers_oracle import clamped_matrix, unique_atom_table


def make_triplet(b=0.1, c=0.04, atoms=((0.05, (1.0,)),)):
    return LevyTriplet(np.atleast_1d(b), np.atleast_2d(c),
                       JumpMeasure.from_atoms(list(atoms), dimension=1))


def test_truncation_keeps_the_closed_unit_ball():
    # h(z) = z exactly on |z| <= 1, including the boundary.
    assert np.array_equal(truncation(np.array([0.3, -0.4])), [0.3, -0.4])
    unit = np.array([0.6, 0.8])
    assert np.array_equal(truncation(unit), unit)
    assert np.array_equal(truncation(np.array([1.5, 0.0])), [0.0, 0.0])


def test_truncation_rowwise_on_matrices():
    z = np.array([[0.5, 0.0], [3.0, 4.0], [0.0, -1.0]])
    out = truncation(z)
    assert np.array_equal(out[0], [0.5, 0.0])
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.array_equal(out[2], [0.0, -1.0])


def test_jump_measure_truncated_mean():
    jm = JumpMeasure.from_atoms([(0.2, (0.5,)), (0.4, (2.0,)), (0.1, (-1.0,))])
    # only |z| <= 1 contributes: 0.2*0.5 + 0.1*(-1.0)
    assert jm.truncated_mean() == pytest.approx([0.0], abs=1e-15)
    assert jm.total_rate == pytest.approx(0.7)
    assert jm.m == 3


def test_empty_jump_measure():
    jm = JumpMeasure.empty(2)
    assert jm.m == 0
    assert jm.dimension == 2
    assert np.array_equal(jm.truncated_mean(), [0.0, 0.0])


def test_triplet_clamps_tiny_negative_eigenvalues():
    c = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-13]])
    t = LevyTriplet(np.zeros(2), c, JumpMeasure.empty(2))
    # reconstruction leaves at most machine-epsilon negativity
    assert np.linalg.eigvalsh(t.c).min() >= -1e-15
    assert validate_triplet(t) == []


def test_triplet_clamps_as_one_matrix_at_a_time():
    clamped = 0
    for draw in range(100):
        rng = np.random.default_rng(draw)
        d = int(rng.integers(2, 5))
        a = rng.uniform(-0.3, 0.3, (d, d - 1))
        c = a @ a.T
        t = LevyTriplet(np.zeros(d), c, JumpMeasure.empty(d))
        assert t.c.tobytes() == clamped_matrix(c).tobytes()
        clamped += not np.array_equal(t.c, c)
    assert clamped


def test_triplet_refuses_arrays_of_another_dimension():
    with pytest.raises(ValueError, match="shape"):
        LevyTriplet(np.zeros(1), np.eye(2), JumpMeasure.empty(1))
    with pytest.raises(ValueError, match="jump locations"):
        LevyTriplet(np.zeros(1), np.eye(1), JumpMeasure.from_atoms([(0.1, (0.5, 0.5))]))


def test_triplet_arrays_are_readonly():
    t = make_triplet()
    with pytest.raises(ValueError):
        t.b[0] = 1.0
    with pytest.raises(ValueError):
        t.c[0, 0] = 1.0


def test_validate_triplet_reports_each_violation():
    bad_c = LevyTriplet(np.zeros(1), np.array([[-1.0]]), JumpMeasure.empty(1))
    msgs = validate_triplet(bad_c)
    assert any("not PSD" in m for m in msgs)

    origin_atom = LevyTriplet(np.zeros(1), np.array([[0.01]]),
                              JumpMeasure(np.array([0.1]), np.array([[0.0]])))
    assert any("origin" in m for m in validate_triplet(origin_atom))
    # only an exact zero is at the origin, not an atom whose norm underflows
    at_origin = ["jump atom at the origin is not allowed"]
    for locations, msgs in ((((1e-170,),), []), (((1e-170, 0.0), (-0.5, 0.3)), []),
                            (((0.0, -0.0), (-0.5, 0.3)), at_origin)):
        d = len(locations[0])
        atoms = JumpMeasure.from_atoms([(0.1, z) for z in locations])
        assert validate_triplet(LevyTriplet(np.zeros(d), 0.01 * np.eye(d), atoms)) == msgs

    bad_rate = LevyTriplet(np.zeros(1), np.array([[0.01]]),
                           JumpMeasure(np.array([-0.1]), np.array([[1.0]])))
    assert any("strictly positive" in m for m in validate_triplet(bad_rate))

    asym = LevyTriplet(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                       JumpMeasure.empty(2))
    assert any("symmetric" in m for m in validate_triplet(asym))

    assert validate_triplet(make_triplet()) == []


def test_symmetry_tolerance_is_entrywise_and_refuses_infinities():
    def triplet(c):
        return LevyTriplet(np.zeros(2), np.array(c), JumpMeasure.empty(2))

    assert validate_triplet(triplet([[1.0, 0.5 + 0.9e-9], [0.5, 1.0]])) == []
    assert any("symmetric" in m
               for m in validate_triplet(triplet([[1.0, 0.5 + 1.1e-9], [0.5, 1.0]])))
    # equal infinities are "close" to np.allclose; the entries are still refused
    assert validate_triplet(triplet([[1.0, np.inf], [np.inf, 1.0]])) == [
        "diffusion matrix has non-finite entries"]


def test_uncertainty_set_mix_merges_duplicate_atoms():
    t1 = make_triplet(b=0.1, c=0.04, atoms=((0.2, (1.0,)),))
    t2 = make_triplet(b=0.3, c=0.08, atoms=((0.4, (1.0,)), (0.6, (-0.5,))))
    mixed = UncertaintySet((t1, t2)).mix([0.25, 0.75])
    assert mixed.b == pytest.approx([0.25 * 0.1 + 0.75 * 0.3])
    assert mixed.c[0] == pytest.approx([0.25 * 0.04 + 0.75 * 0.08])
    rates = {float(z): float(r) for r, z in zip(mixed.jumps.rates,
                                                mixed.jumps.locations[:, 0])}
    assert rates[1.0] == pytest.approx(0.25 * 0.2 + 0.75 * 0.4)
    assert rates[-0.5] == pytest.approx(0.75 * 0.6)


def test_mix_drops_zero_weight_vertices():
    t1 = make_triplet(atoms=((0.2, (1.0,)),))
    t2 = make_triplet(atoms=((0.4, (-0.5,)),))
    mixed = UncertaintySet((t1, t2)).mix([1.0, 0.0])
    assert mixed.jumps.m == 1
    assert mixed.jumps.locations[0, 0] == 1.0


def test_mix_rejects_bad_weights():
    theta = UncertaintySet((make_triplet(), make_triplet(b=0.2)))
    with pytest.raises(ValueError):
        theta.mix([0.5])
    with pytest.raises(ValueError):
        theta.mix([-0.5, 1.5])
    with pytest.raises(ValueError):
        theta.mix([0.0, 0.0])
    for bad in ([np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            theta.mix(bad)


def test_mix_of_two_triplets():
    t1, t2 = make_triplet(b=0.0), make_triplet(b=1.0)
    assert UncertaintySet((t1, t2)).mix([0.25, 0.75]).b == pytest.approx([0.75])


def test_atom_locations_are_distinct():
    t1 = make_triplet(atoms=((0.2, (1.0,)),))
    t2 = make_triplet(atoms=((0.4, (1.0,)), (0.1, (-0.5,))))
    locs = UncertaintySet((t1, t2)).atom_locations()
    assert sorted(locs[:, 0]) == [-0.5, 1.0]


def test_utility_spec_validation():
    assert UtilitySpec.log_utility().is_log
    assert UtilitySpec.power_utility(0.5).p == 0.5
    with pytest.raises(ValueError):
        UtilitySpec("log", 0.3)
    with pytest.raises(ValueError):
        UtilitySpec.power_utility(0.0)
    with pytest.raises(ValueError):
        UtilitySpec.power_utility(1.2)
    # p (1 + epsilon) must stay below 1
    with pytest.raises(ValueError):
        UtilitySpec.power_utility(0.99, epsilon=0.02)
    assert UtilitySpec.power_utility(-3.0).p == -3.0


def test_characteristics_bound_log_weight():
    t = make_triplet(b=0.12, c=0.04, atoms=((0.03, (1.0,)),))
    theta = UncertaintySet((t,))
    expected = 0.12 + 0.04 + 0.03 * min(1.0, math.log(2.0))
    assert characteristics_bound(theta, UtilitySpec.log_utility()) == pytest.approx(expected)


def test_characteristics_bound_power_weights():
    t = make_triplet(b=0.1, c=0.02, atoms=((0.5, (2.0,)),))
    theta = UncertaintySet((t,))
    # 0 < p < 1: weight |z|^(p (1 + eps)), well below |z|^2 = 4 here
    u = UtilitySpec.power_utility(0.5, epsilon=0.01)
    expected = 0.1 + 0.02 + 0.5 * 2.0 ** (0.5 * 1.01)
    assert characteristics_bound(theta, u) == pytest.approx(expected)
    # p < 0: weight 1
    u_neg = UtilitySpec.power_utility(-1.0)
    assert characteristics_bound(theta, u_neg) == pytest.approx(0.1 + 0.02 + 0.5)


def test_characteristics_bound_maximizes_over_vertices():
    small = make_triplet(b=0.01, c=0.01, atoms=())
    large = make_triplet(b=0.5, c=0.2, atoms=())
    theta = UncertaintySet((small, large))
    assert characteristics_bound(theta, UtilitySpec.log_utility()) == pytest.approx(0.7)


def test_polyhedron_box_and_contains():
    poly = Polyhedron.box([(-1.0, 2.0), (0.0, 1.0)])
    assert poly.m == 4
    assert poly.contains(np.array([0.0, 0.5]))
    assert poly.contains(np.array([2.0, 1.0]))
    assert not poly.contains(np.array([2.1, 0.5]))


def test_polyhedron_halfopen_box():
    poly = Polyhedron.box([(0.0, None)])
    assert poly.m == 1
    assert poly.contains(np.array([100.0]))
    assert not poly.contains(np.array([-0.1]))


def test_polyhedron_intersect_dedupes_exact_rows():
    a = Polyhedron.box([(0.0, 1.0)])
    merged = a.intersect(Polyhedron.box([(0.0, 1.0)]))
    assert merged.m == 2


def test_natural_constraints_offsets():
    theta = UncertaintySet((make_triplet(atoms=((0.1, (1.0,)), (0.2, (-0.5,)))),))
    c0 = natural_constraints(theta)
    assert c0.m == 2
    assert np.all(c0.offsets == 1.0)
    # tightened version shifts every offset to 1 - 1/n
    c0n = natural_constraints(theta, n=4)
    assert np.all(c0n.offsets == 0.75)
    # y z > -1 required: y = 1.9 ok against z = -0.5, y = 2.1 not
    assert c0.contains(np.array([1.9]))
    assert not c0.contains(np.array([2.1]))


def test_natural_constraints_without_atoms_is_whole_space():
    theta = UncertaintySet((make_triplet(atoms=()),))
    assert natural_constraints(theta).m == 0


def test_natural_constraints_nesting():
    theta = UncertaintySet((make_triplet(atoms=((0.1, (1.0,)), (0.2, (-0.5,)))),))
    rng = np.random.default_rng(5)
    inner = natural_constraints(theta, n=4)
    outer = natural_constraints(theta, n=64)
    for _ in range(200):
        y = rng.uniform(-3.0, 3.0, 1)
        if inner.contains(y):
            assert outer.contains(y)


def test_bounding_box_recovers_bounds():
    lo, hi = bounding_box(Polyhedron.box([(-1.0, 2.0), (0.0, 0.5)]))
    assert lo == pytest.approx([-1.0, 0.0])
    assert hi == pytest.approx([2.0, 0.5])


def test_bounding_box_unbounded_sides():
    lo, hi = bounding_box(Polyhedron.box([(0.0, None)]))
    assert lo[0] == 0.0
    assert hi[0] == math.inf
    lo, hi = bounding_box(Polyhedron.whole_space(2))
    assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))


def test_bounding_box_infeasible():
    empty = Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    with pytest.raises(InfeasibleError):
        bounding_box(empty)


def per_side_box(poly):
    """Reference bounding box: one LP per side, as in the plain definition."""
    d = poly.dimension
    lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
    for i in range(d):
        for sign in (1.0, -1.0):
            res = linprog(sign * np.eye(d)[i], A_ub=poly.normals, b_ub=poly.offsets,
                          bounds=(None, None), method="highs")
            if res.status == 2:
                raise InfeasibleError("empty")
            assert res.status in (0, 3), res.message
            if res.status == 0:
                if sign > 0:
                    lo[i] = res.fun
                else:
                    hi[i] = -res.fun
    return lo, hi


@st.composite
def shaped_halfspaces(draw):
    """(shape, polyhedron, coordinate): a box on every coordinate with one side
    open, a strip on one coordinate, an empty set, a bounded box, or a
    simplex (lower bounds and one positive row, so that only certificates
    bound it above), each with extra rows that keep that shape."""
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["bounded", "open_side", "strip", "empty", "simplex"]))
    k = draw(st.integers(0, d - 1))
    radius = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    normals, offsets = [], []
    for i in range(d):
        if shape == "strip" and i != k:
            continue
        normals += [np.eye(d)[i], -np.eye(d)[i]]
        offsets += [radius[i], radius[i]]
    if shape == "open_side":
        del normals[2 * k], offsets[2 * k]
    if shape == "empty":
        normals.append(np.eye(d)[k])
        offsets.append(-radius[k] - 1)
    if shape == "simplex":
        del normals[::2], offsets[::2]
        normals.append(np.array(draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)), float))
        offsets.append(draw(st.integers(0, 4)))
    for _ in range(draw(st.integers(0, 4))):
        row = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), float)
        if shape == "open_side":
            row[k] = -abs(row[k])
        if shape == "strip":
            row = row[k] * np.eye(d)[k]
        normals.append(row)
        offsets.append(draw(st.integers(0, 4)))
    return shape, Polyhedron(np.array(normals), np.array(offsets, float)), k


@seed(20240517)
@settings(max_examples=80, deadline=None, database=None)
@given(shaped_halfspaces())
def test_bounding_box_matches_the_per_side_lps(case):
    shape, poly, k = case
    if shape == "empty":
        with pytest.raises(InfeasibleError):
            per_side_box(poly)
        with pytest.raises(InfeasibleError):
            bounding_box(poly)
        return
    lo, hi = bounding_box(poly)
    ref_lo, ref_hi = per_side_box(poly)
    # the box encloses the polyhedron; it need not be tight
    assert np.all(lo <= ref_lo) and np.all(hi >= ref_hi)
    open_lo, open_hi = np.zeros(poly.dimension, bool), np.zeros(poly.dimension, bool)
    if shape == "open_side":
        open_hi[k] = True
    if shape == "strip":
        open_lo[:] = open_hi[:] = True
        open_lo[k] = open_hi[k] = False
    assert np.array_equal(np.isinf(lo), open_lo)
    assert np.array_equal(np.isinf(hi), open_hi)


@pytest.fixture
def nnls_calls(monkeypatch):
    """One entry per NNLS that rlp.levy runs during the test."""
    import rlp.levy

    calls = []

    def counted(*args, _nnls=rlp.levy.nnls, **kwargs):
        calls.append(args)
        return _nnls(*args, **kwargs)

    monkeypatch.setattr(rlp.levy, "nnls", counted)
    return calls


@pytest.mark.parametrize("poly, lo, hi", [
    # a box cut by rows that hold on all of it
    (Polyhedron.box([(-1.0, 2.0), (0.0, 0.5)]).intersect(
        Polyhedron(np.array([[1.0, 1.0], [-1.0, 3.0]]), np.array([2.5, 2.5]))),
     [-1.0, 0.0], [2.0, 0.5]),
    # one dimension with an open side: every row is axis-aligned
    (Polyhedron(np.array([[-1.0], [-2.0]]), np.array([0.0, 3.0])), [0.0], [math.inf]),
], ids=["redundant-rows", "half-line"])
def test_bounding_box_is_closed_form_when_axis_rows_decide_it(nnls_calls, poly, lo, hi):
    got_lo, got_hi = bounding_box(poly)
    assert nnls_calls == []
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)


def test_crossed_axis_rows_are_empty_without_an_lp(nnls_calls):
    crossed = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0]]),
                         np.array([0.0, -1.0, 4.0]))
    with pytest.raises(InfeasibleError):
        bounding_box(crossed)
    assert nnls_calls == []


SIMPLEX = Polyhedron(np.vstack([-np.eye(3), np.ones((1, 3))]), np.array([0.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("poly, certified", [
    # a box cut by a diagonal row
    (Polyhedron.box([(0.0, 1.0), (0.0, 1.0)]).intersect(
        Polyhedron(np.array([[1.0, 1.0]]), np.array([1.5]))), False),
    # the simplex {y >= 0, sum y <= 1}
    (SIMPLEX, True),
], ids=["diagonal-cut", "simplex"])
def test_bounding_box_runs_one_lp_when_a_row_cuts_the_box(nnls_calls, poly, certified):
    lo, hi = bounding_box(poly)
    ref_lo, ref_hi = per_side_box(poly)
    if certified:
        # one certificate per side, each within rounding of the tight side
        assert len(nnls_calls) == 2 * poly.dimension
        np.testing.assert_allclose(lo, ref_lo, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(hi, ref_hi, rtol=1e-12, atol=1e-12)
        assert np.all(lo <= ref_lo) and np.all(hi >= ref_hi)
    else:
        # a finite axis box is returned as it is, the cut row ignored
        assert nnls_calls == []
        assert np.array_equal(lo, [0.0, 0.0]) and np.array_equal(hi, [1.0, 1.0])


@pytest.mark.parametrize("offset", [0.5, -1.0])
def test_a_row_of_zeros_holds_everywhere_or_nowhere(offset):
    zero_row = Polyhedron(np.zeros((1, 3)), np.array([offset]))
    cut = SIMPLEX.intersect(zero_row)
    if offset < 0.0:
        with pytest.raises(InfeasibleError):
            bounding_box(cut)
        return
    lo, hi = bounding_box(cut)
    ref_lo, ref_hi = bounding_box(SIMPLEX)
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)


def test_effective_domain_merges_natural_constraints():
    theta = UncertaintySet((make_triplet(atoms=((0.1, (1.0,)),)),))
    merged, compact = effective_domain(Polyhedron.box([(-5.0, 5.0)]), theta)
    assert compact
    lo, hi = bounding_box(merged)
    # the atom at z = 1 forbids y < -1
    assert lo == pytest.approx([-1.0])
    assert hi == pytest.approx([5.0])


def test_effective_domain_not_compact_without_bounds():
    theta = UncertaintySet((make_triplet(atoms=()),))
    _, compact = effective_domain(Polyhedron.whole_space(1), theta)
    assert not compact


def test_effective_domain_requires_the_origin():
    theta = UncertaintySet((make_triplet(),))
    keep_out = Polyhedron(np.array([[-1.0]]), np.array([-0.5]))  # y >= 0.5
    with pytest.raises(OriginExcludedError):
        effective_domain(keep_out, theta)


def test_compile_box_enumerates_corners():
    box = dict(
        b_intervals=np.array([[0.10, 0.12]]),
        c_scale=(0.03, 0.04),
        c_base=np.array([[1.0]]),
        atom_locations=np.array([[1.0]]),
        rate_intervals=np.array([[0.02, 0.03]]),
    )
    theta = compile_box_to_vertices(**box)
    assert len(theta.vertices) == 8
    seen = {(float(v.b[0]), float(v.c[0, 0]), float(v.jumps.rates[0]))
            for v in theta.vertices}
    assert (0.10, 0.04, 0.03) in seen
    assert (0.12, 0.03, 0.02) in seen


def test_compile_box_degenerate_intervals_collapse():
    box = dict(
        b_intervals=np.array([[0.1, 0.1]]),
        c_scale=(0.04, 0.04),
        c_base=np.array([[1.0]]),
        atom_locations=np.zeros((0, 1)),
        rate_intervals=np.zeros((0, 2)),
    )
    assert len(compile_box_to_vertices(**box).vertices) == 1
    with pytest.raises(ValueError):
        compile_box_to_vertices(**{**box, "rate_intervals": np.zeros((1, 2))})


def test_compile_box_zero_rate_corner_drops_the_atom():
    box = dict(
        b_intervals=np.array([[0.1, 0.1]]),
        c_scale=(0.04, 0.04),
        c_base=np.array([[1.0]]),
        atom_locations=np.array([[0.5]]),
        rate_intervals=np.array([[0.0, 0.3]]),
    )
    theta = compile_box_to_vertices(**box)
    counts = sorted(v.jumps.m for v in theta.vertices)
    assert counts == [0, 1]


def test_compile_box_refuses_an_overflowing_diffusion_scale():
    box = dict(
        b_intervals=[[0.0, 0.1]],
        c_scale=[1.0, 1e308],
        c_base=np.array([[10.0]]),
        atom_locations=[],
        rate_intervals=[],
    )
    with pytest.raises(ModelError) as info:
        compile_box_to_vertices(**box)
    assert str(info.value) == ("vertex 1: diffusion matrix has non-finite entries; "
                               "vertex 3: diffusion matrix has non-finite entries")


def test_compile_box_vertex_cap():
    box = dict(
        b_intervals=np.tile([0.0, 0.1], (13, 1)),
        c_scale=(1.0, 1.0),
        c_base=np.eye(13),
        atom_locations=np.zeros((0, 13)),
        rate_intervals=np.zeros((0, 2)),
    )
    with pytest.raises(TooManyVerticesError):
        compile_box_to_vertices(**box)


def test_discretize_density_midpoint_rule():
    jm = discretize_density(lambda z: 2.0, (0.5, 1.5), 4)
    assert jm.m == 4
    assert jm.locations[:, 0] == pytest.approx([0.625, 0.875, 1.125, 1.375])
    assert jm.rates == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert jm.total_rate == pytest.approx(2.0)


def test_discretize_density_drops_zero_cells():
    jm = discretize_density(lambda z: max(z - 1.0, 0.0), (0.5, 1.5), 4)
    assert jm.m == 2
    assert np.all(jm.locations[:, 0] > 1.0)


def test_discretize_density_rejects_support_with_origin():
    with pytest.raises(SupportContainsZeroError):
        discretize_density(lambda z: 1.0, (-0.5, 0.5), 4)


def test_the_atom_table_merges_atoms_as_np_unique_does():
    merged = negative_zero = 0
    for draw in range(300):
        rng = np.random.default_rng(draw)
        vertices = pooled_vertices(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        theta = UncertaintySet(vertices)
        locations, rates = unique_atom_table(vertices)
        assert theta.locations.shape == locations.shape
        assert theta.locations.tobytes() == locations.tobytes()
        assert theta.rates.shape == rates.shape and theta.rates.tobytes() == rates.tobytes()
        listed = np.concatenate([v.jumps.locations for v in vertices])
        merged += len(listed) > len(locations)
        negative_zero += bool(np.any((listed == 0.0) & np.signbit(listed)))
    assert merged and negative_zero
