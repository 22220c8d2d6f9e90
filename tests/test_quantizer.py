"""Quantizer construction, information, and output-level optimization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

from adaptquant.noise import STANDARD_SHAPES, Family, NoiseModel, gg, st
from adaptquant.quantizer import (
    MAX_NBITS,
    MIN_INTERVAL_MASS,
    TABLE_KEYS,
    DesignError,
    QuantizerSpec,
    build_design,
    design_uniform,
    fisher_quantized,
    interval_stats,
    load_design,
    mean_field,
    mean_field_slope,
    optimal_levels,
    optimize_cdelta,
    quantize,
    save_design,
)


def test_spec_validation():
    assert QuantizerSpec((), 1.0).n_intervals == 2
    with pytest.raises(ValueError, match="power of two"):
        QuantizerSpec((1.0, 2.0), 1.0)  # six intervals
    for n in (3, 6, 12):  # log2 would label 6 and 12 as 3 and 4 bits
        with pytest.raises(ValueError, match="power of two"):
            QuantizerSpec.uniform(n, 1.0)
    for tau in [(2.0, 1.0, 3.0),                  # not increasing
                (1.0, 1.0, 3.0),                  # repeated
                (0.0,), (-1.0,),                  # not positive
                (math.nan,), (math.inf,),         # not finite
                (1.0, math.nan, 3.0), (1.0, 2.0, math.inf)]:
        with pytest.raises(ValueError, match="finite, positive and strictly increasing"):
            QuantizerSpec(tau, 1.0)
    for c_delta in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_delta"):
            QuantizerSpec((), c_delta)


def test_spec_refuses_more_than_max_nbits():
    n = 2 ** (MAX_NBITS + 1)
    with pytest.raises(ValueError, match="MAX_NBITS"):
        QuantizerSpec.uniform(n, 1.0)
    with pytest.raises(ValueError, match="MAX_NBITS"):
        QuantizerSpec(tuple(range(1, n // 2)), 1.0)
    with pytest.raises(ValueError, match="MAX_NBITS"):
        optimize_cdelta(gg(2.0), n)
    assert QuantizerSpec.uniform(2 ** MAX_NBITS, 1.0).nbits == MAX_NBITS


def test_uniform_constructor():
    s = QuantizerSpec.uniform(8, 0.5)
    assert s == QuantizerSpec((1.0, 2.0, 3.0), 0.5)
    assert s.n_intervals == 8
    assert s.nbits == 3
    one_bit = QuantizerSpec.uniform(2, 2.0)
    assert one_bit.tau == ()
    assert (one_bit.n_intervals, one_bit.nbits) == (2, 1)


def test_quantize_symbols():
    spec = QuantizerSpec.uniform(4, 1.0)  # one finite threshold at the step
    expected = {-2.5: -2, -0.5: -1, 0.0: 1, 0.5: 1, 2.5: 2}
    for y, sym in expected.items():
        assert quantize(y, 0.0, spec, 1.0) == sym
    # offset shifts the cells
    assert quantize(0.5, 10.0, spec, 1.0) == -2
    assert quantize(10.2, 10.0, spec, 1.0) == 1


def spec_stats(model, spec):
    """interval_stats at the absolute edges of ``spec``, as build_design forms them."""
    return interval_stats(model, np.asarray(spec.tau) * (spec.c_delta * model.delta))


def test_interval_stats_anchor_gg2_two_bits():
    """Per-interval masses and density drops for the Gaussian-type noise."""
    m = gg(2.0)
    spec = QuantizerSpec.uniform(4, 1.0)
    probs, drops = spec_stats(m, spec)
    np.testing.assert_allclose(probs, [0.42135039647485745, 0.07864960352514256],
                               rtol=1e-10)
    np.testing.assert_allclose(drops, [0.35663586, 0.20755375], rtol=1e-6)


@pytest.mark.parametrize("family,beta", [("gg", 1.5), ("gg", 2.0), ("st", 1.0),
                                         ("st", 3.0)])
@pytest.mark.parametrize("nbits", [1, 2, 3])
def test_interval_stats_against_quadrature(family, beta, nbits):
    m = gg(beta) if family == "gg" else st(beta)
    spec = QuantizerSpec.uniform(2 ** nbits, 0.7)
    probs, drops = spec_stats(m, spec)
    step = spec.c_delta * m.delta
    edges = [0.0] + [t * step for t in spec.tau] + [math.inf]
    for i in range(spec.n_intervals // 2):
        mass = quad(m.pdf, edges[i], edges[i + 1], limit=200)[0]
        assert probs[i] == pytest.approx(mass, rel=1e-7)
        hi = 0.0 if math.isinf(edges[i + 1]) else m.pdf(edges[i + 1])
        assert drops[i] == pytest.approx(m.pdf(edges[i]) - hi, rel=1e-10)
    assert probs.sum() == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("family,beta", [("gg", 2.0), ("gg", 1.5), ("st", 3.0)])
@pytest.mark.parametrize("n_edges", [0, 1, 4])
def test_interval_stats_rows_equal_single_designs(family, beta, n_edges):
    """A matrix of non-uniform edge rows gives, row for row, the bits of the
    one-design call; a degenerate row is returned, and only the guards raise."""
    m = NoiseModel(family, beta, 0.7)
    rng = np.random.default_rng(40 + n_edges)
    rows = np.sort(rng.uniform(0.05, 6.0, (5, n_edges)), axis=1)
    rows[-1] *= 1e120  # outer cell mass far below MIN_INTERVAL_MASS
    probs, drops = interval_stats(m, rows)
    assert probs.shape == drops.shape == (5, n_edges + 1)
    for row, p, d in zip(rows, probs, drops):
        one_p, one_d = interval_stats(m, row)
        assert one_p.shape == one_d.shape == (n_edges + 1,)
        np.testing.assert_array_equal(p, one_p)
        np.testing.assert_array_equal(d, one_d)
    if n_edges:
        assert probs[-1, -1] < MIN_INTERVAL_MASS
        with pytest.raises(DesignError):
            optimal_levels(probs[-1], drops[-1])
        with pytest.raises(DesignError):
            fisher_quantized(probs, drops)
    np.testing.assert_array_equal(fisher_quantized(probs[:-1], drops[:-1]),
                                  [fisher_quantized(p, d)
                                   for p, d in zip(probs[:-1], drops[:-1])])


def test_one_bit_gaussian_information():
    m = gg(2.0)
    spec = QuantizerSpec.uniform(2, 1.0)
    probs, drops = spec_stats(m, spec)
    info = fisher_quantized(probs, drops)
    assert info == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert m.fisher_continuous() / info == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_optimal_levels_anchor():
    m = gg(2.0)
    spec = QuantizerSpec.uniform(4, 1.0)
    probs, drops = spec_stats(m, spec)
    levels = optimal_levels(probs, drops)
    np.testing.assert_allclose(levels, [0.84641, 2.63897], rtol=1e-5)
    # quantized information never exceeds the unquantized value
    assert fisher_quantized(probs, drops) < m.fisher_continuous()


@pytest.mark.parametrize("family,beta", [("gg", 1.5), ("gg", 2.0), ("gg", 3.0),
                                         ("st", 1.0), ("st", 2.0)])
def test_information_increases_with_resolution(family, beta):
    m = gg(beta) if family == "gg" else st(beta)
    infos = []
    for nbits in range(1, 6):
        _, design = optimize_cdelta(m, 2 ** nbits)
        infos.append(design.info)
    assert np.all(np.diff(infos) > -1e-12)
    assert infos[-1] <= m.fisher_continuous() + 1e-12


def test_laplace_information_flat_in_step():
    """For the double-exponential noise the quantized information is exactly
    the continuous value regardless of the step size."""
    m = gg(1.0)
    vals = []
    for c in [0.05, 0.5, 1.0, 3.0]:
        spec = QuantizerSpec.uniform(4, c)
        probs, drops = spec_stats(m, spec)
        vals.append(fisher_quantized(probs, drops))
    np.testing.assert_allclose(vals, 1.0, rtol=1e-12)
    c, design = optimize_cdelta(m, 4)
    assert c == 0.01  # flat profile resolves to the smallest grid point
    assert design.info == pytest.approx(1.0, rel=1e-12)


def test_optimize_cdelta_gauss_two_bits():
    m = gg(2.0)
    c, design = optimize_cdelta(m, 4)
    info = design.info
    # interior optimum: neighbors on the grid are no better
    for other in [c - 0.01, c + 0.01]:
        spec = QuantizerSpec.uniform(4, other)
        probs, drops = spec_stats(m, spec)
        assert fisher_quantized(probs, drops) <= info + 1e-15
    assert 0.01 < c < 10.0


def reference_search(model, n_intervals, grid):
    """The search as a loop: one interval_stats call per grid point.

    Returns (c_delta, info at each valid point, the degenerate points).
    """
    lo, hi, step = grid
    infos, degenerate = {}, set()
    for c in np.round(np.arange(lo, hi + step / 2, step), 12):
        probs, drops = spec_stats(model, QuantizerSpec.uniform(n_intervals, float(c)))
        if np.any(probs < MIN_INTERVAL_MASS):
            degenerate.add(float(c))
            continue
        infos[float(c)] = fisher_quantized(probs, drops)
    best = max(infos, key=infos.get)  # the first maximum
    if infos[best] - min(infos.values()) <= 1e-12 * max(1.0, infos[best]):
        best = next(iter(infos))  # flat profile: the smallest valid point
    return best, infos, degenerate


def assert_search_matches_loop(model, n_intervals, grid):
    c, design = optimize_cdelta(model, n_intervals, grid)
    ref_c, ref_infos, ref_degenerate = reference_search(model, n_intervals, grid)
    assert c == ref_c
    assert design.info == pytest.approx(ref_infos[ref_c], rel=1e-13)
    values = np.round(np.arange(grid[0], grid[1] + grid[2] / 2, grid[2]), 12)
    tau = np.asarray(QuantizerSpec.uniform(n_intervals, 1.0).tau)
    probs, drops = interval_stats(model, tau * (values * model.delta)[:, None])
    degenerate = np.any(probs < MIN_INTERVAL_MASS, axis=1)
    assert set(values[degenerate].tolist()) == ref_degenerate
    np.testing.assert_allclose(fisher_quantized(probs[~degenerate], drops[~degenerate]),
                               list(ref_infos.values()), rtol=1e-13)
    return ref_degenerate


@pytest.mark.parametrize("family,beta", STANDARD_SHAPES)
@pytest.mark.parametrize("nbits", [1, 2, 3, 4, 5])
def test_batched_search_matches_point_loop(family, beta, nbits):
    assert_search_matches_loop(NoiseModel(family, beta), 2 ** nbits, (0.05, 10.0, 0.05))


@pytest.mark.parametrize("nbits", [2, 3])
def test_batched_search_flat_laplace_profile(nbits):
    assert_search_matches_loop(gg(1.0), 2 ** nbits, (0.05, 10.0, 0.05))
    assert optimize_cdelta(gg(1.0), 2 ** nbits, (0.05, 10.0, 0.05))[0] == 0.05


def test_batched_search_degenerate_upper_end():
    # the outer cell of a 3-bit GG beta=2 design has no mass beyond c ~ 8.8
    degenerate = assert_search_matches_loop(gg(2.0), 8, (0.5, 30.0, 0.5))
    assert degenerate == {c / 2.0 for c in range(18, 61)}
    with pytest.raises(DesignError):
        optimize_cdelta(gg(2.0), 8, (10.0, 30.0, 0.5))


def assert_search_design_is_built_design(model, n_intervals):
    """The search's design is, bit for bit, the design built from the spec
    it names (the one ``simulate`` builds), and its arrays own their data."""
    c_delta, design = optimize_cdelta(model, n_intervals)
    built = build_design(model, QuantizerSpec.uniform(n_intervals, c_delta))
    for name in ("probs", "drops", "levels", "thresholds"):
        array = getattr(design, name)
        assert np.array_equal(array, getattr(built, name)), name
        assert array.base is None and array.flags.owndata, name
    assert design.info == built.info


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from(Family), hs.floats(0.5, 10.0), hs.floats(0.1, 10.0),
       hs.integers(1, 5))
def test_search_design_is_the_built_design(family, beta, delta, nbits):
    assert_search_design_is_built_design(NoiseModel(family, beta, delta), 2 ** nbits)


def test_search_value_is_the_design_value():
    for family, beta in STANDARD_SHAPES:
        m = NoiseModel(family, beta)
        assert_search_design_is_built_design(m, 8)
        spec, design = design_uniform(m, 8)
        c_delta, searched = optimize_cdelta(m, 8)
        assert spec == QuantizerSpec.uniform(8, c_delta)
        assert design.info == searched.info


def test_build_design_consistency():
    m = st(3.0)
    spec = QuantizerSpec.uniform(4, 0.8)
    d = build_design(m, spec)
    probs, drops = spec_stats(m, spec)
    np.testing.assert_allclose(d.probs, probs)
    np.testing.assert_allclose(d.levels, drops / probs)
    assert d.info == pytest.approx(fisher_quantized(probs, drops), rel=1e-14)
    assert d.thresholds.tolist() == [0.8 * m.delta]


def test_design_uniform_picks_optimum():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    c_best, best = optimize_cdelta(m, 4)
    assert spec.c_delta == c_best
    assert design.info == pytest.approx(best.info, rel=1e-14)


def test_design_error_for_degenerate_intervals():
    # with a huge step the outer interval mass underflows to zero
    with pytest.raises(DesignError):
        build_design(gg(2.0), QuantizerSpec.uniform(8, 30.0))


def test_design_roundtrip(tmp_path):
    m = gg(2.5)
    spec, design = design_uniform(m, 8)
    path = tmp_path / "design.txt"
    save_design(path, m, spec, design)
    m2, spec2, design2 = load_design(path)
    assert m2 == m
    assert spec2 == spec
    np.testing.assert_array_equal(design2.levels, design.levels)
    np.testing.assert_allclose(design2.probs, design.probs, rtol=1e-14)
    assert design2.info == design.info
    np.testing.assert_array_equal(design2.thresholds, design.thresholds)


def edited_table(path, **changes):
    """The saved design table at ``path`` with some values replaced."""
    lines = []
    for line in path.read_text().splitlines():
        key = line.partition("=")[0].strip()
        lines.append(f"{key} = {changes[key]}" if key in changes else line)
    out = path.with_name("edited.txt")
    out.write_text("\n".join(lines) + "\n")
    return out


def test_load_design_rejects_levels_and_info_off_the_geometry(tmp_path):
    m = gg(2.0)
    spec, design = design_uniform(m, 8)
    path = tmp_path / "design.txt"
    save_design(path, m, spec, design)
    eta = [repr(float(v)) for v in design.levels]
    for key, value in [
        ("eta", ",".join(["nan"] + eta[1:])),
        ("eta", ",".join(eta[:-1] + ["inf"])),
        ("eta", ",".join(eta[:-1])),                      # N/2 - 1 levels
        ("eta", ",".join(eta + eta[-1:])),                # N/2 + 1 levels
        ("eta", ",".join(eta[:-1] + [repr(float(design.levels[-1]) * (1 + 1e-6))])),
        ("iq", "123.0"),
        ("iq", "nan"),
        ("iq", repr(design.info * (1 + 1e-6))),
    ]:
        with pytest.raises(ValueError, match=key):
            load_design(edited_table(path, **{key: value}))
    # within 1e-9 of the recomputed design loads, with the table's values
    _, _, loaded = load_design(edited_table(path, iq=repr(design.info * (1 + 1e-12))))
    assert loaded.info == design.info * (1 + 1e-12)


def test_load_design_names_a_missing_key(tmp_path):
    m = gg(2.0)
    spec, design = design_uniform(m, 8)
    path = tmp_path / "design.txt"
    save_design(path, m, spec, design)
    lines = path.read_text().splitlines()
    assert tuple(ln.partition(" =")[0] for ln in lines) == TABLE_KEYS
    for key in TABLE_KEYS:
        path.with_name("edited.txt").write_text(
            "\n".join(ln for ln in lines if not ln.startswith(f"{key} =")) + "\n")
        with pytest.raises(ValueError, match=f"design table lacks {key}$"):
            load_design(path.with_name("edited.txt"))


def test_load_design_rejects_a_geometry_it_cannot_build(tmp_path):
    m = gg(2.0)
    spec, design = design_uniform(m, 8)
    path = tmp_path / "design.txt"
    save_design(path, m, spec, design)
    assert "tau = 1.0,2.0,3.0\n" in path.read_text()
    for tau in ("nan", "1.0,nan,3.0", "1.0,2.0,inf", "3.0,2.0,1.0"):
        with pytest.raises(ValueError, match="thresholds"):
            load_design(edited_table(path, tau=tau))
    for n in ("4", "16"):  # a power of two, but not 2 * 3 + 2
        with pytest.raises(ValueError, match="n_intervals"):
            load_design(edited_table(path, n_intervals=n))


def test_mean_field_properties():
    m = gg(2.0)
    spec, design = design_uniform(m, 4)
    # equilibrium at zero error, restoring force elsewhere
    assert mean_field(m, design, 0.0) == pytest.approx(0.0, abs=1e-14)
    for eps in [0.3, 1.0, 4.0]:
        assert mean_field(m, design, eps) < 0.0
        assert mean_field(m, design, -eps) > 0.0
    # slope at the origin from a symmetric difference
    h = 1e-6
    slope_fd = (mean_field(m, design, h)
                - mean_field(m, design, -h)) / (2.0 * h)
    assert mean_field_slope(design) == pytest.approx(slope_fd, rel=1e-4)


def mean_field_by_cdf_pairs(model, design, spec, eps):
    """The mean field as a sum over cells of cdf differences at both ends,
    with the edges rebuilt from ``spec`` and F(+-inf) taken as 1 and 0."""
    def cdf(x):
        return (1.0 if x > 0 else 0.0) if math.isinf(x) else model.cdf(x)

    edges = np.concatenate(([0.0], spec.tau, [math.inf])) * (spec.c_delta * model.delta)
    total = 0.0
    for i, level in enumerate(design.levels):
        lo, hi = edges[i], edges[i + 1]
        pos = cdf(hi + eps) - cdf(lo + eps)
        neg = cdf(-lo + eps) - cdf(-hi + eps)
        total += level * (pos - neg)
    return total


@pytest.mark.parametrize("nbits", [1, 2, 3, 4, 5])
def test_mean_field_matches_cdf_pairs(nbits, cached_design):
    for family, beta in STANDARD_SHAPES:
        model, spec, design = cached_design(family, beta, nbits)
        for eps in np.linspace(-10.0, 10.0, 21).tolist() + [1e-3, -1e-3]:
            assert mean_field(model, design, eps) == pytest.approx(
                mean_field_by_cdf_pairs(model, design, spec, eps), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("nbits", [1, 2, 3, 4, 5])
def test_mean_field_evaluates_each_edge_once(nbits, cached_design, monkeypatch):
    model, _, design = cached_design(Family.ST, 2.0, nbits)
    points = []
    sf = NoiseModel.sf

    def counting_sf(self, x):
        points.append(x)
        return sf(self, x)

    monkeypatch.setattr(NoiseModel, "sf", counting_sf)
    for eps in [0.37, -1.2, 0.0]:
        points.clear()
        mean_field(model, design, eps)
        # sf at eps and at eps +- each finite edge, every point once
        assert len(points) == 2 * (2**nbits // 2) - 1
        assert len(set(points)) == len(points)
