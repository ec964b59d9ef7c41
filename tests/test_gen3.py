import math
import random

import caches
import numpy as np
import pytest
import station_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from qpc_reference import enumerate_decode

from qrcost import gen3, optimize
from qrcost.core import Gen3Config, HardwareParams, ordered_sum
from qrcost.keyrate import average_qber, secure_fraction


def _one_code_batch(n, m, mu, eps_q):
    """(ratio_z, ratio_x, p_unknown, ok) of one code at one transmissivity:
    the one row of its one-code batch, as gen3.evaluate computes it."""
    return tuple(a.item() for a in gen3.station_outcome((n,), (m,), (mu,), eps_q))


def test_transmissivity():
    assert math.isclose(gen3.transmissivity(0.95, 1.0, 20.0), 0.9036679532756783, rel_tol=1e-15)
    assert gen3.transmissivity(1.0, 0.0, 20.0) == 1.0
    with pytest.raises(ValueError):
        gen3.transmissivity(1.1, 1.0, 20.0)
    with pytest.raises(ValueError):
        gen3.transmissivity(0.9, -1.0, 20.0)
    with pytest.raises(ValueError):
        gen3.transmissivity(0.9, 1.0, 0.0)


def test_photon_error_rate():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    assert math.isclose(gen3.photon_error_rate(params), 7.5e-4, rel_tol=1e-12)
    params = HardwareParams(eta_c=0.9, eps_g=2e-3, xi=1e-4, eps_d=3e-4, t0=1e-6)
    assert math.isclose(gen3.photon_error_rate(params), 3e-4 + 1e-3 + 1e-4, rel_tol=1e-12)


def test_decode_probs_match_enumeration():
    # exhaustive enumeration over photon loss/flip patterns of small codes
    for n, m in [(2, 2), (3, 3), (4, 2), (2, 4), (5, 1), (1, 5)]:
        for mu, eps in [(0.9, 0.01), (0.8, 0.0), (0.99, 0.05)]:
            for basis in ("z", "x"):
                want = enumerate_decode(n, m, mu, eps, basis)
                got = gen3.decode_probs(n, m, mu, eps, basis)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (n, m, mu, eps, basis)


def test_decode_probs_sum_to_one():
    for n, m in [(2, 3), (3, 2), (4, 4), (7, 3)]:
        for mu in (0.6, 0.85, 0.999):
            for basis in ("z", "x"):
                pc, pi, pu = gen3.decode_probs(n, m, mu, 0.02, basis)
                assert 0.0 <= pc <= 1.0 and 0.0 <= pi <= 1.0 and 0.0 <= pu <= 1.0
                assert math.isclose(pc + pi + pu, 1.0, rel_tol=1e-12)


def test_decode_probs_invalid_basis():
    with pytest.raises(ValueError):
        gen3.decode_probs(3, 3, 0.9, 0.01, "y")


def test_unknown_probability_falls_with_transmission():
    for n, m in [(3, 3), (4, 4), (5, 2)]:
        last = None
        for mu in [0.55, 0.65, 0.75, 0.85, 0.95, 0.99]:
            _, _, pu, ok = _one_code_batch(n, m, mu, 0.01)
            assert ok
            if last is not None:
                assert pu < last
            last = pu


def test_station_outcome_consistent_with_decode_probs():
    for n, m, mu, eps in [(5, 5, 0.9, 0.01), (3, 4, 0.8, 0.02), (8, 2, 0.95, 0.005)]:
        pcz, piz, puz = gen3.decode_probs(n, m, mu, eps, "z")
        pcx, pix, pux = gen3.decode_probs(n, m, mu, eps, "x")
        ratio_z, ratio_x, pu, ok = _one_code_batch(n, m, mu, eps)
        assert ok
        assert math.isclose(ratio_z, (pcz - piz) / (pcz + piz), rel_tol=1e-12)
        assert math.isclose(ratio_x, (pcx - pix) / (pcx + pix), rel_tol=1e-12)
        assert math.isclose(pu, 1.0 - (1.0 - puz) * (1.0 - pux), rel_tol=1e-12)


def test_evaluate_matches_station_composition():
    params = HardwareParams(eta_c=0.95, eps_g=1e-3, t0=1e-6)
    config = Gen3Config(7, 4, 2.0)
    res = gen3.evaluate(params, config, 600.0)
    stations = 300
    mu = 0.95 * math.exp(-2.0 / 20.0)
    ratio_z, ratio_x, pu, ok = _one_code_batch(7, 4, mu, 7.5e-4)
    assert ok and res.feasible
    q_z = 0.5 * (1.0 - ratio_z**stations)
    q_x = 0.5 * (1.0 - ratio_x**stations)
    rate = (1.0 - pu) ** stations * secure_fraction(average_qber(q_x, q_z)) / 1e-6
    assert res.stations == stations
    assert res.qubits_per_station == 2 * 7 * 4
    assert math.isclose(res.rate_sbits_per_s, rate, rel_tol=1e-12)
    assert math.isclose(res.cost, stations * 56 / rate, rel_tol=1e-12)
    assert math.isclose(res.cost_coeff, res.cost / 600.0, rel_tol=1e-12)


def test_evaluate_lossless_noiseless_channel():
    # photons always arrive and never flip: every cycle yields one secure bit
    params = HardwareParams(eta_c=1.0, eps_g=0.0, t0=1e-6, l_att=1e18)
    res = gen3.evaluate(params, Gen3Config(5, 5, 1.0), 1000.0)
    assert res.feasible
    assert math.isclose(res.rate_sbits_per_s, 1e6, rel_tol=1e-12)
    assert math.isclose(res.cost, 0.05, rel_tol=1e-12)
    assert math.isclose(res.cost_coeff, 5e-5, rel_tol=1e-12)


def test_evaluate_infeasible_below_half_transmission():
    # a photon that more often dies than arrives carries no parity code
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    res = gen3.evaluate(params, Gen3Config(5, 5, 20.0), 1000.0)
    assert not res.feasible
    assert res.cost_coeff == math.inf
    with pytest.raises(ValueError):
        gen3.evaluate(params, Gen3Config(5, 5, 1.0), 0.0)


def test_station_batch_equals_scalar_reference():
    # every code at every transmissivity of one batch, bit for bit as the
    # scalar folds compute them, including codes that never decode
    rng = random.Random(3)
    n = tuple(rng.randint(1, 20) for _ in range(60))
    m = tuple(rng.randint(1, 20) for _ in range(60))
    mus = (0.0, 0.3, 0.51, 0.8, 0.97, 1.0)
    for eps in (0.0, 7.5e-4, 0.02, 0.3, 0.5):
        rows = [a.tolist() for a in gen3.station_outcome(n, m, mus, eps)]
        for i, mu in enumerate(mus):
            for j in range(len(n)):
                got = tuple(a[i][j] for a in rows)
                want = station_reference.station_outcome(n[j], m[j], mu, eps)
                assert repr(got) == repr(want), (n[j], m[j], mu, eps)


_CODE = st.tuples(st.integers(1, 24), st.integers(1, 24))


@settings(max_examples=40, deadline=None)
@given(
    _CODE, st.floats(0.0, 1.0), st.floats(0.0, 0.5),
    st.lists(_CODE, max_size=12), st.lists(st.floats(0.0, 1.0), max_size=3), st.data(),
)
def test_batch_row_equals_scalar_station_outcome(code, mu, eps, others, other_mus, data):
    # a row does not depend on the batch that holds it: it equals the
    # one-code batch that gen3.evaluate computes
    codes = list(others)
    codes.insert(data.draw(st.integers(0, len(codes))), code)
    mus = list(other_mus)
    i = data.draw(st.integers(0, len(mus)))
    mus.insert(i, mu)
    j = codes.index(code)
    n, m = tuple(c[0] for c in codes), tuple(c[1] for c in codes)
    batch = gen3.station_outcome(n, m, tuple(mus), eps)
    row = tuple(a[i, j].item() for a in batch)
    assert repr(row) == repr(_one_code_batch(*code, mu, eps))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.floats(0.0, 1.0), st.floats(0.0, 0.5),
       st.sampled_from("xz"))
def test_decode_probs_sum_to_one_anywhere(n, m, mu, eps, basis):
    assert abs(sum(gen3.decode_probs(n, m, mu, eps, basis)) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.floats(0.5, 1.0, exclude_min=True),
       st.floats(0.0, 0.5, exclude_max=True),
       st.one_of(st.floats(1e-15, 1e-6), st.floats(1e-6, 0.5)))
def test_station_biases_do_not_rise_with_the_photon_error_rate(n, m, mu, e1, gap):
    # the premise of a dead-cell record: on [0, 1/2] each station bias,
    # |ratio_z| and |ratio_x|, is non-increasing in eps_q, up to the margin
    e2 = min(e1 + gap, 0.5)
    assume(e1 < e2)
    low, high = (gen3.station_outcome((n,), (m,), (mu,), e) for e in (e1, e2))
    for before, after in zip(low[:2], high[:2]):
        assert abs(after.item()) <= abs(before.item()) * (1.0 + optimize._MARGIN), (n, m, mu, e1, e2)


def test_station_batch_is_read_only():
    rows = gen3.station_outcome((3, 4), (2, 2), (0.9,), 0.01)
    with pytest.raises(ValueError):
        rows[0][0, 0] = 1.0


# (eta_c, l_att, spacings, code grid as gen3.codes takes it); each shape after
# the first differs from it in one input only
_SPACINGS = (0.5, 1.0, 2.0, 4.0)
_GRID = (2, 6, 2, 6, 30)
_SHAPES = (
    (0.9, 20.0, _SPACINGS, _GRID),
    (0.9, 25.0, _SPACINGS, _GRID),  # attenuation length
    (0.9, 20.0, (0.5, 1.5, 2.0, 4.0), _GRID),  # spacings
    (0.9, 20.0, _SPACINGS, (2, 5, 2, 7, 30)),  # code grid
    (0.8, 20.0, _SPACINGS, _GRID),  # coupling
    (0.9, 20.0, (3.0,), _GRID),  # one spacing
)


def _cell(shape, eps_g):
    """The station batch of one cell, and the bounds and priced entries of
    its cell pass, over every entry and over every third, as exact text."""
    eta_c, l_att, spacings, grid = shape
    params = HardwareParams(eta_c=eta_c, eps_g=eps_g, l_att=l_att)
    bounds, _, price = gen3.bound(params, 300.0, grid, spacings)
    priced = []
    for index in (np.arange(len(bounds)), np.arange(0, len(bounds), 3)):
        terms, kept, key = price(index)
        priced.append((terms.tolist(), kept.tolist(), [key(row) for row in range(len(kept))]))
    _, _, mus = gen3._live(params, spacings, 300.0)
    n, m, _ = gen3.codes(*grid)
    rows = gen3.station_outcome(n, m, mus, gen3.photon_error_rate(params))
    return repr((bounds.tolist(), priced, [a.tolist() for a in rows]))


def test_shared_layouts_do_not_depend_on_the_cell_order():
    # cells that share a layout (same inputs but eps_g) and cells that differ
    # from them in one input, interleaved, each equal to itself computed cold
    cells = [(shape, eps_g) for eps_g in (1e-3, 4e-3, 2e-3) for shape in _SHAPES]
    cold = {}
    for cell in cells:
        caches.clear_all()
        cold[cell] = _cell(*cell)
    hits = gen3._layout.cache_info().hits
    for cell in cells + cells[::-1] + random.Random(5).sample(cells, len(cells)):
        assert _cell(*cell) == cold[cell], cell
    assert gen3._layout.cache_info().hits > hits


def test_vote_sums_read_their_terms_in_place(monkeypatch):
    # every ordered_sum of a default cell's station batch, which its cell
    # pass reads when it prices every entry, gets a C-contiguous array, which
    # it reduces without a copy
    seen = []

    def spy(terms):
        seen.append(terms.flags.c_contiguous)
        return ordered_sum(terms)

    monkeypatch.setattr(gen3, "ordered_sum", spy)
    caches.clear_all()
    s = optimize.SearchSpace().gen3
    bounds, _, price = gen3.bound(HardwareParams(), 1000.0, optimize._gen3_grid(s), s.spacings_km)
    price(np.arange(len(bounds)))
    assert len(seen) > 3 and all(seen), seen


def test_one_spacing_search_fills_only_grid_caches():
    # a search batch at one live spacing still holds the whole code grid: the
    # cells share its layout, and each gate error's batch, which the search
    # reads where no code it prices first decodes, holds every code
    caches.clear_all()
    space = optimize.SearchSpace(gen3=optimize.Gen3Search(spacings_km=(1.0,)))
    for eps_g in (1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 1e-2, 2e-2):
        params = HardwareParams(eps_g=eps_g)
        optimize.optimize_family("gen3", params, 1000.0, space)
    # no code decodes at the last two gate errors
    assert caches.sizes(("gen3._layout", "gen3.station_outcome")) == {
        "gen3._layout": 1, "gen3.station_outcome": 2}
    n, m, _ = gen3.codes(*optimize._gen3_grid(space.gen3))
    mu = gen3.transmissivity(params.eta_c, 1.0, params.l_att)
    hits = gen3.station_outcome.cache_info().hits
    rows = gen3.station_outcome(n, m, (mu,), gen3.photon_error_rate(params))
    assert gen3.station_outcome.cache_info().hits == hits + 1
    assert [a.shape for a in rows] == [(1, len(n))] * 4
