import itertools
import math
import random
from fractions import Fraction

import caches
import numpy as np
import pytest
import search_reference
from chain_reference import swap_chain
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrcost import gen2, gen3, optimize
from qrcost.binom import tail_at_least
from qrcost.core import (
    CSS_CATALOG,
    GOLAY,
    QR_103,
    STEANE,
    CssCode,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
)
from qrcost.keyrate import average_qber, secure_fraction
from qrcost.pairs import elementary_pair, heg_success_prob, swap


def test_segment_count():
    assert gen2.segment_count(1000.0, 10.0) == 100
    assert gen2.segment_count(1000.0, 15.0) == 67  # rounds up
    assert gen2.segment_count(1.0, 10.0) == 1
    with pytest.raises(ValueError):
        gen2.segment_count(0.0, 10.0)
    with pytest.raises(ValueError):
        gen2.segment_count(100.0, -1.0)
    # a non-finite distance is rejected, not read as 0 segments or an overflow
    for l_tot, spacing in [(1000.0, math.inf), (1000.0, math.nan), (math.inf, 10.0),
                           (math.nan, 10.0)]:
        with pytest.raises(ValueError):
            gen2.segment_count(l_tot, spacing)


@example(1000.0, 61)  # 1000 / (1000 / 61) rounds one ulp above 61
@given(st.floats(1.0, 40000.0, exclude_min=True, exclude_max=True), st.integers(1, 1024))
def test_derived_spacing_keeps_its_segment_count(l_tot, k):
    # a spacing computed as l_tot / k spans l_tot in k segments, whichever way
    # l_tot / spacing rounds; one ulp less spacing needs one segment more
    spacing = l_tot / k
    assert gen2.segment_count(l_tot, spacing) == k
    assert gen2.segment_count(l_tot, math.nextafter(spacing, 0.0)) == k + 1


def _counted_down(l_tot, spacing):
    """The fewest-segments rule as a count down by ones, with no step limit."""
    count = math.ceil(l_tot / spacing) + 1
    while count > 1 and l_tot / (count - 1) <= spacing:
        count -= 1
    return count


# a count down by ones took 0.8 s at 1e20 km and never returned at 1e300 km
@example(1e20, 0.5)
@example(1e22, 0.5)
@example(1e300, 0.5)
@example(1e307, 0.5)
@example(2.0**53, 1.0)
@given(st.floats(2.0**53, 1e300), st.floats(1e-3, 10.0))
def test_huge_quotient_counts_in_two_steps(l_tot, spacing):
    # the count goes at most two steps down from ceil + 1, so it may stay
    # above the fewest count, by at most two ulps of the quotient (which
    # below a quotient of 2^52 means not at all)
    quotient = math.ceil(l_tot / spacing)
    count = gen2.segment_count(l_tot, spacing)
    assert quotient - 1 <= count <= quotient + 1
    if quotient <= 2**60:
        assert 0 <= count - _counted_down(l_tot, spacing) <= 2 * math.ulp(quotient)


def test_search_at_a_derived_spacing_counts_its_segments():
    # the search's spacing 1000 / 61 once made 62 segments; evaluate, the
    # reference fold and gen3's station count read the same rule
    params = HardwareParams()
    space = optimize.SearchSpace(gen2=optimize.Gen2Search(segment_counts=(61,)))
    best = optimize.optimize_family("gen2_noenc", params, 1000.0, space)
    assert (best.config.spacing_km, best.result.stations) == (1000.0 / 61, 61)
    assert gen2.evaluate_no_encoding(params, best.config, 1000.0) == best.result
    assert search_reference.price(params, best.config, 1000.0) == best.result
    assert gen3.evaluate(params, Gen3Config(2, 2, 1000.0 / 61), 1000.0).stations == 61


def test_link_availability_matches_direct_form():
    rng = random.Random(4)
    for _ in range(200):
        p = rng.uniform(0.0, 1.0)
        n = rng.randint(1, 500)
        direct = 1.0 - (1.0 - p) ** n
        assert math.isclose(gen2.link_availability(p, n), direct, rel_tol=1e-12)


def test_link_availability_edge_values():
    # direct form underflows to 0 for tiny p; the log1p route keeps precision
    assert math.isclose(gen2.link_availability(1e-300, 3), 3e-300, rel_tol=1e-12)
    assert gen2.link_availability(1.0, 5) == 1.0
    assert gen2.link_availability(0.0, 5) == 0.0


def test_link_availability_validation():
    with pytest.raises(ValueError):
        gen2.link_availability(-0.1, 3)
    with pytest.raises(ValueError):
        gen2.link_availability(1.1, 3)
    with pytest.raises(ValueError):
        gen2.link_availability(0.5, 0)


def test_chain_state_matches_explicit_fold():
    # the bare chain's states that the fold keeps at each asked segment
    # count, and the fraction of each state, alone or in a pass over many
    # counts
    caches.clear_all()
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    base = elementary_pair(params.eps_g)
    state, want, states = base, [], []
    for segments in range(1, 9):
        r = gen2._chain_fractions(params.eps_g, params.xi, (segments,))
        (got,) = gen2._chain_states(params.eps_g, params.xi, (segments,))
        assert got == pytest.approx(state.as_tuple(), rel=1e-12)
        states.append(got)
        _, b, c, d = got
        want.append(secure_fraction(average_qber(b + d, c + d)))
        assert r.tolist() == want[-1:]
        state = swap(state, base, params.eps_g, params.xi)
    counts = (8, 1, 3, 3, 6)
    assert gen2._chain_states(params.eps_g, params.xi, counts) == [states[k - 1] for k in counts]
    got = gen2._chain_fractions(params.eps_g, params.xi, counts).tolist()
    assert got == [want[k - 1] for k in counts]


def test_chain_states_past_the_fixed_point_equal_the_full_fold():
    # at eps_g 3e-2 the full fold reaches a state that one swap returns bit
    # for bit within a few hundred swaps; the fold stops there and gives
    # that state to every longer chain, as the full fold does
    eps_g, xi = 3e-2, 2.5e-4
    pair = elementary_pair(eps_g)
    state, states = pair, [pair.as_tuple()]  # states[k] of k + 1 segments
    for _ in range(1999):
        state = swap(state, pair, eps_g, xi)
        states.append(state.as_tuple())
    fixed = next(k for k in range(1, len(states)) if states[k] == states[k - 1])
    assert 100 < fixed < 1000 and states[fixed:] == [states[fixed]] * (len(states) - fixed)
    counts = (2000, 1, fixed, fixed + 1, fixed + 2, 1500)
    assert gen2._chain_states(eps_g, xi, counts) == [states[n - 1] for n in counts]
    assert gen2._chain_states(eps_g, xi, (fixed - 1, 10**300)) == [states[fixed - 2], states[fixed]]


def test_physical_error_rate_composition():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    f0 = elementary_pair(1e-3).fidelity
    want = 0.0 + 1e-3 + 2.0 * 2.5e-4 + (2.0 / 3.0) * (1.0 - f0)
    assert math.isclose(gen2.physical_error_rate(params), want, rel_tol=1e-12)
    # with xi = eps_g/4 and the 1 - (5/4)eps_g pair fidelity this is (7/3)eps_g
    assert math.isclose(gen2.physical_error_rate(params), (7.0 / 3.0) * 1e-3, rel_tol=1e-9)
    # past a rate of 1 the code formulas give no probabilities: no code works
    noisy = HardwareParams(eta_c=0.9, eps_g=0.04, eps_d=1.0, t0=1e-6)
    assert gen2.physical_error_rate(noisy) > 1.0
    for code in CSS_CATALOG:
        assert not gen2.evaluate_encoded(noisy, Gen2EncConfig(code, 16, 10.0), 1000.0).feasible


def test_logical_flip_prob_exact():
    eps = 0.01
    # flips when more than t physical errors hit one block
    direct = 1.0 - ((1 - eps) ** 7 + 7 * eps * (1 - eps) ** 6)
    assert math.isclose(gen2.logical_flip_prob(STEANE, eps), direct, rel_tol=1e-12)
    e = Fraction(1, 100)
    for code in (GOLAY, QR_103):
        exact = sum(
            Fraction(math.comb(code.n_phys, k)) * e**k * (1 - e) ** (code.n_phys - k)
            for k in range(code.t + 1, code.n_phys + 1)
        )
        assert math.isclose(gen2.logical_flip_prob(code, 0.01), float(exact), rel_tol=1e-10)


def test_encoded_qber_identity():
    eps = gen2.physical_error_rate(HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6))
    p = gen2.logical_flip_prob(GOLAY, eps)
    for segments in (1, 10, 100):
        want = 0.5 * (1.0 - (1.0 - 2.0 * p) ** segments)
        assert math.isclose(gen2.encoded_qber(GOLAY, eps, segments), want, rel_tol=1e-12)
    # the cell pass's array of segment counts takes each count's scalar bits
    counts = [1, 10, 100, 7]
    got = gen2.encoded_qber(GOLAY, eps, np.array(counts)).tolist()
    assert got == [gen2.encoded_qber(GOLAY, eps, k) for k in counts]


def test_evaluate_no_encoding_rate_identity():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    config = Gen2NoEncConfig(memories=16, spacing_km=15.0, gen_rounds=2)
    res = gen2.evaluate_no_encoding(params, config, 160.0)
    segments = 11  # ceil(160 / 15)
    state = swap_chain(elementary_pair(params.eps_g), segments, params.eps_g, params.xi)
    r = secure_fraction(average_qber(state.qber_x, state.qber_z))
    avail = gen2.link_availability(heg_success_prob(0.9, 15.0, 20.0), 16 * 2)
    cycle = 2 * (15.0 / 2e5 + 1e-6)
    assert res.feasible
    assert res.stations == segments
    assert res.qubits_per_station == 32
    assert math.isclose(res.rate_sbits_per_s, avail**segments * r / cycle, rel_tol=1e-12)
    assert math.isclose(res.cost, segments * 32 / res.rate_sbits_per_s, rel_tol=1e-12)
    assert math.isclose(res.cost_coeff, res.cost / 160.0, rel_tol=1e-12)


def test_evaluate_encoded_rate_identity():
    params = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    config = Gen2EncConfig(code=GOLAY, memories=64, spacing_km=10.0, gen_rounds=2)
    res = gen2.evaluate_encoded(params, config, 500.0)
    segments = 50
    eps = gen2.physical_error_rate(params)
    r = secure_fraction(gen2.encoded_qber(GOLAY, eps, segments))
    avail = tail_at_least(64 * 2, heg_success_prob(0.9, 10.0, 20.0), 23)
    cycle = 2 * (10.0 / 2e5 + 1e-6)
    assert res.feasible
    assert res.stations == segments
    assert res.qubits_per_station == 128
    assert math.isclose(res.rate_sbits_per_s, avail**segments * r / cycle, rel_tol=1e-12)
    assert math.isclose(res.cost, segments * 128 / res.rate_sbits_per_s, rel_tol=1e-12)
    assert math.isclose(res.cost_coeff, res.cost / 500.0, rel_tol=1e-12)


def test_evaluate_infeasible_paths():
    noisy = HardwareParams(eta_c=0.9, eps_g=1e-2, t0=1e-6)
    # bare chain: a hundred noisy swaps leave no key
    res = gen2.evaluate_no_encoding(noisy, Gen2NoEncConfig(16, 10.0), 1000.0)
    assert not res.feasible
    assert res.rate_sbits_per_s == 0.0 and res.cost == math.inf
    # encoded: the smallest code cannot hold a hundred segments at this error
    res = gen2.evaluate_encoded(noisy, Gen2EncConfig(STEANE, 64, 10.0), 1000.0)
    assert not res.feasible
    # encoded: too few attempts to ever fill one code block
    good = HardwareParams(eta_c=0.9, eps_g=1e-3, t0=1e-6)
    res = gen2.evaluate_encoded(good, Gen2EncConfig(GOLAY, 1, 10.0, 1), 100.0)
    assert not res.feasible


def test_availability_table_equals_scalar_tails():
    # p_gen = 0 at eta_c = 0 and underflowing at 2,000 km spacings, codes
    # larger than the attempts, and both sides of the mean
    spacings, memories, gen_rounds = (0.5, 10.0, 60.0, 2000.0), (1, 3, 8, 64), (1, 2, 10)
    codes = (STEANE, GOLAY, QR_103)
    branches = set()
    for eta_c in (0.0, 0.3, 1.0):
        encoded = gen2._availability(eta_c, 20.0, spacings, memories, gen_rounds, codes)
        bare = gen2._availability(eta_c, 20.0, spacings, memories, gen_rounds, (None,))
        for s, i, j in itertools.product(*map(range, encoded.shape[1:])):
            p_gen = heg_success_prob(eta_c, spacings[s], 20.0)
            attempts = memories[i] * gen_rounds[j]
            assert repr(bare[0, s, i, j].item()) == repr(gen2.link_availability(p_gen, attempts))
            for c, code in enumerate(codes):
                want = tail_at_least(attempts, p_gen, code.n_phys)
                assert repr(encoded[c, s, i, j].item()) == repr(want), (eta_c, s, i, j, c)
                above_mean = code.n_phys > attempts * p_gen
                branches.add("past trials" if code.n_phys > attempts else above_mean)
    assert branches == {"past trials", True, False}


# catalog codes, and codes of up to 40 qubits correcting up to half of them
_CODES = st.one_of(
    st.sampled_from(CSS_CATALOG),
    st.integers(1, 40).flatmap(lambda n: st.builds(CssCode, st.just(n), st.integers(0, n // 2))),
)


@settings(max_examples=80, deadline=None)
# memories, rounds, spacing and code off the default grids
@example(0.9, 1e-3, None, 0.0, 1e-6, 1000.0, 37, 3, 7.3, CssCode(9, 1))
# eta_c = 0: no generation attempt ever succeeds
@example(0.0, 1e-3, None, 0.0, 1e-6, 1000.0, 16, 2, 10.0, GOLAY)
# a noisy gate leaves no key on either chain (r <= 0)
@example(0.9, 0.03, None, 1e-3, 1e-6, 1000.0, 64, 1, 3.0, CssCode(9, 1))
@given(
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    st.one_of(st.sampled_from((0.0, 1e-4, 1e-3, 0.03, 0.04)), st.floats(0.0, 0.04)),
    st.one_of(st.none(), st.floats(0.0, 0.01)),
    st.sampled_from((0.0, 1e-3)),
    st.floats(1e-9, 1e-3),
    st.sampled_from((100.0, 1000.0, 2000.0)),
    st.integers(1, 300),
    st.integers(1, 12),
    st.floats(1.0, 200.0),
    _CODES,
)
def test_evaluators_equal_the_scalar_fold(
    eta, eps, xi, eps_d, t0, l_tot, memories, gen_rounds, spacing, code
):
    # the evaluators read one row of the array pass; the reference folds the
    # same configuration alone, in scalar floats, and prices it through price
    params = HardwareParams(eta_c=eta, eps_g=eps, xi=xi, eps_d=eps_d, t0=t0)
    bare = Gen2NoEncConfig(memories, spacing, gen_rounds)
    encoded = Gen2EncConfig(code, memories, spacing, gen_rounds)
    for evaluate, config in ((gen2.evaluate_no_encoding, bare), (gen2.evaluate_encoded, encoded)):
        want = search_reference.price(params, config, l_tot)
        assert repr(evaluate(params, config, l_tot)) == repr(want), config
