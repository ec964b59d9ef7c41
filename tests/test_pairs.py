import math
import random
from fractions import Fraction

import numpy as np
import pytest
from chain_reference import deutsch_fixed_point, pump_schedule, pumped_fidelity_bound, swap_chain
from hypothesis import given, settings
from hypothesis import strategies as st

from qrcost import gen1, gen2
from qrcost.core import BellDiagonalState, Gen1Config, HardwareParams, werner_state
from qrcost.pairs import (
    elementary_pair,
    elementary_pair_fidelity,
    heg_success_prob,
    purify,
    swap,
)


def _purify_exact(r1, r2, eg, xi):
    """Recurrence purification in exact rational arithmetic."""
    a1, b1, c1, d1 = (Fraction(v) for v in r1)
    a2, b2, c2, d2 = (Fraction(v) for v in r2)
    eg, xi = Fraction(eg), Fraction(xi)
    g = (1 - eg) ** 2
    s = xi * xi + (1 - xi) ** 2
    t = 2 * xi * (1 - xi)
    ad1, bc1 = a1 + d1, b1 + c1
    ad2, bc2 = a2 + d2, b2 + c2
    p = g * (s * (ad1 * ad2 + bc1 * bc2) + t * (ad1 * bc2 + bc1 * ad2)) + (1 - g) / 2
    floor = (1 - g) / 8
    a = (g * (s * (a1 * a2 + d1 * d2) + t * (a1 * c2 + d1 * b2)) + floor) / p
    b = (g * (s * (a1 * d2 + d1 * a2) + t * (a1 * b2 + d1 * c2)) + floor) / p
    c = (g * (s * (b1 * b2 + c1 * c2) + t * (b1 * d2 + c1 * a2)) + floor) / p
    d = (g * (s * (b1 * c2 + c1 * b2) + t * (b1 * a2 + c1 * d2)) + floor) / p
    return p, (a, b, c, d)


def _swap_exact(r1, r2, eg, xi):
    """Entanglement swapping in exact rational arithmetic."""
    a1, b1, c1, d1 = (Fraction(v) for v in r1)
    a2, b2, c2, d2 = (Fraction(v) for v in r2)
    eg, xi = Fraction(eg), Fraction(xi)
    w0, w1, w2 = (1 - xi) ** 2, xi * (1 - xi), xi * xi
    ad1, bc1 = a1 + d1, b1 + c1
    ad2, bc2 = a2 + d2, b2 + c2
    cross = ad1 * bc2 + bc1 * ad2
    same = ad1 * ad2 + bc1 * bc2
    diag = a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2
    anti = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
    phase = a1 * b2 + b1 * a2 + c1 * d2 + d1 * c2
    bitph = a1 * c2 + c1 * a2 + b1 * d2 + d1 * b2
    g = 1 - eg
    return (
        g * (w0 * diag + w1 * cross + w2 * anti) + eg / 4,
        g * (w0 * phase + w1 * same + w2 * bitph) + eg / 4,
        g * (w2 * phase + w1 * same + w0 * bitph) + eg / 4,
        g * (w2 * diag + w1 * cross + w0 * anti) + eg / 4,
    )


def _random_state(rng) -> BellDiagonalState:
    raw = [rng.uniform(0.05, 1.0) for _ in range(4)]
    total = sum(raw)
    return BellDiagonalState(*(v / total for v in raw))


def test_purify_matches_exact_arithmetic():
    rng = random.Random(2)
    for _ in range(150):
        r1, r2 = _random_state(rng), _random_state(rng)
        eg = rng.choice([0.0, 0.001, 0.01, 0.04])
        xi = rng.choice([0.0, 0.00025, 0.0025])
        p, out = purify(r1, r2, eg, xi)
        p_ref, out_ref = _purify_exact(r1.as_tuple(), r2.as_tuple(), eg, xi)
        assert math.isclose(p, float(p_ref), rel_tol=1e-12)
        for got, want in zip(out.as_tuple(), out_ref):
            assert math.isclose(got, float(want), rel_tol=0, abs_tol=1e-12)


def test_swap_matches_exact_arithmetic():
    rng = random.Random(3)
    for _ in range(150):
        r1, r2 = _random_state(rng), _random_state(rng)
        eg = rng.choice([0.0, 0.001, 0.04])
        xi = rng.choice([0.0, 0.00025, 0.0025])
        out = swap(r1, r2, eg, xi)
        ref = _swap_exact(r1.as_tuple(), r2.as_tuple(), eg, xi)
        for got, want in zip(out.as_tuple(), ref):
            assert math.isclose(got, float(want), rel_tol=0, abs_tol=1e-12)


def test_perfect_input_identities():
    perfect = BellDiagonalState(1.0, 0.0, 0.0, 0.0)
    p, out = purify(perfect, perfect, 0.0, 0.0)
    assert p == 1.0 and out.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert swap(perfect, perfect, 0.0, 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_full_gate_error_floors_to_maximally_mixed():
    state = werner_state(0.9)
    _, out = purify(state, state, 1.0, 0.0)
    assert out.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)
    out = swap(state, state, 1.0, 0.0)
    assert out.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)


def test_noiseless_werner_purification_pinned():
    # one perfect-gate round on two fidelity-0.9 Werner states
    p, out = purify(werner_state(0.9), werner_state(0.9), 0.0, 0.0)
    assert math.isclose(p, 197.0 / 225.0, rel_tol=1e-15)
    assert math.isclose(out.fidelity, 365.0 / 394.0, rel_tol=1e-15)
    assert math.isclose(out.fidelity, 0.9263959390862946, rel_tol=1e-15)


def test_noiseless_werner_swap_pinned():
    out = swap(werner_state(0.9), werner_state(0.9), 0.0, 0.0)
    assert math.isclose(out.fidelity, 0.8133333333333335, rel_tol=1e-15)


def test_swap_is_symmetric():
    rng = random.Random(4)
    for _ in range(50):
        r1, r2 = _random_state(rng), _random_state(rng)
        lhs = swap(r1, r2, 0.002, 0.0005)
        rhs = swap(r2, r1, 0.002, 0.0005)
        assert lhs.as_tuple() == pytest.approx(rhs.as_tuple(), abs=1e-15)


def test_outputs_stay_normalized():
    rng = random.Random(5)
    for _ in range(100):
        r1, r2 = _random_state(rng), _random_state(rng)
        _, out = purify(r1, r2, 0.01, 0.001)
        assert math.isclose(sum(out.as_tuple()), 1.0, rel_tol=1e-12)
        out = swap(r1, r2, 0.01, 0.001)
        assert math.isclose(sum(out.as_tuple()), 1.0, rel_tol=1e-12)


def test_purification_gains_fidelity_in_working_regime():
    state = werner_state(0.85)
    _, out = purify(state, state, 0.0, 0.0)
    assert out.fidelity > state.fidelity


def test_swap_chain_folds_left():
    base = werner_state(0.95)
    chained = swap_chain(base, 4, 0.001, 0.00025)
    manual = base
    for _ in range(3):
        manual = swap(manual, base, 0.001, 0.00025)
    assert chained.as_tuple() == manual.as_tuple()
    assert swap_chain(base, 1, 0.001, 0.00025) is base
    # the bare gen2 chain folds the same way, alone or kept at several
    # counts of one fold
    eps_g, xi = 0.001, 0.00025
    pair = elementary_pair(eps_g)
    counts = (1, 2, 5, 17)
    wants = [swap_chain(pair, segments, eps_g, xi).as_tuple() for segments in counts]
    for segments, want in zip(counts, wants):
        assert gen2._chain_states(eps_g, xi, (segments,)) == [want]
    assert gen2._chain_states(eps_g, xi, counts[::-1]) == wants[::-1]


def test_elementary_pair_model():
    assert elementary_pair_fidelity(0.0) == 1.0
    assert math.isclose(elementary_pair_fidelity(0.001), 0.99875, rel_tol=1e-15)
    state = elementary_pair(0.001)
    assert math.isclose(state.fidelity, 0.99875, rel_tol=1e-15)
    assert state.b == state.c == state.d
    with pytest.raises(ValueError):
        elementary_pair_fidelity(0.05)  # beyond the leading-order validity bound


def test_heg_success_probability():
    assert math.isclose(heg_success_prob(0.9, 20.0, 20.0), 0.14899117367443415, rel_tol=1e-15)
    assert heg_success_prob(1.0, 0.0, 20.0) == 0.5  # herald caps at one half
    with pytest.raises(ValueError):
        heg_success_prob(1.5, 20.0, 20.0)


def test_pump_schedule_schemes_differ():
    base = werner_state(0.9)
    deutsch_state, deutsch_probs = pump_schedule(base, 2, 0.001, 0.00025, "deutsch")
    dur_state, dur_probs = pump_schedule(base, 2, 0.001, 0.00025, "dur")
    assert len(deutsch_probs) == len(dur_probs) == 2
    assert deutsch_state.fidelity != dur_state.fidelity
    # recurrence squares the state each round, pumping reuses the base copy
    p1, s1 = purify(base, base, 0.001, 0.00025)
    p2, s2 = purify(s1, s1, 0.001, 0.00025)
    assert deutsch_probs == (p1, p2) and deutsch_state.as_tuple() == s2.as_tuple()
    q2, t2 = purify(s1, base, 0.001, 0.00025)
    assert dur_probs == (p1, q2) and dur_state.as_tuple() == t2.as_tuple()
    # gen1's schedule table pumps its elementary level the same way
    params = HardwareParams(eps_g=0.001, xi=0.00025)
    pair = elementary_pair(params.eps_g)
    for scheme in ("deutsch", "dur"):
        state, probs = pump_schedule(pair, 2, params.eps_g, params.xi, scheme)
        config = Gen1Config(scheme, 0, (2,))
        table = gen1._path(params, config)
        assert tuple(w.item(0) for w in table.states[0].as_tuple()) == state.as_tuple()
        assert gen1.ladder_success_probs(params, config) == (probs,)


def test_fixed_point_agrees_with_quadratic_bound():
    # residual is third order in the error rates
    for eg, xi, tol in [(1e-3, 2.5e-4, 1e-7), (5e-4, 1.25e-4, 2e-8), (2e-3, 0.0, 5e-7)]:
        exact = deutsch_fixed_point(eg, xi).fidelity
        assert abs(exact - pumped_fidelity_bound(eg, xi)) < tol


def test_fixed_point_is_stationary():
    state = deutsch_fixed_point(1e-3, 2.5e-4)
    _, next_state = purify(state, state, 1e-3, 2.5e-4)
    assert math.isclose(next_state.fidelity, state.fidelity, rel_tol=0, abs_tol=1e-12)


_WEIGHTS = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.0)
_PAIRS = st.lists(st.tuples(_WEIGHTS, _WEIGHTS), min_size=1, max_size=6)


def _drifted(weights):
    """Weights scaled to sum to 1 up to rounding, left for the state to renormalize."""
    total = math.fsum(weights)
    return [w / total for w in weights]


def _bits(values):
    return [float(v).hex() for v in values]


def _outcome(operation):
    try:
        return operation()
    except (ArithmeticError, ValueError) as error:
        return type(error)


@settings(max_examples=200, deadline=None)
@given(_PAIRS, st.floats(0.0, 0.04), st.floats(0.0, 0.5))
def test_batched_pair_algebra_equals_single_states(pairs, eps_g, xi):
    rows = [tuple(BellDiagonalState(*_drifted(w)) for w in pair) for pair in pairs]
    batches = [
        BellDiagonalState(*map(np.array, zip(*(_drifted(pair[side]) for pair in pairs))))
        for side in (0, 1)
    ]
    # one renormalization, the same arithmetic for a float and for an array
    for side in (0, 1):
        for w, state in zip(batches[side].as_tuple(), zip(*(row[side].as_tuple() for row in rows))):
            assert _bits(w) == _bits(state)
    singles = [_outcome(lambda: purify(r1, r2, eps_g, xi)) for r1, r2 in rows]
    batch = _outcome(lambda: purify(*batches, eps_g, xi))
    errors = [out for out in singles if isinstance(out, type)]
    if errors:
        assert batch in errors
    else:
        p, out = batch
        assert _bits(p) == _bits(q for q, _ in singles)
        for w, want in zip(out.as_tuple(), zip(*(state.as_tuple() for _, state in singles))):
            assert _bits(w) == _bits(want)
    singles = [swap(r1, r2, eps_g, xi) for r1, r2 in rows]
    out = swap(*batches, eps_g, xi)
    for w, want in zip(out.as_tuple(), zip(*(state.as_tuple() for state in singles))):
        assert _bits(w) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(_WEIGHTS, _WEIGHTS, st.floats(0.0, 0.04), st.floats(0.0, 0.5))
def test_pair_algebra_keeps_weights_normalized(w1, w2, eps_g, xi):
    r1, r2 = BellDiagonalState(*_drifted(w1)), BellDiagonalState(*_drifted(w2))
    outputs = [swap(r1, r2, eps_g, xi)]
    purified = _outcome(lambda: purify(r1, r2, eps_g, xi))
    if purified is not ArithmeticError:  # both inputs may sit on opposite parities
        outputs.append(purified[1])
    for out in outputs:
        assert min(out.as_tuple()) >= 0.0
        assert abs(sum(out.as_tuple()) - 1.0) <= 1e-12
