import math
import random

import pytest
import station_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from qpc_reference import enumerate_decode

from qrcost import gen3
from qrcost.core import Gen3Config, HardwareParams
from qrcost.keyrate import average_qber, secure_fraction


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
            _, _, pu, ok = gen3.station_outcome(n, m, mu, 0.01)
            assert ok
            if last is not None:
                assert pu < last
            last = pu


def test_station_outcome_consistent_with_decode_probs():
    for n, m, mu, eps in [(5, 5, 0.9, 0.01), (3, 4, 0.8, 0.02), (8, 2, 0.95, 0.005)]:
        pcz, piz, puz = gen3.decode_probs(n, m, mu, eps, "z")
        pcx, pix, pux = gen3.decode_probs(n, m, mu, eps, "x")
        ratio_z, ratio_x, pu, ok = gen3.station_outcome(n, m, mu, eps)
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
    ratio_z, ratio_x, pu, ok = gen3.station_outcome(7, 4, mu, 7.5e-4)
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
    # a row does not depend on the batch that holds it
    codes = list(others)
    codes.insert(data.draw(st.integers(0, len(codes))), code)
    mus = list(other_mus)
    i = data.draw(st.integers(0, len(mus)))
    mus.insert(i, mu)
    j = codes.index(code)
    n, m = tuple(c[0] for c in codes), tuple(c[1] for c in codes)
    batch = gen3.station_outcome(n, m, tuple(mus), eps)
    row = tuple(a[i, j].item() for a in batch)
    assert repr(row) == repr(gen3.station_outcome(*code, mu, eps))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.floats(0.0, 1.0), st.floats(0.0, 0.5),
       st.sampled_from("xz"))
def test_decode_probs_sum_to_one_anywhere(n, m, mu, eps, basis):
    assert abs(sum(gen3.decode_probs(n, m, mu, eps, basis)) - 1.0) <= 1e-12


def test_station_batch_is_read_only():
    rows = gen3.station_outcome((3, 4), (2, 2), (0.9,), 0.01)
    with pytest.raises(ValueError):
        rows[0][0, 0] = 1.0
