"""End-to-end acceptance gate: eight criteria, one test and one printed
PASS/FAIL line each. Criterion 5 documents a known model limitation at
perfect coupling (see README) and currently fails on exactly that corner."""
import math
import time

import numpy as np
from chain_reference import deutsch_fixed_point, ladder, swap_chain
from qpc_reference import enumerate_decode

from qrcost import cli, gen1, gen2, gen3, oracles
from qrcost.core import (
    STEANE,
    BellDiagonalState,
    Gen1Config,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
)
from qrcost.keyrate import average_qber, secure_fraction
from qrcost.oracles import mc_gen1_waiting_time, mc_qpc_decode
from qrcost.optimize import optimize_all, optimize_family
from qrcost.pairs import elementary_pair, purify, swap

ETA_GRID = tuple(float(x) for x in np.linspace(0.1, 1.0, 10))
EPS_GRID = tuple(float(x) for x in np.geomspace(1e-4, 3e-2, 10))
T0_GRID = tuple(float(x) for x in np.geomspace(1e-7, 1e-4, 10))


def _report(number: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def _winner(eta: float, eps: float, t0: float, l_tot: float) -> str:
    report = optimize_all(HardwareParams(eta_c=eta, eps_g=eps, t0=t0), l_tot)
    return report.winner.family if report.winner is not None else "none"


def test_criterion_1_formula_fidelity():
    perfect = BellDiagonalState(1.0, 0.0, 0.0, 0.0)
    p, out = purify(perfect, perfect, 0.0, 0.0)
    ok = p == 1.0 and out.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    ok = ok and swap(perfect, perfect, 0.0, 0.0).as_tuple() == (1.0, 0.0, 0.0, 0.0)
    # full gate error floors every outcome to the maximally mixed state
    _, floored = purify(perfect, perfect, 1.0, 0.0)
    ok = ok and floored.as_tuple() == (0.25, 0.25, 0.25, 0.25)
    ok = ok and swap(perfect, perfect, 1.0, 0.0).as_tuple() == (0.25, 0.25, 0.25, 0.25)
    # code-block correctness: at most one flipped qubit out of seven
    p_correct = 1.0 - gen2.logical_flip_prob(STEANE, 0.01)
    ok = ok and abs(p_correct - 0.997968958) < 1e-6
    # lossless noiseless one-way chain: one secure bit per cycle per station
    res = gen3.evaluate(
        HardwareParams(eta_c=1.0, eps_g=0.0, t0=1e-6, l_att=1e18),
        Gen3Config(5, 5, 1.0),
        1000.0,
    )
    ok = ok and math.isclose(res.rate_sbits_per_s, 1e6, rel_tol=1e-9)
    ok = ok and math.isclose(res.cost_coeff, 5e-5, rel_tol=1e-9)
    ok = ok and gen3.decode_probs(5, 5, 1.0, 0.0, "z") == (1.0, 0.0, 0.0)
    line = _report(1, ok, "perfect-input identities, error floors, code probabilities")
    assert ok, line


def test_criterion_2_pumped_fidelity_expansion():
    eg, xi = 1e-3, 2.5e-4
    exact = deutsch_fixed_point(eg, xi).fidelity
    expansion = 1.0 - 1.25 * eg - (9.0 * xi + 4.75 * eg) * eg
    diff = abs(exact - expansion)
    ok = diff < 1e-7
    line = _report(2, ok, f"fixed point vs quadratic expansion, |diff|={diff:.2e}")
    assert ok, line


def test_criterion_3_parity_code_decoder():
    worst = 0.0
    for n in range(1, 10):
        for m in range(1, 9 // n + 1):
            for mu in (0.8, 0.9, 0.99):
                for eps in (0.0, 0.01, 0.05):
                    for basis in ("z", "x"):
                        want = enumerate_decode(n, m, mu, eps, basis)
                        got = gen3.decode_probs(n, m, mu, eps, basis)
                        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    ok = worst <= 1e-12
    sampled_ok = True
    for n, m in [(4, 4), (7, 3), (10, 5)]:
        for basis in ("z", "x"):
            est = mc_qpc_decode(n, m, 0.9, 0.01, basis, trials=10**6, seed=0)
            exact = gen3.decode_probs(n, m, 0.9, 0.01, basis)
            for got, want, se in [
                (est.p_correct, exact[0], est.se_correct),
                (est.p_incorrect, exact[1], est.se_incorrect),
                (est.p_unknown, exact[2], est.se_unknown),
            ]:
                sampled_ok = sampled_ok and abs(got - want) <= 3.0 * max(se, 1e-6)
    ok = ok and sampled_ok
    line = _report(3, ok, f"enumeration worst |diff|={worst:.2e}, sampler within 3 sigma")
    assert ok, line


def test_criterion_4_scaling_laws():
    # cost coefficient linear in the cycle time at the one-way optimum
    coeffs = []
    for t0 in (1e-7, 2e-7, 4e-7):
        params = HardwareParams(eta_c=1.0, eps_g=1e-4, t0=t0)
        coeffs.append(optimize_family("gen3", params, 1000.0).result.cost_coeff)
    ratios = [coeffs[1] / coeffs[0], coeffs[2] / coeffs[1]]
    ok = all(abs(r - 2.0) < 0.02 for r in ratios)
    # inverse-square coupling dependence of a fixed heralded-generation chain
    config = Gen1Config("deutsch", 3, (1, 1, 1, 0))
    scaled = []
    for eta in (0.5, 0.6, 0.7):
        params = HardwareParams(eta_c=eta, eps_g=1e-3, t0=1e-6)
        res = gen1.evaluate(params, config, 1000.0)
        scaled.append(res.cost_coeff * eta**2)
    spread = (max(scaled) - min(scaled)) / min(scaled)
    ok = ok and spread < 0.05
    line = _report(4, ok, f"t0 ratios {ratios[0]:.4f},{ratios[1]:.4f}; eta^2 spread {spread:.2%}")
    assert ok, line


def test_criterion_5_region_reproduction():
    violations = []
    # corner of near-perfect hardware belongs to the one-way code
    for eta in [e for e in ETA_GRID if e >= 0.95]:
        for eps in [e for e in EPS_GRID if e <= 1e-3]:
            for t0 in [t for t in T0_GRID if t <= 1.0000001e-6]:
                w = _winner(eta, eps, t0, 1e3)
                if w != "gen3":
                    violations.append(("gen3-corner", eta, eps, t0, 1e3, w))
    # high gate error belongs to purify-and-swap at both distances
    for eps in [e for e in EPS_GRID if e >= 1.5e-2]:
        for eta in ETA_GRID:
            for t0 in T0_GRID:
                for l_tot in (1e3, 1e4):
                    w = _winner(eta, eps, t0, l_tot)
                    if w != "gen1":
                        violations.append(("gen1-region", eta, eps, t0, l_tot, w))
    # one bare-chain point
    w = _winner(0.5, 1e-4, 1e-5, 1e3)
    if w != "gen2_noenc":
        violations.append(("gen2-point", 0.5, 1e-4, 1e-5, 1e3, w))
    # swap-chain to purify-and-swap flip brackets the gate-error sweep
    w_low = _winner(0.8, 3e-3, 1e-6, 1e3)
    if w_low not in ("gen2_noenc", "gen2_enc"):
        violations.append(("flip-low", 0.8, 3e-3, 1e-6, 1e3, w_low))
    w_high = _winner(0.8, 1.5e-2, 1e-6, 1e3)
    if w_high != "gen1":
        violations.append(("flip-high", 0.8, 1.5e-2, 1e-6, 1e3, w_high))
    ok = not violations
    detail = "all four region clauses hold"
    if violations:
        detail = (
            f"{len(violations)} grid points violate the purify-and-swap clause: "
            + "; ".join(
                f"{tag} eta={eta} eps={eps:.6g} t0={t0:.3g} L={l:g} winner={w}"
                for tag, eta, eps, t0, l, w in violations[:4]
            )
            + (" ..." if len(violations) > 4 else "")
            + " | at perfect coupling the loss-tolerant one-way code stays optimal"
            " for moderate gate errors, so this clause cannot hold there under"
            " the pinned equations; see README, known limitations"
        )
    line = _report(5, ok, detail)
    assert ok, line


def test_criterion_6_keyrate_threshold():
    lo, hi = 0.05, 0.2
    assert secure_fraction(lo) > 0.0 and secure_fraction(hi) == 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if secure_fraction(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    ok = abs(root - 0.110028) <= 1e-5
    ok = ok and secure_fraction(root + 2e-5) == 0.0 and secure_fraction(root - 2e-5) > 0.0
    # witnesses past the threshold: every family reports infeasible
    noisy1 = HardwareParams(eta_c=0.9, eps_g=0.04, t0=1e-6)
    state, _ = ladder("deutsch", (0,) * 6, noisy1.eps_g, noisy1.xi)
    ok = ok and average_qber(state.qber_x, state.qber_z) > root
    ok = ok and not gen1.evaluate(noisy1, Gen1Config("deutsch", 5, (0,) * 6), 1000.0).feasible
    noisy2 = HardwareParams(eta_c=0.9, eps_g=1e-2, t0=1e-6)
    chain = swap_chain(elementary_pair(noisy2.eps_g), 100, noisy2.eps_g, noisy2.xi)
    ok = ok and average_qber(chain.qber_x, chain.qber_z) > root
    ok = ok and not gen2.evaluate_no_encoding(noisy2, Gen2NoEncConfig(16, 10.0), 1000.0).feasible
    eps_phys = gen2.physical_error_rate(noisy2)
    ok = ok and gen2.encoded_qber(STEANE, eps_phys, 100) > root
    ok = ok and not gen2.evaluate_encoded(noisy2, Gen2EncConfig(STEANE, 64, 10.0), 1000.0).feasible
    noisy3 = HardwareParams(eta_c=1.0, eps_g=0.04, t0=1e-6)
    batch = gen3.station_outcome((2,), (2,), (math.exp(-1.0 / 20.0),), 0.03)
    ratio_z, ratio_x = batch[0].item(), batch[1].item()
    q = average_qber(0.5 * (1 - ratio_x**1000), 0.5 * (1 - ratio_z**1000))
    ok = ok and q > root
    ok = ok and not gen3.evaluate(noisy3, Gen3Config(2, 2, 1.0), 1000.0).feasible
    line = _report(6, ok, f"threshold root {root:.6f}, all families infeasible beyond it")
    assert ok, line


def test_criterion_7_waiting_time_sampler():
    # one swap level, no purification: inside the retry bookkeeping band
    perfect = HardwareParams.ideal_gates(eta_c=0.9, eps_g=0.0, eps_d=0.0)
    est = mc_gen1_waiting_time("deutsch", 1, (0, 0), perfect, 100.0, trials=10**5, seed=0)
    want = gen1.waiting_time(perfect, Gen1Config("deutsch", 1, (0, 0)), 100.0)
    rel = (est.mean_s - want) / want
    ok = abs(rel) < 0.15
    # certain success collapses the distribution to one signal time exactly;
    # heralded generation succeeds at most half the time, so the public entry
    # point cannot reach this limit and the sampler core is driven directly
    t_signal = 2.5e-5
    stream = oracles._UniformStream(oracles._partition_rng(0, 0))
    draws = {
        oracles._sample_deutsch(stream, ((),), 0, 1.0, t_signal, 0.0)
        for _ in range(2000)
    }
    ok = ok and draws == {t_signal}
    # standard error falls as the square root of the sample count
    small = mc_gen1_waiting_time("deutsch", 1, (0, 0), perfect, 100.0, trials=10**5, seed=1)
    large = mc_gen1_waiting_time("deutsch", 1, (0, 0), perfect, 100.0, trials=2 * 10**5, seed=2)
    se_ratio = small.std_error_s / large.std_error_s
    ok = ok and abs(se_ratio - math.sqrt(2.0)) < 0.1
    line = _report(
        7, ok, f"band {rel:+.2%}, deterministic limit exact, se ratio {se_ratio:.3f}"
    )
    assert ok, line


def test_criterion_8_region_map_determinism(tmp_path):
    start = time.time()
    assert cli.main(["region-map", "--out", str(tmp_path / "a.csv")]) == 0
    elapsed = time.time() - start
    assert cli.main(["region-map", "--out", str(tmp_path / "b.csv")]) == 0
    assert cli.main(["region-map", "--out", str(tmp_path / "c.csv"), "--threads", "2"]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    rows = first.decode().splitlines()
    ok = len(rows) == 6 + 1 + 1000
    ok = ok and elapsed < 600.0
    ok = ok and (tmp_path / "b.csv").read_bytes() == first
    ok = ok and (tmp_path / "c.csv").read_bytes() == first
    line = _report(8, ok, f"1000 rows in {elapsed:.0f}s, reruns and threads byte-identical")
    assert ok, line
