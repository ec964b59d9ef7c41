"""Monte Carlo cross-checks for the analytic decode and waiting-time models.

Both oracles use the counter-based Philox generator. Trials are split into
fixed-size partitions, each seeded by spawning the root seed with the
partition index, and partial tallies combine by addition, so estimates are
reproducible from (inputs, seed) and independent of partition scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Gen1Config, HardwareParams, _check_distance
from .gen1 import _link, ladder_success_probs

GENERATOR_NAME = "philox"

_QPC_PARTITION = 1 << 16
_TIME_PARTITION = 1 << 12


@dataclass(frozen=True)
class DecodeEstimate:
    """Sampled decoder outcome frequencies with binomial standard errors."""

    p_correct: float
    p_incorrect: float
    p_unknown: float
    se_correct: float
    se_incorrect: float
    se_unknown: float
    trials: int
    seed: int
    generator: str = GENERATOR_NAME


@dataclass(frozen=True)
class WaitingTimeEstimate:
    """Sampled mean waiting time with its standard error."""

    mean_s: float
    std_error_s: float
    trials: int
    seed: int
    generator: str = GENERATOR_NAME


def _partition_rng(seed: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def _tally_z(arrived: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    wrong = (arrived & flipped).sum(axis=2)
    right = arrived.sum(axis=2) - wrong
    block_unknown = right == wrong  # empty sub-block or split vote
    block_wrong = wrong > right
    unknown = block_unknown.any(axis=1)
    incorrect = ~unknown & (block_wrong.sum(axis=1) % 2 == 1)
    correct = ~unknown & ~incorrect
    return np.array(
        [correct.sum(), incorrect.sum(), unknown.sum()], dtype=np.int64
    )


def _tally_x(arrived: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    complete = arrived.all(axis=2)
    parity_flip = flipped.sum(axis=2) % 2 == 1
    wrong = (complete & parity_flip).sum(axis=1)
    right = complete.sum(axis=1) - wrong
    unknown = right == wrong  # no complete sub-block or split vote
    incorrect = ~unknown & (wrong > right)
    correct = ~unknown & ~incorrect
    return np.array(
        [correct.sum(), incorrect.sum(), unknown.sum()], dtype=np.int64
    )


def mc_qpc_decode(
    n: int,
    m: int,
    mu: float,
    eps_q: float,
    basis: str,
    trials: int = 10**6,
    seed: int = 0,
) -> DecodeEstimate:
    """Sample one station's majority-vote decode outcomes for an (n, m) code.

    Every trial draws per-qubit arrivals (probability mu) and readout flips
    (probability eps_q) and applies the same decision rule as the analytic
    convolution: Z reads each sub-block by majority of its arrived qubits and
    takes the parity across sub-blocks; X reads the parity of each fully
    arrived sub-block and takes the majority across them; any split or empty
    vote is a heralded unknown.
    """
    basis = basis.lower()
    if basis not in ("x", "z"):
        raise ValueError(f"basis must be 'x' or 'z', got {basis!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 <= mu <= 1.0 and 0.0 <= eps_q <= 1.0):
        raise ValueError("mu and eps_q must lie in [0, 1]")
    tally = _tally_z if basis == "z" else _tally_x
    counts = np.zeros(3, dtype=np.int64)
    done = 0
    part = 0
    while done < trials:
        batch = min(_QPC_PARTITION, trials - done)
        rng = _partition_rng(seed, part)
        arrived = rng.random((batch, n, m)) < mu
        flipped = rng.random((batch, n, m)) < eps_q
        counts += tally(arrived, flipped)
        done += batch
        part += 1
    p = counts / trials
    se = np.sqrt(p * (1.0 - p) / trials)
    return DecodeEstimate(
        float(p[0]), float(p[1]), float(p[2]),
        float(se[0]), float(se[1]), float(se[2]),
        trials, seed,
    )


class _UniformStream:
    """Buffered uniforms from one generator, consumed strictly in order."""

    def __init__(self, rng: np.random.Generator, block: int = 1 << 14):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._idx = 0

    def next(self) -> float:
        if self._idx == self._block:
            self._buf = self._rng.random(self._block)
            self._idx = 0
        u = self._buf[self._idx]
        self._idx += 1
        return float(u)

    def geometric(self, p: float) -> int:
        # inversion of the geometric CDF; one uniform per draw
        u = self.next()
        if p >= 1.0:
            return 1
        return 1 + int(math.log1p(-u) // math.log1p(-p))


def _sample_deutsch(
    stream: _UniformStream,
    probs: tuple[tuple[float, ...], ...],
    level: int,
    p0: float,
    t_signal: float,
    t0: float,
) -> float:
    def entry(k: int) -> float:
        if k == 0:
            return t_signal * stream.geometric(p0)
        return max(finished(k - 1), finished(k - 1)) + t0

    def pumped(k: int, j: int) -> float:
        if j == 0:
            return entry(k)
        c = t0 + 2**k * t_signal
        total = 0.0
        while True:
            total += max(pumped(k, j - 1), pumped(k, j - 1)) + c
            if stream.next() < probs[k][j - 1]:
                return total

    def finished(k: int) -> float:
        return pumped(k, len(probs[k]))

    return finished(level)


def _sample_dur(
    stream: _UniformStream,
    probs: tuple[tuple[float, ...], ...],
    level: int,
    p0: float,
    t_signal: float,
    t0: float,
) -> float:
    def entry(k: int) -> float:
        if k == 0:
            return t_signal * stream.geometric(p0)
        return max(finished(k - 1), finished(k - 1)) + t0

    def finished(k: int) -> float:
        c = t0 + 2**k * t_signal
        total = 0.0
        while True:
            total += entry(k)  # the stored pair
            ok = True
            for j in range(len(probs[k])):
                total += entry(k) + c  # fresh auxiliary pair each round
                if not stream.next() < probs[k][j]:
                    ok = False  # any failure restarts the whole level
                    break
            if ok:
                return total

    return finished(level)


def mc_gen1_waiting_time(
    scheme: str,
    levels: int,
    rounds: tuple[int, ...],
    params: HardwareParams,
    l_tot_km: float,
    trials: int = 10**5,
    seed: int = 0,
) -> WaitingTimeEstimate:
    """Sample the end-to-end waiting time of a purify-and-swap chain.

    Event-driven mirror of the mean-value recursion: elementary generation
    retries geometrically at the heralded success probability, every
    purification round draws a Bernoulli success from the analytic ladder,
    failures rebuild exactly what the recursion's product structure rebuilds,
    and each round pays the gate time plus the level's heralding delay. The
    only modeling difference is that parallel pair production samples a true
    maximum where the analytic form charges 3/2 of one mean, which is the
    documented bias band of the closed form.
    """
    config = Gen1Config(scheme=scheme, levels=levels, rounds=tuple(rounds))
    if levels > 3 or sum(config.rounds) > 3:
        raise ValueError("oracle scale bound: levels <= 3 and total rounds <= 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_distance("l_tot_km", l_tot_km)
    t_signal, p0 = _link(params, levels, l_tot_km)
    probs = ladder_success_probs(params, config)
    sampler = _sample_deutsch if scheme == "deutsch" else _sample_dur

    total = 0.0
    total_sq = 0.0
    done = 0
    part = 0
    while done < trials:
        batch = min(_TIME_PARTITION, trials - done)
        stream = _UniformStream(_partition_rng(seed, part))
        for _ in range(batch):
            t = sampler(stream, probs, levels, p0, t_signal, params.t0)
            total += t
            total_sq += t * t
        done += batch
        part += 1
    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        se = math.sqrt(var / trials)
    else:
        se = 0.0
    return WaitingTimeEstimate(mean, se, trials, seed)
