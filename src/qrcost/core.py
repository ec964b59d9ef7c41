"""Shared value types: Bell-diagonal states, hardware parameters, protocol configs.

Units used throughout the package: distances in km, times in seconds, rates in
secret bits per second. Error probabilities are dimensionless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

ATTENUATION_KM = 20.0  # fiber attenuation length
FIBER_SPEED_KM_S = 2.0e5  # signal velocity in fiber

# Elementary-pair model is a leading-order expansion; beyond this gate error
# the implied fidelity bound loses meaning.
MAX_GATE_ERROR = 0.04

GEN1_SCHEMES = ("deutsch", "dur")  # purification schemes, see Gen1Config

_RENORM_TOL = 1e-9


def _any(flags) -> bool:
    """A comparison's truth for a float, or whether any element holds for an
    array."""
    return flags.any() if hasattr(flags, "any") else flags


def libm(fn, *args):
    """fn(*args) for numbers. Given arrays (broadcast together, numbers
    included), fn of each element through the C math library, as scalar code
    computes it: numpy's own exp, log and power loops can differ from libm in
    the last bit."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return fn(*args)
    columns = np.broadcast_arrays(*args) if len(args) > 1 else args
    flat = [column.ravel().tolist() for column in columns]
    return np.fromiter(map(fn, *flat), float, len(flat[0])).reshape(columns[0].shape)


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... elementwise, added left to right: the last
    partial sum of np.cumsum(terms, axis=0), without writing the others.
    Builtin sum() of floats is compensated from Python 3.12 on, and numpy
    sums a lone contiguous axis pairwise, so neither keeps these bits. numpy
    reduces the outer axis of a C-contiguous array one term at a time across
    the other elements; with a single other element that axis is all that is
    left, so it takes the cumsum."""
    if math.prod(terms.shape[1:]) == 1:
        return np.cumsum(terms, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(terms), axis=0)


def _checked_total(a, b, c, d):
    """The left-to-right sum of Bell weights (floats or arrays), after
    checking that none is negative and that it lies within the tolerance
    of 1."""
    if _any((a < 0.0) | (b < 0.0) | (c < 0.0) | (d < 0.0)):
        raise ValueError(f"Bell weights must be non-negative, got {(a, b, c, d)}")
    total = ((a + b) + c) + d
    if _any(abs(total - 1.0) > _RENORM_TOL):
        raise ValueError(f"Bell weights must sum to 1, got {total!r}")
    return total


def _renormalized(a, b, c, d) -> tuple:
    """The Bell weights (floats or arrays) divided by their checked total
    (see _checked_total): the step every BellDiagonalState applies. Dividing
    by exactly 1.0 keeps every bit."""
    total = _checked_total(a, b, c, d)
    return a / total, b / total, c / total, d / total


@dataclass(frozen=True)
class BellDiagonalState:
    """Diagonal two-qubit state in the Bell basis.

    Weights (a, b, c, d) sit on |phi+>, |phi->, |psi+>, |psi->; the fidelity
    with respect to |phi+> is `a`. Weights must be non-negative and sum to 1
    (tiny float drift up to 1e-9 is silently renormalized).

    The weights may also be numpy arrays of one shape: a batch of states,
    checked and renormalized elementwise by the same arithmetic, and accepted
    by `pairs.purify` and `pairs.swap`. A batch supports no == or hash.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name, value in zip("abcd", _renormalized(*self.as_tuple())):
            object.__setattr__(self, name, value)

    @property
    def fidelity(self) -> float:
        return self.a

    @property
    def qber_x(self) -> float:
        """Bit-flip weight seen in the X basis."""
        return self.b + self.d

    @property
    def qber_z(self) -> float:
        """Bit-flip weight seen in the Z basis."""
        return self.c + self.d

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def _normalized(a, b, c, d) -> BellDiagonalState:
    """A state of weights that BellDiagonalState already renormalized, such
    as a row re-packed from a batch: checked again but not divided again,
    since renormalizing twice can move the last bit."""
    _checked_total(a, b, c, d)
    state = object.__new__(BellDiagonalState)
    for name, value in zip("abcd", (a, b, c, d)):
        object.__setattr__(state, name, value)
    return state


def werner_state(fidelity: float) -> BellDiagonalState:
    """Bell-diagonal state with the three non-target weights equal."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    rest = (1.0 - fidelity) / 3.0
    return BellDiagonalState(fidelity, rest, rest, rest)


@dataclass(frozen=True)
class HardwareParams:
    """Physical-layer parameters shared by every repeater generation.

    xi is the measurement error probability; when omitted it defaults to
    eps_g / 4 (one two-qubit gate spread over the four Bell outcomes) and
    stays coupled to eps_g through with_(). An explicit xi stays as given.
    Building a point, with_() included, checks every field; t0 = 0 needs
    ideal_gates.
    """

    eta_c: float = 0.9  # photon-memory coupling efficiency
    eps_g: float = 1e-3  # two-qubit gate error probability
    xi: Optional[float] = None  # measurement error probability
    eps_d: float = 0.0  # single-qubit depolarizing error (encoded schemes)
    t0: float = 1e-6  # gate/measurement time, s
    l_att: float = ATTENUATION_KM  # attenuation length, km
    c_fiber: float = FIBER_SPEED_KM_S  # fiber signal speed, km/s

    def __post_init__(self) -> None:
        # an instance attribute, not a field: asdict, == and hash ignore it
        object.__setattr__(self, "_xi_coupled", self.xi is None)
        if self.xi is None:
            object.__setattr__(self, "xi", self.eps_g / 4.0)
        problems = []
        for name, high in (("eta_c", 1), ("eps_g", MAX_GATE_ERROR), ("xi", 0.5), ("eps_d", 1)):
            if not 0.0 <= getattr(self, name) <= high:
                model = " for the elementary-pair model" if name == "eps_g" else ""
                problems.append(f"{name} must lie in [0, {high}]{model}, got {getattr(self, name)}")
        for name in ("t0", "l_att", "c_fiber"):
            if not 0.0 < getattr(self, name) < math.inf:
                problems.append(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def ideal_gates(cls, **fields) -> "HardwareParams":
        """The point of `fields` with gates that take no time, t0 = 0: an oracle
        point for gen1's waiting time. No search may price it (gen3 divides by t0)."""
        params = cls(t0=1.0, **fields)
        object.__setattr__(params, "t0", 0.0)
        return params

    def with_(self, **kwargs) -> "HardwareParams":
        if "xi" not in kwargs and self._xi_coupled:
            kwargs["xi"] = None
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Gen1Config:
    """Purify-and-swap architecture: nesting levels plus per-level pumping rounds.

    `rounds` has one entry per level 0..levels (elementary level included), so
    its length is levels + 1. `scheme` selects the purification bookkeeping:
    'deutsch' keeps both pairs between rounds, 'dur' pumps with a fresh
    elementary-level copy and restarts the level on failure.
    """

    scheme: str
    levels: int
    rounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.scheme not in GEN1_SCHEMES:
            raise ValueError(f"unknown purification scheme {self.scheme!r}")
        if self.levels < 0:
            raise ValueError("levels must be >= 0")
        if len(self.rounds) != self.levels + 1:
            raise ValueError(
                f"rounds must have levels+1 = {self.levels + 1} entries, got {len(self.rounds)}"
            )
        if any(m < 0 for m in self.rounds):
            raise ValueError("purification rounds must be >= 0")


def _check_distance(name: str, value: float, error: type = ValueError) -> None:
    """Every distance in km must be finite and > 0; raises `error` if not."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value}")


def segment_count(l_tot_km: float, spacing_km: float) -> int:
    """Fewest segments n whose computed length l_tot_km / n is at most
    spacing_km, counted down from one above the ceiling of the quotient. A
    third step never holds below a quotient of 2^53; above it, two steps
    keep the count within about an ulp instead of counting down the ulp.
    Where the quotient overflows, no float holds n or a length l_tot_km / n,
    and n is the exact ceiling of the quotient."""
    _check_distance("l_tot_km", l_tot_km)
    _check_distance("spacing_km", spacing_km)
    quotient = l_tot_km / spacing_km
    if quotient == math.inf:
        (a, b), (c, d) = l_tot_km.as_integer_ratio(), spacing_km.as_integer_ratio()
        return -(-a * d // (b * c))
    count = math.ceil(quotient) + 1
    for _ in range(2):
        if count > 1 and l_tot_km / (count - 1) <= spacing_km:
            count -= 1
    return count


def _check_swap_chain(config) -> None:
    if config.memories < 1:
        raise ValueError("memories must be >= 1")
    _check_distance("spacing_km", config.spacing_km)
    if config.gen_rounds < 1:
        raise ValueError("gen_rounds must be >= 1")


@dataclass(frozen=True)
class Gen2NoEncConfig:
    """Multiplexed swap chain without encoding."""

    memories: int  # multiplexed memory pairs per link, M
    spacing_km: float  # elementary link length L0
    gen_rounds: int = 1  # entanglement-generation attempts pooled per cycle

    def __post_init__(self) -> None:
        _check_swap_chain(self)


@dataclass(frozen=True)
class CssCode:
    """One-error-class CSS code used by the encoded gen-2 scheme."""

    n_phys: int  # physical qubits per logical qubit
    t: int  # correctable error weight

    def __post_init__(self) -> None:
        if self.n_phys < 1 or self.t < 0:
            raise ValueError("invalid code parameters")


STEANE = CssCode(7, 1)
GOLAY = CssCode(23, 3)
QR_103 = CssCode(103, 9)
CSS_CATALOG: tuple[CssCode, ...] = (STEANE, GOLAY, QR_103)


@dataclass(frozen=True)
class Gen2EncConfig:
    """Swap chain with CSS-encoded logical pairs."""

    code: CssCode
    memories: int
    spacing_km: float
    gen_rounds: int = 1

    def __post_init__(self) -> None:
        _check_swap_chain(self)


@dataclass(frozen=True)
class Gen3Config:
    """One-way scheme sending parity-code blocks through the fiber."""

    n: int  # number of blocks
    m: int  # photons per block
    spacing_km: float

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("code shape must be positive")
        _check_distance("spacing_km", self.spacing_km)


@dataclass(frozen=True)
class CostResult:
    """Rate and resource summary for one architecture at one distance."""

    rate_sbits_per_s: float
    qubits_per_station: int
    stations: int
    cost: float  # qubit-seconds per secret bit, summed over stations
    cost_coeff: float  # cost normalized by total distance, qubits*s / (sbit*km)
    feasible: bool = True

    @classmethod
    def infeasible(cls, qubits_per_station: int = 0, stations: int = 0) -> "CostResult":
        return cls(
            rate_sbits_per_s=0.0,
            qubits_per_station=qubits_per_station,
            stations=stations,
            cost=math.inf,
            cost_coeff=math.inf,
            feasible=False,
        )

    @classmethod
    def from_rate(cls, rate: float, qps: int, stations: int, l_tot_km: float) -> "CostResult":
        """C = stations * qps / rate and C' = C / L_tot; infeasible unless rate > 0
        (so a NaN rate is infeasible)."""
        if not rate > 0.0:
            return cls.infeasible(qps, stations)
        cost = stations * qps / rate
        return cls(rate, qps, stations, cost, cost / l_tot_km, True)
