"""Closed-form performance model of the consortium consensus round.

Two families of quantities live here:

* Structural transmission times, computed from message sizes and per-node
  link bandwidth: each of the three network-bound steps moves a known
  number of bytes through one node's serialized link, so its duration is
  a closed form in the node count and the size parameters.

* Fitted curves, taken as given from measurements of a reference
  prototype deployment (six deployment sizes, n = 3..8): per-step
  computation-time fits, a cubic fit of the whole round, a cubic fit of
  the transmission share, and the derived scaling/throughput curves.
  Their numerators are in decimal megabytes and the bandwidth argument
  is expressed in MB/s inside those forms.

The two transmission descriptions disagree: evaluating the structural
byte counts under the reference prototype's size parameters gives a
linear-in-n megabyte coefficient near 0.401, while the fitted cubic
says 0.3213.  `transmission_coefficient_report` quantifies that gap;
the structural form is what the round simulator realizes, the fitted
form is what the scaling/throughput curves compose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

MEGABYTE = 1_000_000  # decimal, matching the fitted curves' unit convention

# Measured per-step means from the reference prototype deployment:
# n -> (step1, step2, step3, step4, whole round, throughput tx/s)
REFERENCE_TIMINGS: dict[int, tuple[float, float, float, float, float, float]] = {
    3: (0.0311, 0.0642, 0.0255, 0.0217, 0.132, 223706.0),
    4: (0.0326, 0.0750, 0.0323, 0.0268, 0.150, 263583.0),
    5: (0.0377, 0.0861, 0.0295, 0.0319, 0.163, 302719.0),
    6: (0.0416, 0.0986, 0.0367, 0.0377, 0.189, 315861.0),
    7: (0.0470, 0.1130, 0.0392, 0.0419, 0.217, 322992.0),
    8: (0.0505, 0.1300, 0.0552, 0.0477, 0.252, 314743.0),
}


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Size and role parameters of one consensus deployment.

    Defaults mirror the reference prototype: every node bookkeeps, the
    round leader sits out of the voting set, and message sizes are the
    prototype's (40-byte transactions, 10,000 per block, 125 MB/s full-
    duplex links).
    """

    node_count: int = 3
    bookkeepers: int | None = None       # default: node_count
    voters: int | None = None            # default: node_count - 1
    msg_bytes: int = 266                 # fixed per-message envelope
    block_header_bytes: int = 692
    tx_bytes: int = 40
    txs_per_block: int = 10_000
    vote_header_bytes: int = 400
    vote_per_block_bytes: int = 100
    result_header_bytes: int = 170
    result_per_block_bytes: int = 400
    band: float = 125e6                  # bytes/second, per node, each direction

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ModelError("need at least two nodes")
        if self.bookkeepers is None:
            object.__setattr__(self, "bookkeepers", self.node_count)
        if self.voters is None:
            object.__setattr__(self, "voters", self.node_count - 1)
        for name in ("msg_bytes", "block_header_bytes", "tx_bytes",
                     "txs_per_block", "vote_header_bytes", "vote_per_block_bytes",
                     "result_header_bytes", "result_per_block_bytes"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive")
        if self.band <= 0:
            raise ModelError("band must be positive")
        if self.voters < 1 or self.bookkeepers < 1:
            raise ModelError("need at least one bookkeeper and one voter")

    @property
    def peers(self) -> int:
        """Distinct nodes a broadcast reaches besides the sender: the
        smaller role set lies within the larger one."""
        return max(self.bookkeepers, self.voters) - 1


# -- structural message sizes and transmission times ---------------------------

def block_message_bytes(p: ModelParams) -> int:
    return p.msg_bytes + p.block_header_bytes + p.tx_bytes * p.txs_per_block


def vote_message_bytes(p: ModelParams) -> int:
    return p.msg_bytes + p.vote_header_bytes + p.bookkeepers * p.vote_per_block_bytes


def result_message_bytes(p: ModelParams) -> int:
    return (p.msg_bytes + p.result_header_bytes
            + p.bookkeepers * p.result_per_block_bytes
            + p.voters * (p.vote_header_bytes
                          + p.bookkeepers * p.vote_per_block_bytes))


def transmission_times(p: ModelParams) -> tuple[float, float, float]:
    """Per-step network time: block broadcast, vote collection, result broadcast.

    Step 1: every peer's downlink takes `peers` equal blocks back to back.
    Step 2: the leader's downlink takes one vote message per voter.
    Step 3: the leader's uplink pushes the sealed result to every peer.
    """
    t1 = p.peers * block_message_bytes(p) / p.band
    t2 = p.voters * vote_message_bytes(p) / p.band
    t3 = p.peers * result_message_bytes(p) / p.band
    return t1, t2, t3


def transmission_total(p: ModelParams) -> float:
    t1, t2, t3 = transmission_times(p)
    return t1 + t2 + t3


# -- fitted curves from the reference prototype --------------------------------

def step_computation_fits(n: int | float) -> tuple[float, float, float, float]:
    """Computation time of each step versus node count (linear/quadratic fits).

    Step 1 is the bookkeeper's packing work, step 2 the voter's block
    validation, step 3 the leader's tally-and-seal, step 4 the per-node
    group check and store.
    """
    c1 = 0.0041 * n + 0.0174
    c2 = 0.0130 * n + 0.0229
    c3 = 0.0012 * n * n - 0.0082 * n + 0.0415
    c4 = 0.0052 * n + 0.0062
    return c1, c2, c3, c4


def consensus_time_fit(n: int | float) -> float:
    """Cubic fit of the whole measured round versus node count."""
    return (0.0312 * n**3 - 0.1920 * n**2 + 2.0714 * n + 11.2500) / 125.0


# (a, b, c, d) of the transmission fit a*n**3 + b*n**2 + c*n + d
TRANSMISSION_FIT = (0.0001, 0.0008, 0.3213, -0.3214)


def fitted_transmission_mb(n: int | float) -> float:
    """Cubic fit of bytes moved per round, in decimal megabytes."""
    a, b, c, d = TRANSMISSION_FIT
    return a * n**3 + b * n**2 + c * n + d


def fitted_transmission_time(n: int | float, band: float = 125e6) -> float:
    """Transmission share of the round at a given link bandwidth (bytes/s)."""
    return fitted_transmission_mb(n) / (band / MEGABYTE)


def residual_computation_time(n: int | float) -> float:
    """Computation share of the round: whole-round fit minus its
    transmission share at the reference bandwidth (125 MB/s)."""
    return consensus_time_fit(n) - fitted_transmission_time(n, 125e6)


def printed_residual_poly(n: int | float) -> float:
    """The same computation share, as an expanded cubic (one ulp apart)."""
    return (0.0311 * n**3 - 0.1928 * n**2 + 1.7501 * n + 11.5714) / 125.0


def scaled_computation_time(n: int | float, speedup: float = 1.0) -> float:
    """Computation share on hardware `speedup` times faster than the
    reference, with the leader's serial sealing surcharge.

    The surcharge ratio's numerator is the leader-step fit plus the
    common per-node fit sum, its denominator that sum spread over all
    n nodes.
    """
    if speedup <= 0:
        raise ModelError("speedup must be positive")
    surcharge = (0.0012 * n * n + 0.0141 * n + 0.0880) / (n * (0.0223 * n + 0.0465))
    return residual_computation_time(n) / speedup * (1.0 + surcharge)


def scaled_consensus_time(n: int | float, speedup: float = 1.0,
                          band: float = 125e6) -> float:
    """Round time with scaled computation plus fitted transmission."""
    return scaled_computation_time(n, speedup) + fitted_transmission_time(n, band)


def throughput_limit(n: int | float, speedup: float = 1.0, band: float = 125e6,
                     txs_per_block: int = 10_000) -> float:
    """Upper bound on committed transactions per second: every node's
    block commits every round, one round pipeline."""
    return txs_per_block * n / scaled_consensus_time(n, speedup, band)


def sweep_grid(n_values: Sequence[int], speedups: Sequence[float],
               bands: Sequence[float],
               txs_per_block: int = 10_000) -> Iterator[dict[str, float]]:
    """Cartesian sweep of the scaling curves, one dict per grid point.

    t_comp is the plain computation residual over `a` and t_cons their
    sum, matching the whole-round fit at a=1 and the reference
    bandwidth.  The throughput column divides by the round time with
    the leader's sealing surcharge included, so t_cons * throughput is
    deliberately less than n * txs_per_block.  An empty axis, a node
    count below three, a speedup that is not finite and positive, a band
    that is not finite and at least one byte/second (as `SimConfig`
    requires; a subnormal band underflows to zero in MB/s), or
    txs_per_block below one raises ModelError at the first step.
    """
    if 0 in (len(n_values), len(speedups), len(bands)):
        raise ModelError("every sweep axis needs at least one value")
    if any(n < 3 for n in n_values):
        raise ModelError("need at least three nodes")
    if not all(0 < x < math.inf for x in speedups):
        raise ModelError("speedups must be finite and positive")
    if not all(1 <= x < math.inf for x in bands):
        raise ModelError("bands must be finite and at least one byte/second")
    if txs_per_block < 1:
        raise ModelError("txs_per_block must be positive")
    for n in n_values:
        for a in speedups:
            for band in bands:
                t_tran = fitted_transmission_time(n, band)
                t_comp = residual_computation_time(n) / a
                yield {
                    "n": n,
                    "a": a,
                    "band": band,
                    "t_tran": t_tran,
                    "t_comp": t_comp,
                    "t_cons": t_tran + t_comp,
                    "throughput": throughput_limit(n, a, band, txs_per_block),
                }


# -- consistency reporting -------------------------------------------------------

@dataclass(frozen=True)
class TransmissionCoefficientReport:
    """Cubic megabyte-per-round coefficients: structural counts vs fit."""

    structural: tuple[float, float, float, float]  # n^3, n^2, n, const
    fitted: tuple[float, float, float, float]
    linear_gap_ratio: float
    consistent: bool


def transmission_coefficient_report() -> TransmissionCoefficientReport:
    """Fit an exact cubic through the structural per-round megabytes at
    four node counts under the reference prototype's sizes and compare it
    with the fitted cubic's coefficients; a linear gap above 5% is
    inconsistent.
    """
    ns = np.array([2.0, 3.0, 4.0, 5.0])
    mb = []
    for n in ns:
        p = ModelParams(node_count=int(n))
        mb.append(transmission_total(p) * p.band / MEGABYTE)
    vander = np.vander(ns, 4)
    coeffs = np.linalg.solve(vander, np.array(mb))
    structural = tuple(float(c) for c in coeffs)
    gap = abs(structural[2] - TRANSMISSION_FIT[2]) / abs(TRANSMISSION_FIT[2])
    return TransmissionCoefficientReport(
        structural=structural,
        fitted=TRANSMISSION_FIT,
        linear_gap_ratio=gap,
        consistent=gap <= 0.05,
    )
