"""Path latency models.

The MFC synchronization scheduler assumes latencies are *stationary*
over the few minutes an experiment spans (paper §2.2.4, citing Zhang et
al., IMW 2001) but individual samples still jitter around the base
value.  :class:`StationaryJitterLatency` captures exactly that: a fixed
base round-trip time plus lognormal multiplicative jitter, so samples
are strictly positive and mildly right-skewed like real RTT series.
"""

from __future__ import annotations

import math
import random
from typing import Optional


class LatencyModel:
    """Interface: a distribution of round-trip times for one path."""

    __slots__ = ()

    #: base (noise-free) round-trip time in seconds
    base_rtt: float

    def sample_rtt(self) -> float:
        """Draw one round-trip-time sample in seconds."""
        raise NotImplementedError

    def sample_one_way(self) -> float:
        """Draw a one-way delay sample (half an RTT draw)."""
        return self.sample_rtt() / 2.0


class StationaryJitterLatency(LatencyModel):
    """Fixed base RTT with lognormal multiplicative jitter.

    ``jitter`` is the standard deviation of the underlying normal in
    log-space; 0 gives deterministic latencies.  A ``spike_prob`` tail
    models transient congestion: with that probability a sample is
    multiplied by ``spike_factor`` (PlanetLab nodes see such spikes
    regularly, and the check phase of the MFC algorithm exists to
    reject them).
    """

    __slots__ = ("base_rtt", "jitter", "spike_prob", "spike_factor", "_rng")

    def __init__(
        self,
        base_rtt: float,
        jitter: float = 0.05,
        rng: Optional[random.Random] = None,
        spike_prob: float = 0.0,
        spike_factor: float = 4.0,
    ) -> None:
        if base_rtt <= 0:
            raise ValueError(f"base_rtt must be positive, got {base_rtt}")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= spike_prob < 1.0:
            raise ValueError("spike_prob must be in [0, 1)")
        self.base_rtt = base_rtt
        self.jitter = jitter
        self.spike_prob = spike_prob
        self.spike_factor = spike_factor
        self._rng = rng if rng is not None else random.Random(0)

    def sample_rtt(self) -> float:
        if self.jitter == 0.0:
            rtt = self.base_rtt
        else:
            # mean-one lognormal so jitter does not bias the base RTT
            mu = -0.5 * self.jitter * self.jitter
            rtt = self.base_rtt * math.exp(self._rng.gauss(mu, self.jitter))
        if self.spike_prob and self._rng.random() < self.spike_prob:
            rtt *= self.spike_factor
        return rtt

    def __repr__(self) -> str:
        return (
            f"StationaryJitterLatency(base_rtt={self.base_rtt:.4f}, "
            f"jitter={self.jitter}, spike_prob={self.spike_prob})"
        )
