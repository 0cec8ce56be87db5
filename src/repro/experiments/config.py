"""Experiment scales: paper ratios at laptop-friendly packet counts.

The paper's headline run is a 6-hour, 24.63K pps trace plus a 500K pps
attack against a {4 x 20}-bitmap.  Pure-Python packet processing cannot do
that in CI time, so each scale shrinks *absolute* rates and durations while
pinning the quantities the results actually depend on:

- the attack:normal rate ratio (20x, Section 4.3);
- the filter timing (k = 4, dt = 5 s, Te = 20 s);
- the utilization regime: the paper's current-vector utilization is
  ``U = c*m/2**n ~ 15K*3/2**20 ~ 4.3%``; each scale picks ``n`` so the scaled
  active-connection count lands in the same few-percent band (asserted by
  ``benchmarks/test_fig5_attack.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bitmap_filter import FilterConfig


@dataclass(frozen=True)
class ExperimentScale:
    """One consistent set of scaled experiment parameters."""

    name: str
    duration: float          # trace length in seconds
    normal_pps: float        # target normal packet rate
    bitmap_order: int        # n, chosen to match the paper's utilization band
    attack_multiplier: float = 20.0   # attack rate / normal rate (paper: 20x)
    attack_start_fraction: float = 1.0 / 3.0  # when the attack begins
    attack_duration_fraction: float = 0.5     # how long it lasts
    num_vectors: int = 4     # k (paper value)
    num_hashes: int = 3      # m (paper value)
    rotation_interval: float = 5.0  # dt (paper value)
    spi_idle_timeout: float = 240.0  # Windows TIME_WAIT (paper value)
    seed: int = 42

    @property
    def expiry_timer(self) -> float:
        return self.num_vectors * self.rotation_interval

    @property
    def attack_pps(self) -> float:
        return self.normal_pps * self.attack_multiplier

    @property
    def attack_start(self) -> float:
        return self.duration * self.attack_start_fraction

    @property
    def attack_duration(self) -> float:
        return self.duration * self.attack_duration_fraction

    def bitmap_config(self, order: int = None) -> FilterConfig:
        return FilterConfig(
            order=order if order is not None else self.bitmap_order,
            num_vectors=self.num_vectors,
            num_hashes=self.num_hashes,
            rotation_interval=self.rotation_interval,
            seed=self.seed,
        )


#: Fast scale for CI and the test suite (~100K normal packets).
SMALL = ExperimentScale(name="small", duration=120.0, normal_pps=400.0, bitmap_order=15)

#: Default scale for the benchmark harness and CLI (~500K normal packets).
MEDIUM = ExperimentScale(name="medium", duration=300.0, normal_pps=800.0, bitmap_order=16)

#: Heavier scale for overnight runs (~1.2M normal packets, 24M attack).
LARGE = ExperimentScale(name="large", duration=600.0, normal_pps=2000.0, bitmap_order=17)

SCALES = {scale.name: scale for scale in (SMALL, MEDIUM, LARGE)}


def get_scale(name: str) -> ExperimentScale:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None
