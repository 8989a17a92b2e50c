"""Rank-bounded name universes for the tests' sweeps.

The library certifies its statements about names on algebra elements and
builds no universe; the tests keep universe sweeps as the oracles that
cross-check those certificates.
"""

from forcinglab.config import CapExceeded
from forcinglab.names import NameUniverse, name_universe, sampled_universe


def working_universe(algebra, rank: int, cap: int | None = None) -> NameUniverse:
    """The full rank-bounded universe when it fits the cap, else the
    deterministic structured sample (flagged non-exhaustive)."""
    try:
        return name_universe(algebra, rank, cap=cap)
    except CapExceeded:
        return sampled_universe(algebra, rank, cap=cap)
