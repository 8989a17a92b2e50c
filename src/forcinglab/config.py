"""Default size caps for the exhaustive machinery.

Everything in this library is enumerated in full, so every entry point that
could blow up combinatorially is guarded by one of these caps.  Suites may
override individual caps; a cap hit aborts the sub-instance, never the run.
Name universes, which only the test oracles build, take their default cap
from :data:`forcinglab.names.UNIVERSE_CAP`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class CapExceeded(RuntimeError):
    """A configured enumeration cap would be exceeded."""


@dataclass(frozen=True)
class Caps:
    max_stages: int = 4                # iteration stage count bound
    max_stage_conditions: int = 64     # canonical conditions per stage poset
    algebra_max_base: int = 12         # atom bound for ro_algebra (2^atoms elements)
    hom_family_cap: int = 1 << 16      # subfamilies enumerated per completeness check

    def with_(self, **kw) -> "Caps":
        return replace(self, **kw)


DEFAULT_CAPS = Caps()
