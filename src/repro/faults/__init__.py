"""``repro.faults`` — deterministic fault injection for chaos testing.

Everything here exists to answer one engineering question: *does the
stack actually deliver its resilience guarantees under failure?*  The
package provides a seeded, exactly-replayable fault schedule
(:class:`FaultPlan` — every decision derived via
:func:`repro.rng.derive_seed`, never wall-clock or OS randomness) and
injection wrappers for the two seams where real systems fail:

* **storage** — :class:`FaultyDevice` (a
  :class:`~repro.store.StorageBackend` with EIO and torn block writes)
  and :class:`FaultyFile` (a WAL segment handle with torn writes, silent
  corruption, and fsync failures);
* **transport** — :class:`FaultyProxy` (a TCP relay dropping, delaying,
  and truncating reply frames).

A chaos run is then: build a plan from a seed, wire the wrappers in,
run a workload through :class:`~repro.serve.ResilientClient`, and assert
the outcome equals a fault-free run byte-for-byte.  When a randomized
round fails, its seed plus ``plan.history`` reproduce it exactly.
"""

from .device import FaultyDevice, FaultyFile
from .plan import FaultPlan
from .transport import FaultyProxy

__all__ = [
    "FaultPlan",
    "FaultyDevice",
    "FaultyFile",
    "FaultyProxy",
]
