"""Edge-sampler building blocks.

The paper's M-H based edge sampler (Section III) and every baseline it is
compared against (Sections I, V) are the steppers of
:mod:`repro.walks.vectorized`, registered in
:data:`repro.registry.SAMPLER_REGISTRY` under these names:

=====================  ======================  =========================  ==================
name                   stepper                 time / sample              memory
=====================  ======================  =========================  ==================
``direct``             ``_DirectStepper``      O(d)                       O(1)
``alias``              ``_AliasStepper``       O(1)                       O(d · #state)
``alias-first-order``  ``_AliasStepper``       O(1)                       O(|E|)
                       (static models only)
``rejection``          ``_RejectionStepper``   O(1/θ), θ param-sensitive  O(|E|) proposal
``knightking``         ``_RejectionStepper``   O(1/θ'), θ' ≥ θ            O(|E|) proposal
                       (outlier folding)
``memory-aware``       ``_MemoryAwareStepper`` mixed                      ≤ budget
**mh** (this paper)    ``_MHStepper``          O(1)                       O(#state)
=====================  ======================  =========================  ==================

(A static model's per-state tables are its per-node tables, O(|E|).) This
package holds what those steppers are built from: the one alias-table
store (:mod:`~repro.sampling.alias`), the memory-aware state assignment
(:mod:`~repro.sampling.memory_aware`), the M-H initialization strategies
(:mod:`~repro.sampling.initialization`: one class per strategy, whose
``init_chains`` starts every fresh chain of an M-H step at once) and the
memory accounting of :mod:`~repro.sampling.memory_model`, which also
provides the simulated out-of-memory budget used by the scalability
benchmarks.
"""

from repro.registry import SamplerContext
from repro.sampling.alias import build_alias_table
from repro.sampling.initialization import BurnInInit, HighWeightInit, RandomInit
from repro.sampling.memory_model import MemoryBudget, sampler_memory_estimate

__all__ = [
    "build_alias_table",
    "RandomInit",
    "HighWeightInit",
    "BurnInInit",
    "MemoryBudget",
    "sampler_memory_estimate",
    "SamplerContext",
]
