"""Edge samplers.

This package implements the paper's M-H based edge sampler (Section III)
and every baseline it is compared against (Sections I, V):

========================  =========================  ==================
sampler                   time / sample              memory
========================  =========================  ==================
direct (Marsaglia 1963)   O(d)                       O(1)
alias (Walker 1977)       O(1)                       O(d · #state)
rejection (KnightKing)    O(1/θ), θ param-sensitive  O(|E|) proposal
KnightKing + folding      O(1/θ'), θ' ≥ θ            O(|E|) proposal
memory-aware (SIGMOD'20)  mixed                      ≤ budget
**M-H (this paper)**      O(1)                       O(#state)
========================  =========================  ==================

All samplers share the scalar interface of
:class:`~repro.sampling.base.EdgeSampler` and report memory through
:mod:`~repro.sampling.memory_model`, which also provides the simulated
out-of-memory budget used by the scalability benchmarks.

The scalar classes are registered in
:data:`repro.registry.SCALAR_SAMPLER_REGISTRY` (the reference engine's
dispatch); their vectorized twins live in
:data:`repro.registry.SAMPLER_REGISTRY` and are registered by
:mod:`repro.walks.vectorized`.
"""

from repro.registry import SCALAR_SAMPLER_REGISTRY, SamplerContext
from repro.sampling.alias import (
    AliasTable,
    FirstOrderAliasSampler,
    SecondOrderAliasSampler,
    build_alias_table,
)
from repro.sampling.base import EdgeSampler, SamplerStats
from repro.sampling.direct import DirectSampler
from repro.sampling.initialization import (
    BurnInInitializer,
    HighWeightInitializer,
    RandomInitializer,
    make_initializer,
)
from repro.sampling.knightking import KnightKingSampler
from repro.sampling.memory_aware import MemoryAwareSampler
from repro.sampling.memory_model import MemoryBudget, sampler_memory_estimate
from repro.sampling.metropolis import MetropolisHastingsSampler
from repro.sampling.rejection import RejectionSampler

def _mh_factory(graph, model, ctx):
    return MetropolisHastingsSampler(
        graph, model, initializer=ctx.initializer, budget=ctx.budget
    )


def _memory_aware_factory(graph, model, ctx):
    return MemoryAwareSampler(
        graph, model, table_budget_bytes=ctx.table_budget_bytes, budget=ctx.budget
    )


SCALAR_SAMPLER_REGISTRY.register(
    "mh",
    MetropolisHastingsSampler,
    aliases=("metropolis-hastings",),
    factory=_mh_factory,
    second_order=True,
    time_per_sample="O(1)",
    memory="O(#state)",
)
SCALAR_SAMPLER_REGISTRY.register(
    "direct",
    DirectSampler,
    factory=lambda graph, model, ctx: DirectSampler(),
    second_order=True,
    time_per_sample="O(d)",
    memory="O(1)",
)
SCALAR_SAMPLER_REGISTRY.register(
    "alias",
    SecondOrderAliasSampler,
    factory=lambda graph, model, ctx: SecondOrderAliasSampler(graph, model, budget=ctx.budget),
    second_order=True,
    time_per_sample="O(1)",
    memory="O(d * #state)",
)
SCALAR_SAMPLER_REGISTRY.register(
    "alias-first-order",
    FirstOrderAliasSampler,
    factory=lambda graph, model, ctx: FirstOrderAliasSampler(graph, budget=ctx.budget),
    second_order=False,
    time_per_sample="O(1)",
    memory="O(|E|)",
)
SCALAR_SAMPLER_REGISTRY.register(
    "rejection",
    RejectionSampler,
    factory=lambda graph, model, ctx: RejectionSampler(graph, budget=ctx.budget),
    second_order=True,
    time_per_sample="O(1/theta)",
    memory="O(|E|)",
)
SCALAR_SAMPLER_REGISTRY.register(
    "knightking",
    KnightKingSampler,
    factory=lambda graph, model, ctx: KnightKingSampler(graph, budget=ctx.budget),
    second_order=True,
    time_per_sample="O(1/theta')",
    memory="O(|E|)",
)
SCALAR_SAMPLER_REGISTRY.register(
    "memory-aware",
    MemoryAwareSampler,
    factory=_memory_aware_factory,
    second_order=True,
    needs_table_budget=True,
    time_per_sample="mixed",
    memory="<= budget",
)

#: Mapping view over the scalar sampler registry (canonical name ->
#: :class:`EdgeSampler` class). Aliases like ``"metropolis-hastings"``
#: resolve on lookup but are not iterated.
SAMPLERS = SCALAR_SAMPLER_REGISTRY

__all__ = [
    "EdgeSampler",
    "SamplerStats",
    "AliasTable",
    "build_alias_table",
    "FirstOrderAliasSampler",
    "SecondOrderAliasSampler",
    "DirectSampler",
    "RejectionSampler",
    "KnightKingSampler",
    "MemoryAwareSampler",
    "MetropolisHastingsSampler",
    "RandomInitializer",
    "HighWeightInitializer",
    "BurnInInitializer",
    "make_initializer",
    "MemoryBudget",
    "sampler_memory_estimate",
    "SAMPLERS",
    "SCALAR_SAMPLER_REGISTRY",
    "SamplerContext",
]
