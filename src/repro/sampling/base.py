"""The edge sampler's one shared constant.

An edge sampler answers one question (paper Section III-A): *given the
walker state x at node v, draw the next edge from the transition
distribution G_x* — identified here by the global CSR offset of the chosen
edge entry. The samplers are the steppers of
:mod:`repro.walks.vectorized`, registered in
:data:`repro.registry.SAMPLER_REGISTRY`; each answers that question for a
whole wave of walkers at once and returns ``NO_EDGE`` for a walker whose
state has no positive-weight transition (e.g. a metapath dead end), which
terminates its walk.
"""

from __future__ import annotations

#: Sentinel returned when a state has no positive-weight out-edge.
NO_EDGE = -1
