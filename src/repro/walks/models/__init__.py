"""The unified random-walk model abstraction and the five Table I models.

A model is its dynamic edge weight w' (paper Fig. 3), the rule that fixes
the unnormalised transition distribution, written once for a wave of
walkers: ``batch_dynamic_weight(prev, prev_off, cur, step, edges)``.
Optionally it also declares ``batch_state_index`` (its M-H chain layout),
``kernel_spec`` (the rule's compiled kind) and
``enumerate_state_contexts`` (one context per state, for per-state
tables); everything else — state space size, rejection bounds — is
derived support on :class:`~repro.walks.models.base.RandomWalkModel`.

Models live in :data:`repro.registry.MODEL_REGISTRY`; third-party models
plug in with :func:`repro.registry.register_model` and then work by name
everywhere a built-in does (``UniNet``, ``RunSpec``, the CLI). Each
registration declares a ``param_spec`` capability describing its
constructor parameters, which drives CLI flags and spec validation.
"""

import inspect
from dataclasses import fields

from repro.config import WalkConfig
from repro.errors import ModelError
from repro.registry import MODEL_REGISTRY, register_model
from repro.walks.models.base import RandomWalkModel
from repro.walks.models.deepwalk import DeepWalk
from repro.walks.models.edge2vec import Edge2Vec
from repro.walks.models.fairwalk import FairWalk
from repro.walks.models.metapath2vec import MetaPath2Vec
from repro.walks.models.node2vec import Node2Vec

_P_SPEC = {"type": "float", "default": 1.0, "help": "return parameter p"}
_Q_SPEC = {"type": "float", "default": 1.0, "help": "in-out parameter q"}

register_model(
    "deepwalk", DeepWalk, second_order=False, needs_hetero=False, param_spec={}
)
register_model(
    "node2vec",
    Node2Vec,
    second_order=True,
    needs_hetero=False,
    param_spec={"p": _P_SPEC, "q": _Q_SPEC},
)
register_model(
    "metapath2vec",
    MetaPath2Vec,
    second_order=False,
    needs_hetero=True,
    param_spec={
        "metapath": {"type": "str", "default": "APA", "help": "node-type pattern"},
        "type_names": {"cli": False},
    },
)
register_model(
    "edge2vec",
    Edge2Vec,
    second_order=True,
    needs_hetero=True,
    param_spec={"p": _P_SPEC, "q": _Q_SPEC, "transition_matrix": {"cli": False}},
)
register_model(
    "fairwalk",
    FairWalk,
    second_order=True,
    needs_hetero=True,
    param_spec={"p": _P_SPEC, "q": _Q_SPEC},
)

__all__ = [
    "RandomWalkModel",
    "DeepWalk",
    "Node2Vec",
    "MetaPath2Vec",
    "Edge2Vec",
    "FairWalk",
    "MODEL_REGISTRY",
    "register_model",
    "make_model",
]


def make_model(name, graph, **params) -> RandomWalkModel:
    """Instantiate a model by registry name, bound to ``graph``.

    Unknown names raise :class:`~repro.errors.ModelError` listing the
    registered models (with near-miss suggestions); a bound
    :class:`RandomWalkModel` instance passes through unchanged. ``params``
    are what an engine or :class:`~repro.UniNet` had left of its keywords
    after the :class:`~repro.config.WalkConfig` fields, so one the model
    does not take is named with both sets.

    >>> from repro.graph.generators import cycle_graph
    >>> model = make_model("node2vec", cycle_graph(5), p=0.25, q=4.0)
    >>> model.name
    'node2vec'
    """
    if isinstance(name, RandomWalkModel):
        return name
    if not isinstance(name, str):
        raise ModelError(
            f"model must be a registry name or a RandomWalkModel instance, "
            f"got {type(name).__name__}"
        )
    cls = MODEL_REGISTRY.get(name)
    accepted = inspect.signature(cls).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown and not any(p.kind is p.VAR_KEYWORD for p in accepted.values()):
        raise ModelError(
            f"unknown keyword(s) {unknown}: model {name!r} takes {list(accepted)[1:]}, and "
            f"a walk engine's own keywords are {[f.name for f in fields(WalkConfig)]}"
        )
    return cls(graph, **params)
