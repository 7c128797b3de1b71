"""Random-walk generation: models, state management and walk engines.

This package realises the paper's Section IV:

* :mod:`repro.walks.models` — the unified random-walk model abstraction
  (one method, ``batch_dynamic_weight``: the dynamic edge weight for a
  wave of walker states) and the five published models of Table I.
* :mod:`repro.walks.manager` — the flat chain store behind the 2D
  (position, affixture) sampler layout of Fig. 4.
* :mod:`repro.walks.vectorized` — the walk engine (Algorithm 2) and the
  edge samplers' steppers: all walkers of a wave advance in lock-step
  numpy operations. ``generate`` returns the whole corpus,
  ``generate_stream`` the same walks as bounded shards; those two are
  the only ways a corpus is made.
* :mod:`repro.walks.corpus` — the generated walk corpus fed to word2vec.
"""

from repro.walks.corpus import WalkCorpus
from repro.walks.manager import ChainStore
from repro.walks.models import MODEL_REGISTRY, make_model, register_model
from repro.walks.vectorized import StepperBase, VectorizedWalkEngine

__all__ = [
    "ChainStore",
    "WalkCorpus",
    "VectorizedWalkEngine",
    "StepperBase",
    "MODEL_REGISTRY",
    "make_model",
    "register_model",
]
