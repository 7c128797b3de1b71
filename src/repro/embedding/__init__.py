"""Embedding learning: word2vec for walk corpora.

The paper's learning phase feeds the generated walks into word2vec
(skip-gram or CBOW) with negative sampling and SGD. This package
implements that trainer from scratch — on numpy, with the mini-batch
update compiled to C wherever the host has a compiler:

* :mod:`repro.embedding.vocab` — corpus vocabulary with frequency-ordered
  indexing and optional frequent-token subsampling;
* :mod:`repro.embedding.negative` — the unigram^0.75 negative-sampling
  distribution;
* :mod:`repro.embedding.word2vec` — mini-batched SGNS / CBOW training
  with dynamic windows and linear learning-rate decay, and the NumPy
  reference definition of a batch update;
* :mod:`repro.embedding.kernels` — the same batch update as one fused C
  routine (ctypes), selected whenever it can be built;
* :mod:`repro.embedding.keyed_vectors` — the queryable result
  (``most_similar``, cosine similarity, save/load).
"""

from repro.embedding.keyed_vectors import KeyedVectors
from repro.embedding.negative import NegativeSampler
from repro.embedding.vocab import Vocabulary
from repro.embedding.word2vec import Word2Vec

__all__ = ["Word2Vec", "KeyedVectors", "Vocabulary", "NegativeSampler"]
