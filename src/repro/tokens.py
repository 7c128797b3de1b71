"""The dtype of a walk token, declared once.

A walk corpus is a matrix of node ids, padded with -1, and it is the
largest object the walk phase makes. Every node id of a graph this
package walks fits in 31 bits, so a token takes four bytes. Every
writer and reader of a corpus matrix takes the dtype from here:
:class:`~repro.walks.corpus.WalkCorpus`, the engines' wave loops, the C
wave kernel (its ``token_t``), the word2vec trainer's blocks and the
streaming shard budget of :class:`~repro.config.StreamingConfig`. A leaf
module (NumPy only), so :mod:`repro.config` can import it.

CSR ``targets`` / ``offsets``, walker lanes and M-H chain arrays (edge
offsets) stay int64.
"""

from __future__ import annotations

import numpy as np

#: dtype of one walk token (a node id, or -1 past a walk's end)
TOKEN_DTYPE = np.dtype(np.int32)

#: one past the largest node id a token holds: a graph an engine walks
#: has fewer nodes than this
TOKEN_LIMIT = int(np.iinfo(TOKEN_DTYPE).max) + 1
