"""Walker state (paper Sections I and IV-B).

A walker's state x is "the data that helps the walker identify the
transition probability distribution". The unified abstraction splits it
into *position* (the current node) and *affixture* (model-specific extra
data): the previous node/edge for second-order models, the metapath target
type for metapath2vec, nothing for deepwalk.

The engine carries every walker's state as four aligned lanes — current
node, previous node, previous edge offset, step count — and each model's
``batch_dynamic_weight`` reads just the lanes it needs.
"""

#: previous node / previous edge offset of a walker before its first step
NO_PREVIOUS = -1
