"""dyhat: exact classification of triangles over the dyadic rationals.

The names below are the public API, as the README's Library section lists
them.  Everything else is internal and is imported from its own module.
"""

from .dyadic import DyadicRational
from .geometry import AffineMap, Triangle
from .hats import EncodingTriple, Hat, all_encoding_triples, canonical_form, hat_of, normalize
from .classify import automorphism_group, census, isomorphic, isomorphic_hats
from .oracle import oracle_isomorphic

__version__ = "0.1.0"
