"""Tandem-duplication string systems.

Duplication roots, the linear-time confusability decision for duplications
of length at most three, label fingerprints, code constructions with size
bounds, and an exact clique-based search for optimal code sizes.  The
package exports each library module's ``__all__``.
"""

from .words import *
from .roots import *
from .confusability import *
from .oracle import *
from .codes import *
from .bounds import *
from .optimal import *

__version__ = "0.1.0"
