"""Edge-colored complete graphs: Gallai colorings, monochromatic wheel
detection, extremal witness constructions, and exhaustive search.

The package revolves around colorings of K_n with colors 1..k.  Core
workflows:

* build recursive lower-bound witnesses for even-wheel Gallai-Ramsey
  numbers (:mod:`gallai.construct`),
* certify the absence or presence of rainbow triangles and
  monochromatic patterns (:mod:`gallai.detect`),
* decompose rainbow-triangle-free colorings into Gallai partitions and
  peel apex vertices (:mod:`gallai.structure`),
* search for colorings avoiding forbidden structures, or prove there
  are none (:mod:`gallai.search`).

The ``gallai`` command line tool wraps all of it; see ``gallai --help``.
"""

from .coloring import *
from .construct import *
from .detect import *
from .errors import *
from .formats import *
from .patterns import *
from .search import *
from .structure import *
from .trace import *

__version__ = "0.1.0"

# each module's __all__ is its public API, re-exported here; importing a
# submodule binds its name in this package, so coloring.__all__ resolves
__all__ = [
    *coloring.__all__,
    *construct.__all__,
    *detect.__all__,
    *errors.__all__,
    *formats.__all__,
    *patterns.__all__,
    *search.__all__,
    *structure.__all__,
    *trace.__all__,
    "__version__",
]
