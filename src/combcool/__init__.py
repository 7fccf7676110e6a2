"""Three-level Lambda-system dynamics under phase-locked femtosecond pulse trains.

A |1> (loosely bound) -- |2> (excited) -- |3> (deeply bound) ladder-in-Lambda
system is driven by a train of N identical phase-locked pulses (optionally
sine- or cosine-phase-modulated, i.e. a shaped frequency comb).  The density
matrix evolves under the beyond-rotating-wave Liouville-von Neumann equations
with spontaneous emission and collisional dephasing; the quantum yield is the
population accumulated in |3>.
"""

from . import core, dynamics, field, scenarios, spectrum
from .core import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .field import *  # noqa: F403
from .scenarios import *  # noqa: F403
from .spectrum import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its own module's __all__
__all__ = sorted(
    {"__version__"}.union(*(module.__all__ for module in (core, dynamics, field, scenarios, spectrum)))
)
