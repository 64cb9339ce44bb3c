"""Exact classical simulator and verifier for quantum-walk counting on
complete bipartite graphs."""

from .errors import *
from .linalg import *
from .walk import *
from .reduced import *
from .phase_estimation import *
from .counting import *
from .analysis import *

__version__ = "0.1.0"
