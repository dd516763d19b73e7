"""Weighted power means, mixed-mean increment inequalities, and numeric
certification of the mixed arithmetic-geometric mean inequality."""

from .means import *
from .functionals import *
from .conditions import *
from .reduction import *
from .search import *

__version__ = "0.1.0"
