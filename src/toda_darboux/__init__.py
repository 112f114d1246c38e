"""Darboux factorizations and Backlund transformations of banded
Hessenberg matrices, and the lattice flows they intertwine."""

from .banded import *
from .lu import *
from .darboux import *
from .lattice import *

__version__ = "0.1.0"
