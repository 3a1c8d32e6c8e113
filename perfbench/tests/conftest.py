"""Put the benchmark's modules and the program's source on the import path."""

import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent), str(_HERE.parent.parent / "src")]
