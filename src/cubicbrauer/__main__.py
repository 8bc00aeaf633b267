"""``python -m cubicbrauer``: the same command line as ``python -m cubicbrauer.cli``."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
