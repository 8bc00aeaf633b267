"""``python -m cubicbrauer``: the same command line as ``python -m cubicbrauer.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
