"""``python -m diracmech``: the same command-line interface as the
``diracmech`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
