"""`python3 -m psolve`: the same command line as the installed `psolve` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
