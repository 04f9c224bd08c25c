"""`python -m powersat`: the command line front end of `powersat.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
