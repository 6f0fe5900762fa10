"""`python -m phaseseg COMMAND ...` runs the command line, as `phaseseg` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
