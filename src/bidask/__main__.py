"""``python -m bidask``: the command line front end of ``bidask.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
