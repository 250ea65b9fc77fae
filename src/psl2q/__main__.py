"""`python -m psl2q ...`: the `psl2q` command line, runnable from a source
checkout with `PYTHONPATH=src`."""

import sys

from .cli import main

sys.exit(main())
