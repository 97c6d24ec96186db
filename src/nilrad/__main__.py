"""`python -m nilrad ...`: the same interface as the `nilrad` console script."""

import sys

from .cli import main

sys.exit(main())
