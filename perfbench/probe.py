"""Set-up probe timed by run.py: a fresh interpreter imports nilrad and reads the given input files."""

import sys

import nilrad  # noqa: F401  (the import is what is timed)

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        fh.read()
