"""``python -m opfold``: the same command line as the ``opfold`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
