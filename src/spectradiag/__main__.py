"""``python -m spectradiag``: the same entry point as the ``spectradiag`` script."""

import sys

from .cli import main

sys.exit(main())
