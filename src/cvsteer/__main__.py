"""``python -m cvsteer``: the ``cvsteer`` command without installing the package."""

import sys

from .cli import main

sys.exit(main())
