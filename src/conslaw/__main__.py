"""``python -m conslaw``: the ``conslaw`` command."""

import sys

from .cli import main

sys.exit(main())
