"""Entry point for ``python -m synfocus``."""

import sys

from .cli import main

sys.exit(main())
