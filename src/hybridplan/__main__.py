"""`python -m hybridplan`: the command line front end, as the installed
`hybridplan` script runs it."""

import sys

from .cli import main

sys.exit(main())
