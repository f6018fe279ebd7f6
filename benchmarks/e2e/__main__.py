"""``python -m benchmarks.e2e`` — every workload plus the traced runs."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
