"""``python -m benchmarks.ledger`` — same entry point as ``run.py``."""

from benchmarks.ledger.run import main

raise SystemExit(main())
