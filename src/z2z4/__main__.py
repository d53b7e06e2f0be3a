"""``python3 -m z2z4`` runs the ``z2z4`` command line."""
from .cli import main
raise SystemExit(main())
