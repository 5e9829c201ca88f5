"""Wall-time benchmark of the repro stack; see ``design.py`` and ``run.py``."""
