"""The repository benchmark: ``stream``, ``explore`` and ``recover`` (see ``run.py``)."""
