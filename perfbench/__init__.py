"""The repository benchmark (see ``bench.py``; entry point ``run.py``)."""
