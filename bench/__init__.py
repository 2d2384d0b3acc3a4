"""cvsteer benchmark harness; run it with ``python3 -m bench``."""
