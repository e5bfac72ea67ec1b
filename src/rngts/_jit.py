"""Kernel mode flag, kept for the benchmark harness.

Every battery kernel runs as plain Python over numpy; there is no
compiled path.  `perfbench/harness.py` still imports this constant to
label its runs, so it stays until the harness stops reading it.
"""

JIT_ENABLED = False
