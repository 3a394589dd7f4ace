"""Directed-graph state space modeling toolkit.

Graph containers and algorithms, a diagonal SSM kernel with a hop-indexed
power table, a minimal reverse-mode tensor engine, the attention-selective
message-passing scan model, and a training harness with oracle-equivalence
suites.
"""

__version__ = "0.1.0"
