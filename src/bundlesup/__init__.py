"""Bundle-level weak supervision for graph neural networks.

Pipeline: sample node bundles by proximity, annotate each bundle with its
mode category (simulated oracle or LLM endpoint), train a two-layer GCN
with group entropy and ranking losses, and periodically evict the least
confident bundle members.
"""

__version__ = "0.1.0"
