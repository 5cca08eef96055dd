"""fairlab: an order-fairness pre-protocol laboratory.

Leader engines that build block certificates under three fairness disciplines,
stand-alone block verifiers, an adversary-controlled deterministic network
simulator, and a post-hoc fairness auditor.
"""

__version__ = "0.1.0"
