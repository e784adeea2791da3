"""Exact group theory around a perfect commutator tower; the root exports nothing.

words         free-group words: reduction, commutators, coset representatives
intmat        exact integer matrices: word evaluation, Steinberg brackets
tower         the tower P: doubling map, seed word, representation checks
localization  the localized tower LP and its Q/Z observable
freeprod      G = F1 * F2 / <<[u1, u2]>>: syllable words, eq_in_G, oracles, scans
cli           the ``commtower`` command (also ``python -m commtower``)
"""
__version__ = "0.1.0"
