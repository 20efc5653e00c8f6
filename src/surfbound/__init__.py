"""Certified automorphism bounds for arithmetic surface groups.

Exact signature invariants, surface-kernel epimorphism verification and
search, mod-p homology covers, and machine-checkable genus certificates.

The package root exports only __version__; import from the submodules
(surfbound.signatures, .groups, .ske, .covers, .bounds, .linalg, .cli), so a
process loads only the layers it uses.
"""

__version__ = "0.1.0"
