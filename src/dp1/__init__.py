"""Exact Picard-lattice arithmetic and signed-count verification for real
degree-1 del Pezzo surfaces.

The package exports nothing: import each name from the module that defines it.
"""
