"""Numerical laboratory for ANECE collaborative-pilot schemes."""
