"""PARED round benchmark (see README.md in this directory)."""
