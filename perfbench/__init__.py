"""Layered end-to-end benchmark (see README.md)."""
