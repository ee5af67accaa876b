"""Seeded end-to-end benchmark of the privacy pipeline, with per-layer splits.

See ``README.md`` beside this file for the workloads, metrics and how to
compare two commits; ``__main__.py`` is the command.
"""
