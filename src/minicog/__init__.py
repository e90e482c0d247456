"""Scope-aware cognitive complexity metrics for MiniC programs.

Each name is imported from the module that defines it, e.g. `minicog.analysis.analyze_source`."""
