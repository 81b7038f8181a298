"""Smoke tests of the end-to-end benchmark (not part of tier-1; run with
``python -m pytest e2ebench/tests``)."""

from e2ebench import common

common.prepare_imports()
