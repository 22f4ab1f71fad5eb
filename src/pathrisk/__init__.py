"""Desk-scale toolkit: executable pathology detectors over model-output
traces, expectile value-at-risk aggregation with a deployment gate,
holonorm transformer verification, and a constrained delegation game.

The package imports no submodule: import the one you use, such as
`pathrisk.risk` or `pathrisk.cli`, and only it and what it needs load."""

__version__ = "0.7.0"
