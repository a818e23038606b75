"""Deterministic test profile: property tests replay the same examples every run.

Hypothesis draws numeric literals from the loaded qcfun modules, so all of them
load first: a file run alone draws what the whole suite draws.
"""

from hypothesis import settings

from qcfun import bounds, cli, distortion, errors, geometry, identities, means, modulus, specfun  # noqa: F401

settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")
