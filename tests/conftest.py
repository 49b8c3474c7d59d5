"""Test-suite setup.

Hypothesis reports a falsifying example through ``hypothesis.extra._patching``,
whose import of ``libcst`` (where installed) raises a DeprecationWarning from
a third-party module.  Under ``python -W error`` that warning aborts pytest
with INTERNALERROR and the example is never printed, so the module is imported
once here with DeprecationWarning ignored; every warning raised by package
code stays an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass
