"""Set-up shared by the whole test suite.

On a failing ``@given`` test hypothesis imports ``libcst`` to print the
falsifying example, and that import raises a DeprecationWarning (about
``mypy_extensions.TypedDict``).  Under ``filterwarnings = ["error"]`` the
warning becomes an INTERNALERROR that ends the run, so the remaining tests
never report.  Importing ``libcst`` here once, with DeprecationWarning
ignored, leaves every later import of it a lookup; every other warning is
still an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # hypothesis then prints the example without it
        pass
