"""Settings shared by every test module."""

import contextlib
import shutil
import tempfile
import warnings

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same cases on every run and keep no example database.
settings.register_profile("rewc", derandomize=True, database=None, deadline=None)
settings.load_profile("rewc")

_hypothesis_home = None


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from source files, at
    # collection time; keep that cache out of the checkout, for this test run only.
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="rewc-hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)
    # Hypothesis imports its patch writer when a property fails, from inside
    # pytest's report hook; libcst, which it imports, warns at import time,
    # and the warnings-as-errors filter would turn that into an INTERNALERROR
    # that ends the session.  Import it once here, its warning ignored.
    # Without libcst, hypothesis skips the patch writer, and so does this.
    with warnings.catch_warnings(), contextlib.suppress(ImportError):
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401


def pytest_unconfigure(config):
    shutil.rmtree(_hypothesis_home, ignore_errors=True)
