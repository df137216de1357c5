"""Test session set-up."""

import warnings

from hypothesis import Phase, settings

# On a failing @given test, hypothesis's pytest plugin imports this module to
# write its explicit-example patch; libcst, which it imports, warns on import
# (mypy_extensions.TypedDict), and under ``filterwarnings = ["error"]`` that
# warning hides the falsifying example behind an INTERNALERROR. Imported once
# here, with the warning ignored, a failure reports as a failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# `--hypothesis-profile=explicit` runs each @given test on its @example cases
# alone, so what such a run reaches does not depend on the examples that a
# hypothesis version generates (the reach gate in CI runs this way).
settings.register_profile("explicit", phases=[Phase.explicit])
