import os

from hypothesis import settings

# CI runs the property tests on the same examples every time.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
