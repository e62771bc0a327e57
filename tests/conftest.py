import sys
from pathlib import Path

from hypothesis import settings
from hypothesis.internal.conjecture import providers

sys.path.insert(0, str(Path(__file__).resolve().parent))

# the same examples on every run, and no example database on disk
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# hypothesis also mixes into its draws the constants it parses from every
# imported non-test module, so an edit to the library alone would reshuffle
# the examples (and it caches them under .hypothesis/constants/): draw from
# its built-in constants only
_NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS
