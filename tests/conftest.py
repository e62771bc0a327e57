import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

# the same examples on every run, and no example database on disk
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
