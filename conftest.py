import sys
from pathlib import Path

from hypothesis import settings

# allow running pytest straight from a checkout, before any install
sys.path.insert(0, str(Path(__file__).parent / "src"))

# `pytest --hypothesis-profile=cli-fuzz tests/test_cli_fuzz.py`: the CLI fuzz
# property on more examples than tier-1 runs, drawn at random
settings.register_profile("cli-fuzz", max_examples=10000, deadline=None, database=None)
