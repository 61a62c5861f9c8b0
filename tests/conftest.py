import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Tests that start a fresh interpreter (``python -m btsearch.cli``) must
# import this checkout's package too, installed or not.
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
