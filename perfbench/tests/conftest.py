import sys
from pathlib import Path

# the benchmark's modules import each other by name, as run.py sees them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
