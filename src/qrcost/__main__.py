"""Module entry point so `python -m qrcost` behaves like the console script."""
import sys

from .cli import run

sys.exit(run())
