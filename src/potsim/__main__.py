"""``python -m potsim``: the ``potsim`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
