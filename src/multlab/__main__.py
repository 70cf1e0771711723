"""``python -m multlab``: the command-line harness (see ``multlab.cli``)."""

from .cli import entry

if __name__ == "__main__":
    entry()
