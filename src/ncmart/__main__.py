"""``python -m ncmart``: the command line interface of :mod:`ncmart.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
