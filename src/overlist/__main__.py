"""``python -m overlist``: the ``overlist`` command, installed or not."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
