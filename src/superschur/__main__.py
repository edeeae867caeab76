"""`python -m superschur ...` runs the command line, as the `superschur` script does."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
