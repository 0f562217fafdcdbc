"""`python -m qsync`: the `qsync` command line, also from a source checkout."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
