"""Echo peer for the round-trip probe (``speed.py``).

Usage: ``python bench/echo.py FD``. Writes every line read from the
socket on file descriptor FD back to it, and exits at end of file.
"""

import socket
import sys


def main(fd: int) -> None:
    with socket.socket(fileno=fd) as sock, sock.makefile("rwb", buffering=0) as stream:
        for line in iter(stream.readline, b""):
            stream.write(line)


if __name__ == "__main__":
    main(int(sys.argv[1]))
