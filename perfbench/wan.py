"""Wide-area latency emulator for the ``striped_wan`` workload.

A TCP forwarder run as its own process: every connection accepted on
the listen port is paired with a fresh connection to the target, and
each chunk in either direction is held for a fixed one-way delay
before it is written on (latency, not rate: chunks pipeline).  Prints
``ready <port>`` once listening and runs until SIGINT/SIGTERM.

    python3 perfbench/wan.py LISTEN_PORT TARGET_HOST TARGET_PORT DELAY_S
"""

from __future__ import annotations

import asyncio
import signal
import socket
import sys


def _nodelay(writer: asyncio.StreamWriter) -> None:
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


async def _pipe(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                delay: float) -> None:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    async def flush() -> None:
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                due, data = item
                lag = due - loop.time()
                if lag > 0:
                    await asyncio.sleep(lag)
                writer.write(data)
                await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
        except (ConnectionError, OSError):
            pass

    flusher = asyncio.ensure_future(flush())
    try:
        while True:
            data = await reader.read(1 << 16)
            if not data:
                break
            queue.put_nowait((loop.time() + delay, data))
    except (ConnectionError, OSError):
        pass
    queue.put_nowait(None)
    await flusher


async def main(listen_port: int, host: str, port: int, delay: float) -> None:
    async def on_conn(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            onward_r, onward_w = await asyncio.open_connection(host, port)
        except OSError:
            writer.close()
            return
        _nodelay(writer)
        _nodelay(onward_w)
        try:
            await asyncio.gather(_pipe(reader, onward_w, delay),
                                 _pipe(onward_r, writer, delay))
        finally:
            writer.close()
            onward_w.close()

    server = await asyncio.start_server(on_conn, "127.0.0.1", listen_port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    print(f"ready {listen_port}", flush=True)
    await stop.wait()
    server.close()


if __name__ == "__main__":
    asyncio.run(main(int(sys.argv[1]), sys.argv[2], int(sys.argv[3]),
                     float(sys.argv[4])))
