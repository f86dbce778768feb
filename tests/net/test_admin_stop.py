"""The admin ``stop`` command under ``python -X dev``.

The admin handler starts the teardown as a task of its own (the
response must go out first); the cluster keeps that task, and whoever
calls :meth:`LocalCluster.stop` afterwards waits for it.  Dev mode turns
a dropped task ("Task was destroyed but it is pending") and a socket
nobody closed (``ResourceWarning: unclosed``) into stderr lines, so the
scenario runs in a fresh interpreter and its stderr must stay clean.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCENARIO = textwrap.dedent(
    """
    import asyncio, json, socket
    from repro.monitor import HeartbeatSpec
    from repro.net import ClusterSpec, LocalCluster

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    async def admin(reader, writer, **request):
        writer.write(json.dumps(request).encode() + b"\\n")
        await writer.drain()
        return json.loads(await reader.readline())

    async def main():
        spec = ClusterSpec(
            nodes=7, degree=2, seed=1, transport="tcp", admin_port=port,
            interval_spacing=0.005, start_delay=0.05,
            heartbeat=HeartbeatSpec(period=0.05, loss_tolerance=20),
        )
        cluster = LocalCluster(spec)
        await cluster.start()
        await cluster.run(until_detections=1, timeout=30)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        if KILL:
            assert (await admin(reader, writer, cmd="kill-node", node=5))["ok"]
            await asyncio.sleep(0.2)
        assert (await admin(reader, writer, cmd="stop"))["stopping"]
        writer.close()
        await writer.wait_closed()
        # what `repro-cluster run` does once its stopping condition
        # holds: it must wait for the admin-started teardown
        await cluster.stop()
        assert cluster._stop_task.done() and cluster._stop_task.exception() is None
        print("stopped")

    asyncio.run(main())
    """
)


@pytest.mark.parametrize("kill", [False, True], ids=["stop", "kill-then-stop"])
def test_admin_stop_leaves_no_pending_task_or_open_socket(kill):
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", f"KILL = {kill}\n{SCENARIO}"],
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().endswith("stopped")
    for symptom in ("Task was destroyed", "ResourceWarning", "unclosed", "never retrieved"):
        assert symptom not in done.stderr, done.stderr[-2000:]
