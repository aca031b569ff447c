"""Drive in-process ``ClusterWorker``s the way their processes do.

A worker process is one loop of ``run_one`` turns. Here the test thread
turns every worker's loop in rotation while the submitter (a
``cluster_build`` call) waits on a helper thread, so no worker needs a
thread of its own or a way to be told to stop: the loop ends when the
submitter returns.
"""

import threading
import time

#: How long one idle turn parks in the coordinator before the next
#: worker's turn; a job submitted meanwhile wakes it at once.
TURN_PARK_SECONDS = 0.05


def run_with_workers(workers, submit, timeout: float = 120.0):
    """Call ``submit()`` on a helper thread while the test thread turns
    each worker's ``run_one``; return what ``submit`` returned, or raise
    what it raised."""
    outcome: dict = {}

    def _submit() -> None:
        try:
            outcome["value"] = submit()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=_submit, name="submitter", daemon=True)
    thread.start()
    deadline = time.monotonic() + timeout
    while thread.is_alive():
        assert time.monotonic() < deadline, "the submitter never returned"
        for worker in workers:
            worker.run_one(park_seconds=TURN_PARK_SECONDS)
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
