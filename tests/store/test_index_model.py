"""Model-based test of :class:`repro.store.index.ArtifactIndex`.

Two handles on one backend take any interleaving of ``set`` / ``touch`` /
``evict`` / ``save`` / ``sync`` — and of being dropped with their unsaved
work — against a dict model of what the backend's shards must hold. A
handle that has just synced must agree with the model exactly, which is
three promises at once: a concurrent publish is adopted, a key either
handle evicted does not come back through the other's stale table, and a
republish after an eviction survives the evictor's tombstone.

The model stays a dict by keeping each *key's* history sequential: a
handle touches or evicts a key only when its view of that key is current
and the other handle holds no unsaved change to it (two unsaved changes
to one key are both valid serial orders; which one wins is decided by
sequence numbers the model does not carry). Everything else interleaves
freely — unsaved work on different keys, saves of the same shard from
stale tables, republishes of a key the other handle's table still lists.

One sequence on a single handle is left out because the machine found it
and it is how the index has always behaved: ``set`` a stored key to a new
digest, then ``evict`` it before saving. The tombstone names the unsaved
record, the shard still lists the older one under another digest, and the
merge reads that as somebody's fresh republish and adopts it.
``ArtifactCache`` does not get there — GC syncs before it evicts — and
whoever changes the merge (ROADMAP item 3) should drop the
``supersedes_stored`` guard below and decide the case.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.store import ArtifactIndex, FileBackend, MemoryBackend
from repro.store.index import stored_rows
from repro.util.hashing import content_digest

HANDLES = (0, 1)
#: Two shards, three keys each; a key's namespace never changes.
KEYS = [f"{ns}/{i}" for ns in ("ir", "lower") for i in range(3)]
#: Few digests, so a republish often repeats the evicted record's digest.
DIGESTS = [content_digest(f"payload {i}") for i in range(3)]
EVICTED = None


def namespace_of(key: str) -> str:
    return key.split("/", 1)[0]


class IndexMachine(RuleBasedStateMachine):
    """Subclasses supply ``new_backend`` (and clean up after it)."""

    def __init__(self):
        super().__init__()
        self.backend = self.new_backend()
        self.handles = [self.open_handle() for _ in HANDLES]
        #: key -> digest: what the backend's shards hold.
        self.stored: dict[str, str] = {}
        #: Per handle, key -> digest (or EVICTED) of its unsaved changes.
        self.unsaved: list[dict] = [{} for _ in HANDLES]
        #: Per handle, keys the other handle changed since it last loaded.
        self.stale: list[set] = [set() for _ in HANDLES]

    def open_handle(self) -> ArtifactIndex:
        index = ArtifactIndex(self.backend)
        index.load()
        return index

    def current(self, h: int, key: str):
        """The digest handle ``h`` resolves ``key`` to, per the model."""
        return self.unsaved[h].get(key, self.stored.get(key))

    def sequential(self, h: int, key: str) -> bool:
        return key not in self.unsaved[1 - h] and key not in self.stale[h]

    def supersedes_stored(self, h: int, key: str) -> bool:
        """Handle ``h`` holds an unsaved republish of a stored ``key``
        under a different digest (see the module docstring)."""
        return key in self.unsaved[h] and self.stored.get(key) not in (
            None, self.unsaved[h][key])

    def model_save(self, h: int) -> None:
        for key, digest in self.unsaved[h].items():
            if digest is EVICTED:
                self.stored.pop(key, None)
            else:
                self.stored[key] = digest
        self.stale[1 - h].update(self.unsaved[h])
        self.unsaved[h] = {}

    # -- table operations --------------------------------------------------------

    @rule(h=st.sampled_from(HANDLES), key=st.sampled_from(KEYS),
          digest=st.sampled_from(DIGESTS))
    def set(self, h, key, digest):
        # Publishing needs no current view — a stale table republishing a
        # key the other handle evicted and saved is the tombstone case.
        if key in self.unsaved[1 - h]:
            return
        self.handles[h].set(key, namespace_of(key), digest)
        self.unsaved[h][key] = digest

    @rule(h=st.sampled_from(HANDLES), key=st.sampled_from(KEYS))
    def touch(self, h, key):
        digest = self.current(h, key)
        if digest is EVICTED or not self.sequential(h, key):
            return
        self.handles[h].touch(key)
        self.unsaved[h][key] = digest

    @rule(h=st.sampled_from(HANDLES), key=st.sampled_from(KEYS))
    def evict(self, h, key):
        if self.current(h, key) is EVICTED or not self.sequential(h, key) \
                or self.supersedes_stored(h, key):
            return
        record = self.handles[h].evict(key)
        assert record is not None and record.digest == self.current(h, key)
        self.unsaved[h][key] = EVICTED

    @rule(h=st.sampled_from(HANDLES), key=st.sampled_from(KEYS),
          digest=st.sampled_from(DIGESTS))
    def republish_after_evict(self, h, key, digest):
        """Evict and save on one handle, republish on the other while its
        table may still list the dead record, then look from the evictor:
        the fresh entry must outlive the tombstone."""
        if self.current(h, key) is EVICTED or not self.sequential(h, key) \
                or key in self.unsaved[h]:
            return
        self.handles[h].evict(key)
        self.unsaved[h][key] = EVICTED
        self.save(h)
        self.set(1 - h, key, digest)
        self.save(1 - h)
        self.sync(h)
        assert self.handles[h].get(key).digest == digest

    # -- persistence -------------------------------------------------------------

    @rule(h=st.sampled_from(HANDLES))
    def save(self, h):
        self.handles[h].save()
        self.model_save(h)
        self.check_backend()

    @rule(h=st.sampled_from(HANDLES))
    def sync(self, h):
        self.handles[h].sync()
        self.model_save(h)
        self.stale[h] = set()
        self.check_backend()
        self.check_handle(h)

    @rule(h=st.sampled_from(HANDLES))
    def drop_handle_before_save(self, h):
        """A process dies with unsaved work: nobody ever sees it."""
        self.handles[h] = self.open_handle()
        self.unsaved[h] = {}
        self.stale[h] = set()
        self.check_handle(h)

    @precondition(lambda self: any(self.unsaved) or any(self.stale))
    @rule()
    def settle(self):
        """Everyone saves, then everyone looks: both tables are the model."""
        for h in HANDLES:
            self.save(h)
        for h in HANDLES:
            self.sync(h)
        assert self.handles[0].rows() == self.handles[1].rows()

    # -- checks ------------------------------------------------------------------

    def check_backend(self) -> None:
        rows = list(stored_rows(self.backend))
        held = {key: digest for key, _ns, digest, _seq in rows}
        assert len(rows) == len(held), "a key is listed twice"
        assert held == self.stored, (
            "resurrected", sorted(set(held) - set(self.stored)),
            "lost", sorted(set(self.stored) - set(held)))
        assert all(ns == namespace_of(key) for key, ns, _d, _s in rows)

    def check_handle(self, h: int) -> None:
        """A handle with nothing unsaved and nothing stale is the model."""
        table = {key: record.digest
                 for key, record in self.handles[h].rows().items()}
        assert table == self.stored, (
            "resurrected", sorted(set(table) - set(self.stored)),
            "lost", sorted(set(self.stored) - set(table)))

    @invariant()
    def a_handle_sees_its_own_unsaved_work(self):
        for h in HANDLES:
            for key, digest in self.unsaved[h].items():
                record = self.handles[h].get(key)
                assert (record and record.digest) == digest


class MemoryIndexMachine(IndexMachine):
    def new_backend(self):
        return MemoryBackend()


class FileIndexMachine(IndexMachine):
    def new_backend(self):
        self.root = tempfile.mkdtemp(prefix="index-model-")
        return FileBackend(self.root)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


TestMemoryIndexModel = MemoryIndexMachine.TestCase
TestMemoryIndexModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestFileIndexModel = FileIndexMachine.TestCase
TestFileIndexModel.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None)
