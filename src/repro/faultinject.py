"""Deterministic fault injection for the batch engine.

The supervisor layer (:mod:`repro.engine.supervisor`) promises that a batch
*always* terminates with per-series outcomes — through crashing, hanging and
raising chunks and mid-encode exceptions.  Promises like that rot unless
every recovery path is exercised on every backend, so this module provides
*planned* faults instead of hope:

* a :class:`FaultPlan` is a list of :class:`FaultAction` entries, each naming
  a *kind* (``crash`` / ``hang`` / ``raise``), an injection *site*
  (``chunk`` / ``encode``), and the batch index of the series that selects
  where it fires;
* plans travel through the ``REPRO_FAULT_PLAN`` environment variable
  (JSON), so a child process (``repro serve`` started by a test, say)
  sees them without any pickling;
* each action fires a bounded number of times (``max_hits``, default once).
  Hits are claimed through ``O_CREAT | O_EXCL`` marker files in the plan's
  ``state_dir``, which makes the accounting atomic *across processes and
  threads*: a chunk that faults after claiming its hit does not fault again
  on retry, which is exactly the recover-on-retry scenario the supervisor
  tests need;
* ``crash`` only hard-kills (``os._exit``) when it fires in a process other
  than the one that activated the plan; in the activating process (both
  engine backends) it degrades to raising :class:`InjectedCrash`, so a
  hostile plan can never take down the test runner itself.

The test suite activates plans with :func:`active_plan`; the stress harness
derives reproducible plans from integer seeds with :func:`random_plan` (the
seed is recorded, so any soak failure replays deterministically).

This module is import-cheap and :func:`fire` is a no-op dictionary lookup
when no plan is active, so production code pays nothing for the hooks.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

__all__ = [
    "ENV_PLAN",
    "FaultAction",
    "FaultPlan",
    "InjectedFault",
    "InjectedCrash",
    "ServiceFaultAction",
    "StorageFaultAction",
    "active_plan",
    "fire",
    "fire_service",
    "fire_storage",
    "inject_bit_flip",
    "inject_torn_write",
    "load_plan",
    "random_plan",
    "random_service_plan",
    "random_storage_plan",
]

#: Environment variable carrying the active plan as JSON.
ENV_PLAN = "REPRO_FAULT_PLAN"

#: Exit status used by injected worker crashes (recognizable in waitpid logs).
CRASH_EXIT_CODE = 86

#: Recognised fault kinds.
KINDS = ("crash", "hang", "raise")

#: Recognised injection sites.
#:
#: ``chunk``
#:     Fires at the start of a chunk task, before per-series error isolation
#:     — the supervisor's retry and degrade machinery is what must absorb it.
#: ``encode``
#:     Fires inside the per-series encode loop — per-series isolation must
#:     turn it into one error outcome while the rest of the chunk completes.
SITES = ("chunk", "encode")

#: Recognised storage fault kinds (see :class:`StorageFaultAction`).
#:
#: ``crash``
#:     Stop execution at the site: ``os._exit`` in a worker process, or
#:     :class:`InjectedCrash` in the plan-activating process (the durable
#:     store's kill-at-every-syncpoint harness runs in-process, so a crash
#:     is an exception the harness catches before reopening the store).
#: ``torn_write``
#:     Truncate the bytes being written at ``at_byte`` — the on-disk
#:     artifact ends up holding only a prefix, exactly what a power loss
#:     mid-write (or a non-atomic rename) leaves behind.  Recovery must
#:     detect it through the record/segment CRC, never decode it.
#: ``bit_flip``
#:     Flip bit ``bit`` of the bytes being written — silent media
#:     corruption.  The CRC must reject the artifact.
#: ``raise``
#:     Raise :class:`InjectedFault` at the site (an I/O error stand-in).
STORAGE_KINDS = ("crash", "torn_write", "bit_flip", "raise")

#: Recognised storage injection sites, in write-path order.
#:
#: ``wal_append``
#:     One WAL record's bytes, before they are written.  A ``crash`` here
#:     loses the record (it was never durable); ``torn_write``/``bit_flip``
#:     publish a corrupt record that recovery must truncate at.
#: ``wal_sync``
#:     After the WAL record bytes hit the file, before/at fsync return.
#:     A ``crash`` here leaves a fully written record: the append was
#:     never acknowledged, but recovery may legitimately replay it.
#: ``segment_write``
#:     One sealed segment file's bytes (``torn_write``/``bit_flip``
#:     corrupt the published file; checksum verification must quarantine).
#: ``wal_compact``
#:     The rewritten WAL generation produced by a checkpoint.
#: ``manifest_write``
#:     The manifest bytes of an atomic manifest swap.
#: ``before_rename`` / ``after_rename``
#:     Immediately before / after the tmp-file → final-name rename of any
#:     durable artifact (the ``target`` filter selects which).
STORAGE_SITES = ("wal_append", "wal_sync", "segment_write", "wal_compact",
                 "manifest_write", "before_rename", "after_rename")

#: Recognised service fault kinds (see :class:`ServiceFaultAction`).
#:
#: ``crash``
#:     Stop the service at the site: :class:`InjectedCrash` in the
#:     plan-activating process (the in-process chaos harness treats it as
#:     process death — abandon the service, reopen the store, replay), or
#:     ``os._exit`` in a separate service process.
#: ``hang``
#:     Sleep ``seconds`` at the site — a stalled parser, a slow enqueue, a
#:     wedged response write.  Deadlines and drain budgets must bound it.
#: ``raise``
#:     Raise :class:`InjectedFault` at the site; the service must map it to
#:     a well-formed error response (or a best-effort drain), never a hung
#:     connection.
SERVICE_KINDS = ("crash", "hang", "raise")

#: Recognised service injection sites, in request-lifecycle order.
#:
#: ``request_parse``
#:     Before the request body is parsed — a failure here must produce a
#:     well-formed 400/500, never a hung connection.
#: ``enqueue``
#:     At job admission, after shedding decisions but before the job is
#:     queued — the window where an accepted-but-unqueued request exists.
#: ``mid_job_crash``
#:     Inside job execution: for ingest jobs *after* the spool append (the
#:     acked-but-unanswered window that idempotent retry must cover); for
#:     compress jobs before the engine runs.
#: ``drain``
#:     At the start of the graceful-drain sequence — drain must be
#:     best-effort through injected failures and crash-consistent through
#:     injected crashes.
#: ``response_write``
#:     Immediately before response bytes are written — a crash here is the
#:     classic "server died after committing, before answering" window.
SERVICE_SITES = ("request_parse", "enqueue", "mid_job_crash", "drain",
                 "response_write")


class InjectedFault(RuntimeError):
    """An exception raised deliberately by an active fault plan."""


class InjectedCrash(InjectedFault):
    """A ``crash`` action firing in the plan-activating process.

    Real ``os._exit`` crashes only happen in other processes; in the
    activating process the crash is represented as this exception so the
    serial and thread backends run the plan without killing the
    interpreter that is running the tests.
    """


@dataclass(frozen=True)
class FaultAction:
    """One planned fault.

    Parameters
    ----------
    kind:
        ``crash`` | ``hang`` | ``raise``.
    series:
        Batch index selecting where the action fires: the chunk containing
        this series (site ``chunk``) or this series' own encode call (site
        ``encode``).  Selecting by series index — not by chunk position or
        worker id — keeps plans deterministic under any chunk planning or
        pool scheduling.
    site:
        Injection site (default ``chunk``).
    seconds:
        Sleep duration for ``hang`` actions.
    max_hits:
        How many times the action fires before becoming inert; ``None``
        means it fires on every match (a *persistent* fault, used to drive
        the degradation ladder to its end).
    """

    kind: str
    series: int
    site: str = ""
    seconds: float = 1.0
    max_hits: int | None = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {', '.join(KINDS)}")
        object.__setattr__(self, "site", self.site or "chunk")
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {', '.join(SITES)}")

    @property
    def marker(self) -> str:
        """Stable identity used for cross-process hit accounting."""
        return f"{self.kind}-{self.site}-{self.series}"


@dataclass(frozen=True)
class StorageFaultAction:
    """One planned storage fault (see :data:`STORAGE_KINDS` / ``_SITES``).

    Parameters
    ----------
    kind:
        ``crash`` | ``torn_write`` | ``bit_flip`` | ``raise``.
    site:
        Storage injection site (:data:`STORAGE_SITES`).
    target:
        Substring filter on the artifact path the site is handling; an
        empty string matches every path at the site.  Lets one plan crash
        the rename of *the manifest* while leaving segment renames alone.
    at_byte:
        ``torn_write`` truncation point.  ``None`` truncates at half the
        payload; values beyond the payload length leave it untouched
        (the torn write happened past the end — a no-op).
    bit:
        ``bit_flip`` target bit index (modulo the payload's bit length).
    skip_hits:
        Number of matching calls to let through unharmed before firing —
        the knob that turns one action into a *kill at the k-th syncpoint*
        probe.  Skip accounting is per-process (the storage harness runs
        in-process).
    max_hits:
        Firing budget once the skips are exhausted (``None`` = every
        match).
    """

    kind: str
    site: str
    target: str = ""
    at_byte: int | None = None
    bit: int = 0
    skip_hits: int = 0
    max_hits: int | None = 1

    def __post_init__(self):
        if self.kind not in STORAGE_KINDS:
            raise ValueError(f"unknown storage fault kind {self.kind!r}; "
                             f"choose from {', '.join(STORAGE_KINDS)}")
        if self.site not in STORAGE_SITES:
            raise ValueError(f"unknown storage fault site {self.site!r}; "
                             f"choose from {', '.join(STORAGE_SITES)}")

    @property
    def marker(self) -> str:
        """Stable identity used for hit accounting."""
        return (f"storage-{self.kind}-{self.site}-{self.target or '*'}"
                f"-{self.at_byte}-{self.bit}-{self.skip_hits}")


@dataclass(frozen=True)
class ServiceFaultAction:
    """One planned service-layer fault (see :data:`SERVICE_KINDS`/``_SITES``).

    Parameters
    ----------
    kind:
        ``crash`` | ``hang`` | ``raise``.
    site:
        Service injection site (:data:`SERVICE_SITES`).
    target:
        Substring filter on the ``detail`` the site reports (usually the
        endpoint path, e.g. ``"/ingest"``); empty matches every call.
    seconds:
        Sleep duration for ``hang`` actions.
    skip_hits:
        Matching calls to let through unharmed before firing (per-process
        accounting, like :class:`StorageFaultAction`).
    max_hits:
        Firing budget once the skips are exhausted (``None`` = every
        match).
    """

    kind: str
    site: str
    target: str = ""
    seconds: float = 0.2
    skip_hits: int = 0
    max_hits: int | None = 1

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ValueError(f"unknown service fault kind {self.kind!r}; "
                             f"choose from {', '.join(SERVICE_KINDS)}")
        if self.site not in SERVICE_SITES:
            raise ValueError(f"unknown service fault site {self.site!r}; "
                             f"choose from {', '.join(SERVICE_SITES)}")

    @property
    def marker(self) -> str:
        """Stable identity used for hit accounting (filename-safe)."""
        target = "".join(ch if ch.isalnum() or ch in "-._" else "~"
                         for ch in (self.target or "*"))
        return f"service-{self.kind}-{self.site}-{target}-{self.skip_hits}"


@dataclass
class FaultPlan:
    """A set of actions plus the bookkeeping needed to apply them safely."""

    actions: list[FaultAction] = field(default_factory=list)
    #: Storage-layer actions (fired through :func:`fire_storage`).
    storage_actions: list[StorageFaultAction] = field(default_factory=list)
    #: Service-layer actions (fired through :func:`fire_service`).
    service_actions: list[ServiceFaultAction] = field(default_factory=list)
    #: Directory for hit-claim marker files (shared across processes).
    state_dir: str | None = None
    #: PID of the activating process; ``crash`` never hard-kills this one.
    pid: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "actions": [asdict(action) for action in self.actions],
            "storage_actions": [asdict(action)
                                for action in self.storage_actions],
            "service_actions": [asdict(action)
                                for action in self.service_actions],
            "state_dir": self.state_dir,
            "pid": self.pid,
        })

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        document = json.loads(payload)
        return cls(
            actions=[FaultAction(**entry) for entry in document["actions"]],
            storage_actions=[StorageFaultAction(**entry)
                             for entry in document.get("storage_actions", [])],
            service_actions=[ServiceFaultAction(**entry)
                             for entry in document.get("service_actions", [])],
            state_dir=document.get("state_dir"),
            pid=int(document.get("pid") or 0))


# --------------------------------------------------------------------- #
# plan loading and hit accounting
# --------------------------------------------------------------------- #
_plan_cache: tuple[str, FaultPlan] | None = None
#: In-process fallback hit counters (used when a plan has no state_dir).
_local_hits: dict[str, int] = {}
#: In-process skip counters for :class:`StorageFaultAction.skip_hits`.
_local_skips: dict[str, int] = {}


def load_plan() -> FaultPlan | None:
    """The active plan from the environment, or ``None``."""
    global _plan_cache
    payload = os.environ.get(ENV_PLAN)
    if not payload:
        return None
    if _plan_cache is not None and _plan_cache[0] == payload:
        return _plan_cache[1]
    plan = FaultPlan.from_json(payload)
    _plan_cache = (payload, plan)
    return plan


def _claim_hit(plan: FaultPlan, action: FaultAction) -> bool:
    """Atomically claim one firing of ``action``; False once exhausted.

    With a ``state_dir`` the claim is an ``O_CREAT | O_EXCL`` marker file, so
    it is atomic across processes and *survives the claimer crashing* — the
    whole point: a worker that claims, then ``os._exit``\\ s, leaves the claim
    behind and the retried chunk sails through.  Without a ``state_dir``
    (plans built by hand in-process) a per-process counter is used instead.
    """
    if action.max_hits is None:
        return True
    if plan.state_dir and os.path.isdir(plan.state_dir):
        for hit in range(action.max_hits):
            path = os.path.join(plan.state_dir, f"{action.marker}.{hit}")
            try:
                os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
        return False
    taken = _local_hits.get(action.marker, 0)
    if taken >= action.max_hits:
        return False
    _local_hits[action.marker] = taken + 1
    return True


# --------------------------------------------------------------------- #
# the hook
# --------------------------------------------------------------------- #
def fire(site: str, *, indices=None, index: int | None = None) -> None:
    """Fire every matching action of the active plan (no-op without one).

    Parameters
    ----------
    site:
        The injection site this call guards.
    indices:
        Batch indices of the chunk being processed (site ``chunk``).
    index:
        Batch index of the series being encoded (site ``encode``).
    """
    plan = load_plan()
    if plan is None:
        return
    for action in plan.actions:
        if action.site != site:
            continue
        if site == "encode":
            if index is None or action.series != index:
                continue
        elif site == "chunk":
            if indices is None or action.series not in indices:
                continue
        if not _claim_hit(plan, action):
            continue
        _perform(plan, action)


def _perform(plan: FaultPlan, action: FaultAction) -> None:
    if action.kind == "hang":
        time.sleep(max(float(action.seconds), 0.0))
        return
    if action.kind == "raise":
        raise InjectedFault(
            f"injected fault at site {action.site!r} (series {action.series})")
    if plan.pid and os.getpid() != plan.pid:
        os._exit(CRASH_EXIT_CODE)
    raise InjectedCrash(
        f"injected worker crash (series {action.series}; in-process, "
        "represented as an exception)")


# --------------------------------------------------------------------- #
# the storage hook
# --------------------------------------------------------------------- #
def fire_storage(site: str, *, path, data: bytes | None = None) -> bytes | None:
    """Fire matching storage actions; returns ``data`` (possibly corrupted).

    The durable store calls this at every write-path syncpoint (see
    :data:`STORAGE_SITES`) with the artifact ``path`` and, at byte-carrying
    sites, the ``data`` about to be written.  Without an active plan the
    call is a no-op returning ``data`` unchanged.

    ``torn_write`` / ``bit_flip`` actions transform ``data`` — the caller
    writes the corrupted bytes, simulating corruption that made it to disk.
    ``crash`` raises :class:`InjectedCrash` (in the activating process) or
    hard-exits (in a worker); ``raise`` raises :class:`InjectedFault`.
    """
    plan = load_plan()
    if plan is None or not plan.storage_actions:
        return data
    path_text = str(path)
    for action in plan.storage_actions:
        if action.site != site:
            continue
        if action.target and action.target not in path_text:
            continue
        if action.skip_hits:
            skipped = _local_skips.get(action.marker, 0)
            if skipped < action.skip_hits:
                _local_skips[action.marker] = skipped + 1
                continue
        if not _claim_hit(plan, action):
            continue
        data = _perform_storage(plan, action, path_text, data)
    return data


def _perform_storage(plan: FaultPlan, action: StorageFaultAction,
                     path: str, data: bytes | None) -> bytes | None:
    if action.kind == "raise":
        raise InjectedFault(
            f"injected storage fault at site {action.site!r} ({path})")
    if action.kind == "crash":
        if plan.pid and os.getpid() != plan.pid:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected storage crash at site {action.site!r} ({path}; "
            "in-process, represented as an exception)")
    if data is None:
        return None
    if action.kind == "torn_write":
        cut = len(data) // 2 if action.at_byte is None else int(action.at_byte)
        return data[: max(cut, 0)]
    if action.kind == "bit_flip" and data:
        mutated = bytearray(data)
        bit = int(action.bit) % (len(mutated) * 8)
        mutated[bit // 8] ^= 1 << (bit % 8)
        return bytes(mutated)
    return data


# --------------------------------------------------------------------- #
# the service hook
# --------------------------------------------------------------------- #
def fire_service(site: str, *, detail: str = "") -> None:
    """Fire matching service actions at ``site`` (no-op without a plan).

    The compression service calls this at every request-lifecycle site
    (:data:`SERVICE_SITES`) with a ``detail`` string (usually the endpoint
    path) that ``target`` filters select on.  ``hang`` sleeps in place;
    ``raise`` raises :class:`InjectedFault` (the service must answer with a
    well-formed error); ``crash`` raises :class:`InjectedCrash` in the
    activating process or hard-exits in a separate service process — the
    chaos harness treats either as process death.
    """
    plan = load_plan()
    if plan is None or not plan.service_actions:
        return
    for action in plan.service_actions:
        if action.site != site:
            continue
        if action.target and action.target not in detail:
            continue
        if action.skip_hits:
            skipped = _local_skips.get(action.marker, 0)
            if skipped < action.skip_hits:
                _local_skips[action.marker] = skipped + 1
                continue
        if not _claim_hit(plan, action):
            continue
        if action.kind == "hang":
            time.sleep(max(float(action.seconds), 0.0))
            continue
        if action.kind == "raise":
            raise InjectedFault(
                f"injected service fault at site {site!r} ({detail or '*'})")
        if plan.pid and os.getpid() != plan.pid:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected service crash at site {site!r} ({detail or '*'}; "
            "in-process, represented as an exception)")


# --------------------------------------------------------------------- #
# at-rest corruption helpers (deterministic, for fsck/recovery tests)
# --------------------------------------------------------------------- #
def inject_torn_write(path, keep_bytes: int) -> int:
    """Truncate the file at ``path`` to its first ``keep_bytes`` bytes.

    Simulates a torn write discovered *after* publication (a non-atomic
    filesystem, or corruption below the rename boundary).  Returns the
    number of bytes removed.
    """
    data = open(path, "rb").read()
    keep = max(min(int(keep_bytes), len(data)), 0)
    with open(path, "wb") as handle:
        handle.write(data[:keep])
    return len(data) - keep


def inject_bit_flip(path, bit_index: int) -> int:
    """Flip one bit of the file at ``path`` (index modulo the bit length).

    Simulates silent media corruption of an artifact at rest.  Returns the
    absolute bit index actually flipped.
    """
    data = bytearray(open(path, "rb").read())
    if not data:
        raise ValueError(f"cannot flip a bit of empty file {path}")
    bit = int(bit_index) % (len(data) * 8)
    data[bit // 8] ^= 1 << (bit % 8)
    with open(path, "wb") as handle:
        handle.write(data)
    return bit


# --------------------------------------------------------------------- #
# activation helpers
# --------------------------------------------------------------------- #
@contextmanager
def active_plan(actions, state_dir: str | None = None):
    """Activate a fault plan for the duration of a ``with`` block.

    Sets :data:`ENV_PLAN` (so pools created inside the block inherit the
    plan), creates a temporary ``state_dir`` for cross-process hit claims
    when none is supplied, and restores the previous environment on exit.
    Yields the activated :class:`FaultPlan`.
    """
    import shutil
    import tempfile

    owned_dir = None
    if state_dir is None:
        owned_dir = state_dir = tempfile.mkdtemp(prefix="repro-faults-")
    engine_actions = [action for action in actions
                      if isinstance(action, FaultAction)]
    storage_actions = [action for action in actions
                       if isinstance(action, StorageFaultAction)]
    service_actions = [action for action in actions
                       if isinstance(action, ServiceFaultAction)]
    plan = FaultPlan(actions=engine_actions, storage_actions=storage_actions,
                     service_actions=service_actions,
                     state_dir=str(state_dir), pid=os.getpid())
    previous = os.environ.get(ENV_PLAN)
    os.environ[ENV_PLAN] = plan.to_json()
    # Forget any counters claimed by a previous in-process plan.
    _local_hits.clear()
    _local_skips.clear()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_PLAN, None)
        else:
            os.environ[ENV_PLAN] = previous
        _local_hits.clear()
        _local_skips.clear()
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)


def random_plan(seed: int, series_count: int, *,
                max_actions: int = 2, hang_seconds: float = 0.6
                ) -> list[FaultAction]:
    """A reproducible fault plan derived from ``seed``.

    Used by the ``-m stress`` soak: every plan is a pure function of its
    seed, so a failing soak run is replayed exactly by re-running with the
    recorded seed.
    """
    rng = random.Random(int(seed))
    count = rng.randint(1, max(int(max_actions), 1))
    actions: list[FaultAction] = []
    for _ in range(count):
        kind = rng.choice(("crash", "hang", "raise", "raise"))
        series = rng.randrange(max(int(series_count), 1))
        site = "encode" if kind == "raise" and rng.random() < 0.5 else ""
        persistent = kind == "raise" and rng.random() < 0.25
        actions.append(FaultAction(
            kind=kind, series=series, site=site,
            seconds=round(rng.uniform(0.2, hang_seconds), 3),
            max_hits=None if persistent else 1))
    return actions


def random_service_plan(seed: int, *, max_actions: int = 2,
                        max_skip: int = 4, hang_seconds: float = 0.4
                        ) -> list[ServiceFaultAction]:
    """A reproducible service fault plan derived from ``seed``.

    Drives the seeded service chaos soak (``-m stress``): every plan is a
    pure function of its seed, so a failing soak replays exactly.  Crashes
    dominate — any of them must leave the store recoverable and acked
    ingests exactly-once; hangs and raises probe the well-formed-error
    contract at every lifecycle site.
    """
    rng = random.Random(int(seed))
    count = rng.randint(1, max(int(max_actions), 1))
    actions: list[ServiceFaultAction] = []
    for _ in range(count):
        kind = rng.choice(("crash", "crash", "hang", "raise", "raise"))
        site = rng.choice(SERVICE_SITES)
        target = rng.choice(("", "", "/ingest", "/compress"))
        if site == "drain":
            target = ""
        actions.append(ServiceFaultAction(
            kind=kind, site=site, target=target,
            seconds=round(rng.uniform(0.05, hang_seconds), 3),
            skip_hits=rng.randrange(max(int(max_skip), 1)),
            max_hits=1))
    return actions


def random_storage_plan(seed: int, *, max_actions: int = 2,
                        max_skip: int = 6) -> list[StorageFaultAction]:
    """A reproducible storage fault plan derived from ``seed``.

    Drives the seeded torn-write/bit-flip storage soak (``-m stress``):
    every plan is a pure function of its seed, so a failing soak replays
    exactly.  Crashes dominate the mix — they are the cheap, always-legal
    probe (recovery must succeed after any of them); torn writes and bit
    flips exercise the checksum rejection paths.
    """
    rng = random.Random(int(seed))
    count = rng.randint(1, max(int(max_actions), 1))
    actions: list[StorageFaultAction] = []
    for _ in range(count):
        kind = rng.choice(("crash", "crash", "torn_write", "bit_flip", "raise"))
        site = rng.choice(STORAGE_SITES)
        if kind in ("torn_write", "bit_flip") and site in (
                "before_rename", "after_rename"):
            site = rng.choice(("wal_append", "segment_write",
                               "manifest_write", "wal_compact"))
        actions.append(StorageFaultAction(
            kind=kind, site=site,
            at_byte=rng.randrange(512) if kind == "torn_write" else None,
            bit=rng.randrange(1 << 14),
            skip_hits=rng.randrange(max(int(max_skip), 1)),
            max_hits=1))
    return actions
