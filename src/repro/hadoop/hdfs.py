"""HDFS namenode metadata: files, blocks, replica placement, locality.

Only metadata is simulated — block *contents* never exist; what matters
to the experiments is how many blocks a file has, where their replicas
live (that decides map-task locality), and how writes pipeline to
``replication`` datanodes (that decides reduce-output network traffic).

Placement follows the single-rack version of HDFS's default policy:
first replica on the writer's node, the rest on distinct random nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.util.rng import make_rng


@dataclass(frozen=True)
class Block:
    """One HDFS block: id, size, and the nodes holding replicas."""

    block_id: int
    size: int
    replicas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"block size may not be negative: {self.size}")
        if not self.replicas:
            raise ValueError("a block needs at least one replica")
        if len(set(self.replicas)) != len(self.replicas):
            raise ValueError(f"duplicate replica nodes: {self.replicas}")

    def is_local_to(self, node: int) -> bool:
        return node in self.replicas


@dataclass
class HdfsFile:
    """A file: ordered blocks."""

    name: str
    blocks: list[Block] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


class HdfsNamespace:
    """The namenode: create files, place replicas, answer locality queries.

    ``datanodes`` are the node ids (in whatever id space the caller uses
    — the simulated cluster passes its worker node ids) that hold blocks.
    """

    def __init__(
        self,
        datanodes: "list[int] | int",
        block_size: int,
        replication: int,
        seed: int = 0,
    ):
        if isinstance(datanodes, int):
            datanodes = list(range(datanodes))
        if not datanodes:
            raise ValueError("need at least one datanode")
        if len(set(datanodes)) != len(datanodes):
            raise ValueError(f"duplicate datanode ids: {datanodes}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.datanodes = list(datanodes)
        self.block_size = block_size
        self.replication = min(replication, len(self.datanodes))
        self._files: dict[str, HdfsFile] = {}
        self._next_block_id = 0
        self._rng = make_rng(seed, "hdfs")
        # Times a write pipeline wanted more targets than live datanodes
        # could supply and was clamped (warning counter, never raises).
        self.clamped_placements = 0
        # Round-robin pointer so big files spread evenly (the paper
        # "distribute[s] all input data across all nodes").
        self._rr = 0

    # -- writes -------------------------------------------------------------
    def create_file(
        self, name: str, size: int, writer_node: Optional[int] = None
    ) -> HdfsFile:
        """Create ``name`` of ``size`` bytes; returns the file's metadata.

        With ``writer_node`` given, every block's first replica lands
        there (HDFS write affinity); otherwise first replicas round-robin
        across all datanodes — the balanced layout of a distcp-loaded
        benchmark input.
        """
        if name in self._files:
            raise ValueError(f"file exists: {name}")
        if size < 0:
            raise ValueError(f"file size may not be negative: {size}")
        f = HdfsFile(name)
        remaining = size
        while remaining > 0:
            blk_size = min(self.block_size, remaining)
            f.blocks.append(self._place_block(blk_size, writer_node))
            remaining -= blk_size
        if size == 0:
            pass  # empty file: zero blocks, like HDFS
        self._files[name] = f
        return f

    def _place_block(self, size: int, writer_node: Optional[int]) -> Block:
        if writer_node is not None:
            if writer_node not in self.datanodes:
                raise ValueError(f"writer node {writer_node} is not a datanode")
            first = writer_node
        else:
            first = self.datanodes[self._rr]
            self._rr = (self._rr + 1) % len(self.datanodes)
        others = [n for n in self.datanodes if n != first]
        extra = (
            list(self._rng.choice(others, size=self.replication - 1, replace=False))
            if self.replication > 1
            else []
        )
        block = Block(
            block_id=self._next_block_id,
            size=size,
            replicas=(first, *map(int, extra)),
        )
        self._next_block_id += 1
        return block

    # -- reads ---------------------------------------------------------------
    def lookup(self, name: str) -> HdfsFile:
        if name not in self._files:
            raise FileNotFoundError(name)
        return self._files[name]

    def exists(self, name: str) -> bool:
        return name in self._files

    def pick_replication_targets(
        self, writer_node: int, live: Optional[Iterable[int]] = None
    ) -> list[int]:
        """Datanodes for a new block's 2nd..Nth replicas (pipeline targets).

        ``live`` restricts the candidate pool to the given datanodes (the
        simulation passes the currently-alive, non-decommissioning set so
        a dead node is never chosen); ``live=None`` keeps the static
        behavior — and draws from the RNG identically, so clean runs are
        bit-for-bit unchanged.  A replication factor exceeding the pool
        clamps and bumps :attr:`clamped_placements` instead of
        mis-placing.
        """
        if live is None:
            pool = self.datanodes
        else:
            allowed = set(live)
            pool = [n for n in self.datanodes if n in allowed]
        others = [n for n in pool if n != writer_node]
        k = self.replication - 1
        if k <= 0:
            return []
        if not others:
            self.clamped_placements += 1
            return []
        if k > len(others):
            self.clamped_placements += 1
            k = len(others)
        return list(
            map(int, self._rng.choice(others, size=k, replace=False))
        )

    def locality_fraction(self, name: str, assignment: dict[int, int]) -> float:
        """Fraction of blocks whose assigned node (block_id -> node) holds
        a replica — the data-locality metric experiments report."""
        f = self.lookup(name)
        if not f.blocks:
            return 1.0
        local = sum(
            1
            for b in f.blocks
            if b.block_id in assignment and b.is_local_to(assignment[b.block_id])
        )
        return local / len(f.blocks)
