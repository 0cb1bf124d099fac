"""Open-hashing block table.

The paper: "The used cache blocks ... are chained in a hash table
(open hashing) for faster retrieval and access."  We implement the
bucket-chained structure literally (rather than hiding behind a Python
dict) so bucket-chain statistics are inspectable and the per-bucket
locking granularity of the paper has a concrete home.
"""

from __future__ import annotations

import typing as _t

from repro.cache.block import BlockKey, CacheBlock


#: Multiplicative mix of the file id into the bucket index.
_MIX = 0x9E3779B1


def _next_prime(n: int) -> int:
    """Smallest prime >= n (n is small; trial division is fine)."""

    def is_prime(x: int) -> bool:
        if x < 2:
            return False
        if x % 2 == 0:
            return x == 2
        f = 3
        while f * f <= x:
            if x % f == 0:
                return False
            f += 2
        return True

    while not is_prime(n):
        n += 1
    return n


class BlockHashTable:
    """Bucket-chained map from (file_id, block_no) to CacheBlock."""

    def __init__(self, n_buckets_hint: int = 257) -> None:
        if n_buckets_hint < 1:
            raise ValueError(f"need at least one bucket, got {n_buckets_hint}")
        self.n_buckets = _next_prime(max(2, n_buckets_hint))
        self._buckets: list[list[CacheBlock]] = [
            [] for _ in range(self.n_buckets)
        ]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: BlockKey) -> bool:
        return self.get(key) is not None

    # The bucket index is computed inline in get/insert/remove: they
    # run once per block of every request, hit or miss.

    def get(self, key: BlockKey) -> CacheBlock | None:
        """The resident block under ``key``, or None."""
        file_id, block_no = key
        for block in self._buckets[(file_id * _MIX + block_no) % self.n_buckets]:
            if block.key == key:
                return block
        return None

    def first_resident(
        self, file_id: int, block_nos: _t.Sequence[int], start: int, stop: int
    ) -> tuple[int, CacheBlock | None]:
        """The first ``j`` in ``[start, stop)`` whose block of
        ``file_id`` is resident, and that block; ``(stop, None)`` when
        none is.  :meth:`get` over a run, in one call."""
        buckets = self._buckets
        n_buckets = self.n_buckets
        base = file_id * _MIX
        for j in range(start, stop):
            block_no = block_nos[j]
            for block in buckets[(base + block_no) % n_buckets]:
                if block.key == (file_id, block_no):
                    return j, block
        return stop, None

    def insert(self, block: CacheBlock) -> None:
        """Chain a keyed block (KeyError on duplicates)."""
        self.insert_run((block,))

    def insert_run(self, blocks: _t.Iterable[CacheBlock]) -> None:
        """Chain each keyed block in turn (KeyError on a duplicate)."""
        buckets = self._buckets
        n_buckets = self.n_buckets
        for block in blocks:
            key = block.key
            if key is None:
                raise ValueError("cannot insert a block without a key")
            file_id, block_no = key
            chain = buckets[(file_id * _MIX + block_no) % n_buckets]
            for other in chain:
                if other.key == key:
                    raise KeyError(f"duplicate insert for {key}")
            chain.append(block)
            self._size += 1

    def remove(self, block: CacheBlock) -> None:
        """Unchain a block (KeyError if absent)."""
        self.remove_run((block,))

    def remove_run(self, blocks: _t.Iterable[CacheBlock]) -> None:
        """Unchain each block in turn (KeyError on an absent one)."""
        buckets = self._buckets
        n_buckets = self.n_buckets
        for block in blocks:
            key = block.key
            if key is None:
                raise ValueError("cannot remove a block without a key")
            file_id, block_no = key
            chain = buckets[(file_id * _MIX + block_no) % n_buckets]
            try:
                chain.remove(block)
            except ValueError:
                raise KeyError(f"{key} not in table") from None
            self._size -= 1

    def blocks(self) -> _t.Iterator[CacheBlock]:
        """All resident blocks (bucket order; used by the clock sweep)."""
        for chain in self._buckets:
            yield from chain

    def chain_lengths(self) -> list[int]:
        """Bucket chain lengths (distribution probe for tests)."""
        return [len(c) for c in self._buckets]
