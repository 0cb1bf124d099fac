"""PVFS substrate: the Parallel Virtual File System the paper builds on.

Three components, mirroring PVFS 1.x (Carns et al., 2000):

* one **metadata server** (``mgr``) for the whole cluster
  (:mod:`repro.pvfs.mgr`) serving opens/lookups;
* a **data server daemon** (``iod``) on every storage node
  (:mod:`repro.pvfs.iod`) streaming stripe data from its local disk;
* the client library **libpvfs** (:mod:`repro.pvfs.client`) linked into
  each application process, which stripes byte ranges over the iods and
  speaks the request/ack/data socket protocol
  (:mod:`repro.pvfs.protocol`).

The paper's cache module interposes between libpvfs and the iod
sockets; see :mod:`repro.cache.module`.
"""

from repro.pvfs.client import PVFSClient
from repro.pvfs.collective import CollectiveGroup, InterleavedAccess
from repro.pvfs.iod import Iod
from repro.pvfs.mgr import MetadataServer
from repro.pvfs.protocol import FileHandle
from repro.pvfs.striping import StripeLayout

__all__ = [
    "CollectiveGroup",
    "FileHandle",
    "InterleavedAccess",
    "Iod",
    "MetadataServer",
    "PVFSClient",
    "StripeLayout",
]
