"""The PArADISE privacy-aware query processor (Figure 2 + Figure 3).

This subpackage wires everything together:

* :mod:`repro.processor.network` — the simulated peer network: one
  :class:`~repro.engine.database.Database` per node, shipment of intermediate
  relations along the chain and transfer accounting (how much data leaves the
  apartment),
* :mod:`repro.processor.result` — the result objects of a processing run,
* :mod:`repro.processor.paradise` — the :class:`ParadiseProcessor` façade
  combining admission check, rewriting, fragmentation, distributed execution
  and postprocessing/anonymization.
* :mod:`repro.processor.reference` — the unfragmented reference result every
  processing run is checked against.
"""

from repro.processor.network import NetworkSimulator, Transfer, TransferLog
from repro.processor.result import FragmentExecution, ProcessingResult
from repro.processor.paradise import ParadiseProcessor

__all__ = [
    "NetworkSimulator",
    "Transfer",
    "TransferLog",
    "FragmentExecution",
    "ProcessingResult",
    "ParadiseProcessor",
]
