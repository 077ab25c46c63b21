"""Simulated GPU devices with explicit analytic timing models.

No CUDA hardware is available (or needed): the paper's conclusions rest
on the *ratios* of kernel compute time, launch overhead, PCIe transfer
and CPU serial cost.  :class:`~repro.gpusim.device.DeviceSpec` encodes
them for a Fermi Tesla C2075 (the paper's card) and a Kepler K20;
:class:`~repro.gpusim.device.SimulatedGPU` prices kernel submissions on a
:class:`~repro.cluster.simclock.SimClock`, and a task's ``execute``
callable does its numerical work for real.
"""

from repro._lazy import _exports

__all__, __getattr__ = _exports(__name__, {
    "repro.gpusim.device": ("DeviceSpec", "SimulatedGPU", "TESLA_C2075", "TESLA_K20"),
})
