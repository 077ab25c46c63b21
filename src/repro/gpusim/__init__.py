"""Simulated GPU devices with explicit analytic timing models.

No CUDA hardware is available (or needed) for the reproduction: every
experimental conclusion of the paper rests on the *ratios* between kernel
compute time, kernel-launch overhead, PCIe transfer cost and CPU serial
cost.  :class:`~repro.gpusim.device.DeviceSpec` encodes those ratios for a
Fermi Tesla C2075 (the paper's card) and a Kepler K20 (for the Hyper-Q
discussion); :class:`~repro.gpusim.device.SimulatedGPU` executes kernel
submissions against a :class:`~repro.cluster.simclock.SimClock`, while the
*numerical* work of a task is performed for real by the vectorized batch
integrators when it carries an ``execute`` callable.
"""

from repro.gpusim.device import DeviceSpec, SimulatedGPU, TESLA_C2075, TESLA_K20

__all__ = ["DeviceSpec", "SimulatedGPU", "TESLA_C2075", "TESLA_K20"]
