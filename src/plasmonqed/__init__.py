"""Single two- and three-level emitters coupled to a one-dimensional
photonic channel: scattering spectra, saturation, photon statistics,
wavepacket simulation, storage, and single-photon switching.

The API lives in the modules (``from plasmonqed.scatter import
pulse_averaged_rt``); importing the package loads none of them."""

__version__ = "0.1.0"
