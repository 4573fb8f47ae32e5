"""Synthetic focusing for acousto-electric impedance tomography.

Simulates the linearized measurement kernel of an EIT experiment,
synthesizes boundary responses to four families of unfocused ultrasound
waves (spherical pulses, monochromatic spherical waves, plane waves,
pencil-beam lines), and reconstructs point-focused kernels from each
family by the corresponding inversion formula.
"""

from .core import (
    BoundaryElectrodes,
    Disk,
    Grid,
    KernelMatrix,
    Phantom,
    ScalarField,
    TransducerArray,
    build_phantom_disks,
    make_transducer_array,
    square_boundary_electrodes,
)
from .forward_eit import (
    ConductionSolution,
    kernel_adjoint,
    kernel_bruteforce,
    left_right_current_pattern,
    solve_conduction,
)
from .wavegen import (
    FourierData,
    MonochromaticData,
    Sinogram,
    SphericalMeanData,
    add_noise,
    conjugate_lattice,
    default_angles,
    default_frequencies,
    default_offsets,
    default_radii,
    measure_line_integrals,
    measure_monochromatic,
    measure_plane_waves,
    measure_spherical_pulse,
)
from .focusing import (
    focus_kernel,
    invert_fourier,
    invert_monochromatic_3d,
    invert_spherical_means_3d,
    invert_xray_2d,
)
from .cli import ExperimentConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "BoundaryElectrodes",
    "ConductionSolution",
    "Disk",
    "ExperimentConfig",
    "FourierData",
    "Grid",
    "KernelMatrix",
    "MonochromaticData",
    "Phantom",
    "ScalarField",
    "Sinogram",
    "SphericalMeanData",
    "TransducerArray",
    "add_noise",
    "build_phantom_disks",
    "conjugate_lattice",
    "default_angles",
    "default_frequencies",
    "default_offsets",
    "default_radii",
    "focus_kernel",
    "invert_fourier",
    "invert_monochromatic_3d",
    "invert_spherical_means_3d",
    "invert_xray_2d",
    "kernel_adjoint",
    "kernel_bruteforce",
    "left_right_current_pattern",
    "make_transducer_array",
    "measure_line_integrals",
    "measure_monochromatic",
    "measure_plane_waves",
    "measure_spherical_pulse",
    "parse_config",
    "solve_conduction",
    "square_boundary_electrodes",
]
