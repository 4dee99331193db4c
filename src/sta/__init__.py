"""Shortcuts to adiabaticity for non-Hermitian two-level dynamics and trap expansions.

Two worked problems share the same biorthogonal machinery:

* a decaying two-level atom swept by a chirped Gaussian pulse, driven
  transitionlessly by a counterdiabatic correction (``pulses``,
  ``counterdiabatic``, ``propagate``);
* a classical particle in a harmonic trap whose opening is inverse
  engineered through the Ermakov equation and a quadratic invariant
  (``trap``).

The ``sta`` console script exposes ready-made scenarios; see the README.
"""

from .biortho import BiorthoBasis, closure_defect, eigensystem_2x2, reconstruct
from .counterdiabatic import (
    BasisTrajectory,
    MixingAngleState,
    MixingAngleTrajectory,
    PhasePair,
    XiPolicy,
    adiabatic_basis,
    adiabatic_phase,
    adiabatic_phase_values,
    alpha_dot,
    bare_hamiltonian,
    branch_energies,
    canonical_policy,
    cd_correction,
    cd_correction_numeric,
    cd_coupling,
    cd_hamiltonian,
    cd_hamiltonian_approx,
    eigenvector_derivative,
    mixing_angle_anchor,
    mixing_angle_trajectory,
    mixing_angle_values,
    phase_shaped_hamiltonian,
    zero_policy,
)
from .errors import (
    BranchJump,
    ConfigError,
    DegenerateSpectrum,
    InconsistentInitialConditions,
    NonFiniteState,
    StaError,
    ZeroGap,
)
from .propagate import (
    StateTrajectory,
    branch_projection,
    convergence_order,
    propagate,
    propagate_pair,
)
from .pulses import (
    ChirpedGaussianParams,
    PulseSchedule,
    adiabaticity_ratio,
    chirped_gaussian,
    complex_rabi,
    constant_schedule,
    generic_adiabaticity_ratio,
)
from .trap import (
    EnergyAudit,
    ErmakovPlan,
    ExpansionSpec,
    InvariantMatrix,
    PhaseSpaceTrajectory,
    closed_form_trajectory,
    effective_hamiltonian,
    energy_audit,
    hamilton_trajectory,
    invariance_residual,
    invariant_at,
    lr_phases,
    plan_expansion,
)

__version__ = "0.1.0"
