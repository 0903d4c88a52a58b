"""Physical constants and rubidium-87 line data used across the package.

Fundamental constants are pinned CODATA 2022 literals, bitwise equal to
scipy.constants, which is never imported. The rubidium numbers are the
standard D2-line values; saturation intensities and branching ratios are
for pi transitions out of |F=1> with Zeeman sub-levels equally populated.
"""

C = 299792458.0                  # m/s
H = 6.62607015e-34               # J s
HBAR = 1.0545718176461565e-34    # J s, h/2pi
K_B = 1.380649e-23               # J/K
EPSILON_0 = 8.8541878188e-12     # F/m
E_CHARGE = 1.602176634e-19       # C
ATOMIC_MASS = 1.66053906892e-27  # kg

RB87_MASS = 86.909180527 * ATOMIC_MASS  # kg

# wavelengths of the two cavity-resonant colors
TRAP_WAVELENGTH = 1560e-9    # m, dipole-trap light
PROBE_WAVELENGTH = 780.241e-9  # m, D2 detection light

GAMMA_D2_FREQ = 6.0666e6                      # D2 natural linewidth, Hz

# F=1 -> F'=i pi-transition saturation intensities, W/m^2, i = 0, 1, 2
I_SAT = (16.67, 26.7, 61.23)
# branching probabilities from |F'=i> down to |F=2>
BRANCHING = (0.0, 1.0 / 5.0, 1.0 / 2.0)
# excited hyperfine intervals omega(F'=2) - omega(F'=i), Hz, i = 0, 1, 2
EXCITED_SPLITTINGS = (229.165e6, 156.947e6, 0.0)

# ground 5S1/2 polarizability at 1560 nm and the 5P3/2:5S1/2 ratio
GROUND_POLARIZABILITY = 6.83e-39   # Re(alpha), J m^2 V^-2
POLARIZABILITY_RATIO = 47.7
