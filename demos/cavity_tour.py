"""Walk through the resonator model: eigenmode, spectrum, build-up.

The crossed ring is folded, so the two transverse planes see different
effective mirror curvatures and everything splits per axis: waists,
Rayleigh ranges, Gouy phases, and finally the transverse mode ladder.
"""
import math

from qndsim.cavity import (
    CavityGeometry,
    backscatter_modulation,
    coupling_efficiency,
    finesse_from_reflectivity,
    intracavity_power,
    mode_spacings,
    solve_mode,
    transverse_spectrum,
)
from qndsim.constants import C


def main():
    geom = CavityGeometry(round_trip_length=C / 976.2e6)
    mode = solve_mode(geom)

    print("== eigenmode at the operating geometry")
    print(f"round trip        {geom.round_trip_length * 1e3:8.2f} mm")
    print(f"waist (in-plane)  {mode.waist_par * 1e6:8.2f} um")
    print(f"waist (out)       {mode.waist_perp * 1e6:8.2f} um")
    print(f"rayleigh ranges   {mode.rayleigh_par * 1e3:8.2f} / "
          f"{mode.rayleigh_perp * 1e3:.2f} mm")
    print(f"FSR               {mode.fsr / 1e6:8.1f} MHz")

    sp_h, sp_v = mode_spacings(geom)
    print(f"mode spacings     {sp_h / 1e6:8.2f} / {sp_v / 1e6:.2f} MHz")

    print("\n== lowest transverse orders (offset from the 00 mode)")
    for m, n, off in transverse_spectrum(geom, 2):
        print(f"  TEM{m}{n}  {off / 1e6:8.2f} MHz")

    # astigmatism correction is the one free knob; the in-plane waist
    # moves a few percent across the plausible range
    print("\n== in-plane waist vs astigmatism factor")
    for alpha in (1.00, 1.01, 1.02, 1.03, 1.04):
        g = CavityGeometry(round_trip_length=geom.round_trip_length,
                           astigmatism_correction=alpha)
        print(f"  alpha={alpha:.2f}  w_par={solve_mode(g).waist_par * 1e6:.2f} um")

    print("\n== losses and build-up")
    f = finesse_from_reflectivity(0.99956)
    print(f"finesse at r=0.99956        {f:8.0f}")
    print(f"finesse at r=0.9999923      {finesse_from_reflectivity(0.9999923):8.0f}")
    x = 1.5   # impedance mismatch of the science cavity input
    print(f"build-up ratio (x={x})      {intracavity_power(1.0, f, x):8.0f}")
    print(f"coupling efficiency         {coupling_efficiency(x):8.2f}")
    print(f"backscatter modulation      {backscatter_modulation(1.9e-3):8.4f}")
    p_out = 200.0 / intracavity_power(1.0, f, x)
    print(f"output power for 200 W intracavity: {p_out * 1e3:.1f} mW")


if __name__ == "__main__":
    main()
