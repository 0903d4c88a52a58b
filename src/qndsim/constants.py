"""Physical constants, rubidium-87 line data and the apparatus defaults.

Fundamental constants are pinned CODATA 2022 literals, bitwise equal to
scipy.constants, which is never imported. The rubidium numbers are the
standard D2-line values; saturation intensities and branching ratios are
for pi transitions out of |F=1> with Zeeman sub-levels equally populated.

APPARATUS and LIMITS hold once, in config units, each default and bound that a
model record and a config field share; DEFAULTS and SI_LIMITS hold them in SI
units. Record is the frozen base of every model record, with no generated code.
"""
import math
import operator

from .errors import DomainError

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

# unit suffix of a config field name -> SI factor, a compound suffix before
# its tail; x * (pi / 180) is math.radians(x), bit for bit
UNITS = {"_a_per_w": 1.0, "_v_per_a": 1.0, "_ohm": 1.0, "_w": 1.0, "_m": 1.0, "_hz": 1.0,
         "_uw": 1e-6, "_nw": 1e-9, "_um": 1e-6, "_mm": 1e-3, "_nm": 1e-9, "_khz": 1e3,
         "_mhz": 1e6, "_ghz": 1e9, "_ms": 1e-3, "_us": 1e-6, "_deg": math.pi / 180}


def to_si(key: str, value):
    """``(stem, SI value)`` of config field ``key``: the name without its unit
    suffix, the model attribute it sets, and the value times the unit's
    factor; a value of factor 1, without a unit, or None stays as it is."""
    for suffix, factor in UNITS.items():
        if key.endswith(suffix):
            return key[:-len(suffix)], value if factor == 1 or value is None else value * factor
    return key, value


APPARATUS = {
    # DetectorModel
    "sensitivity_a_per_w": 0.5, "transimpedance_v_per_a": 1466.0, "buffer_gain": 2.0,
    "load_ohm": 50.0, "bandwidth_mhz": 1.0, "kappa_e_uw": 165.0,
    # ModulatedProbe, ProbeTuning.from_powers and the expansion rate: the
    # probe of the destructivity measurement; then the reference wavelength
    "carrier_power_uw": 120.0, "sideband_power_nw": 76.0, "modulation_depth": 0.025,
    "modulation_frequency_ghz": 2.808, "ram_asymmetry": 0.01, "path_length_m": 1.0,
    "beam_waist_um": 245.0, "carrier_detuning_ghz": -2.808, "expansion_rate_hz": 120.0,
    "reference_wavelength_um": 1.0,
    # ProbeGate, CavityGeometry (the measured FSR) and DipoleTrapConfig
    "repetition_rate_khz": 100.0, "pulse_duration_us": 1.25,
    "fsr_mhz": 976.2, "mirror_radius_mm": 100.0, "fold_angle_deg": 45.0,
    "segment_ratio": math.sqrt(2.0), "astigmatism_factor": 1.020, "wavelength_nm": 1560.0,
    "power_per_arm_w": 200.0,
    # RabiModel and build_spin_echo
    "rabi_frequency_khz": 6.6, "inhomogeneity": 0.162, "residual_damping_hz": 90.0,
    "pi_duration_us": 74.5, "total_duration_us": 500.0,
}
DEFAULTS = dict(to_si(key, value) for key, value in APPARATUS.items())

# bounds "<op> <limit>", each read "must be ...", of each config field whose stem a model
# record holds; a nonzero limit needs the record to hold the SI value, not 2*pi times it
POSITIVE, NONNEGATIVE = ("> 0.0",), (">= 0.0",)
COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
LIMITS = {
    **dict.fromkeys(("sensitivity_a_per_w", "transimpedance_v_per_a", "buffer_gain", "load_ohm",
                     "bandwidth_mhz", "modulation_frequency_ghz", "beam_waist_um",
                     "repetition_rate_khz", "pulse_duration_us", "mirror_radius_mm",
                     "segment_ratio", "wavelength_nm", "waist_par_um", "waist_perp_um",
                     "duration_ms"), POSITIVE),
    **dict.fromkeys(("kappa_e_uw", "carrier_power_uw", "sideband_power_nw", "modulation_depth",
                     "path_length_m", "atom_number", "cloud_rms_um", "power_per_arm_w",
                     "rabi_frequency_khz", "inhomogeneity", "residual_damping_hz"), NONNEGATIVE),
    "ram_asymmetry": ("> -1.0", "< 1.0"), "fold_angle_deg": (">= 0.0", "<= 90.0"),
    "backscatter_depth": (">= 0.0", "< 1.0"),
}
# each LIMITS stem -> the (op, SI limit) of each of its bounds
SI_LIMITS = {to_si(key, None)[0]: tuple((op, to_si(key, float(limit))[1])
                                        for op, limit in map(str.split, bounds))
             for key, bounds in LIMITS.items()}


class Record:
    """An immutable record. Its fields are the subclass's own annotations, in
    order, and a class attribute is a field's default. A field named by a
    SI_LIMITS stem must meet its bounds unless the class passes ``limited=False``;
    ``__post_init__`` checks the rest and may set an attribute through
    ``object.__setattr__``. It compares, hashes and prints by its fields and exact class."""

    def __init_subclass__(cls, limited: bool = True) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        cls._limits = tuple((n, *check) for n in cls._fields if limited
                            for check in SI_LIMITS.get(n, ()))

    def __init__(self, *args, **kwargs) -> None:
        names, given = self._fields, dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got "
                            f"{len(args)} by position and {tuple(kwargs)} by name")
        self.__dict__.update(zip(names, map(values.__getitem__, names)))
        for name, op, limit in self._limits:
            if not COMPARE[op](values[name], limit):
                raise DomainError(f"{name} must be {op} {limit!r}, got {values[name]}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """A subclass checks its fields here."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes`` to its fields, checked again."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
