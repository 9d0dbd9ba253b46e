"""The frozen dataclasses that the ``__slots__`` records of ``degeis`` replace.

Each class here has the fields, defaults, validation, equality, hash,
repr and order that the record of the same name in ``degeis`` must keep
(``tests/test_records.py``).  Field types are only documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q

# -- rootdata ---------------------------------------------------------------


@dataclass(frozen=True, order=True)
class FieldLabel:
    symbol: str
    degree: int

    def __post_init__(self):
        if isinstance(self.degree, bool) or not isinstance(self.degree, int):
            raise ValueError(f"field degree {self.degree!r} is not an integer")
        if self.degree < 1:
            raise ValueError("field degree must be >= 1")
        if self.symbol == "F" and self.degree != 1:
            raise ValueError("label F must have degree 1")


@dataclass(frozen=True, order=True)
class Root:
    coords: tuple[int, ...]

    def __post_init__(self):
        if all(c == 0 for c in self.coords):
            raise ValueError("zero vector is not a root")
        if not (all(c >= 0 for c in self.coords) or all(c <= 0 for c in self.coords)):
            raise ValueError(f"mixed-sign coordinates: {self.coords}")


@dataclass(frozen=True)
class WeylWord:
    letters: tuple[int, ...] = ()


# -- zetas ------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ZetaAtom:
    label: str
    arg: AffineForm
    exp: int = 1


@dataclass(frozen=True)
class ZetaExpr:
    scalar: Q = Q(1)
    num: tuple[AffineForm, ...] = ()
    den: tuple[AffineForm, ...] = ()
    atoms: tuple[ZetaAtom, ...] = ()
    residues: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class LaurentData:
    order: int
    leading: ZetaExpr


# -- characters -------------------------------------------------------------


@dataclass(frozen=True)
class TorusCharacter:
    coords: tuple[AffineForm, ...]


@dataclass(frozen=True)
class IotaReport:
    iota_pq: TorusCharacter
    iota_qp: TorusCharacter
    identity_holds: bool
    special_point_equal: bool
    w1_relation_holds: bool


# -- eisenstein -------------------------------------------------------------


@dataclass(frozen=True)
class GKTerm:
    word: WeylWord
    j_factor: ZetaExpr
    exponent: TorusCharacter


@dataclass(frozen=True)
class ConstantTerm:
    system: RootSystem
    levi: tuple[int, ...]
    line: TorusCharacter
    terms: tuple[GKTerm, ...]
    table: _AtomTable | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TermGroup:
    exponent_at_point: tuple[Q, ...]
    words: tuple[WeylWord, ...]
    order: int
    leading: ZetaExpr | None
    log_term: bool


@dataclass(frozen=True)
class PoleReport:
    system: RootSystem
    point: Q
    order: int
    groups: tuple[TermGroup, ...]
    surviving_exponents: tuple[tuple[Q, ...], ...]
    square_integrable: bool


@dataclass(frozen=True)
class SharpLimit:
    order: int
    leading: ZetaExpr
    dropped: int
    slope: Q


@dataclass(frozen=True)
class SiegelWeilReport:
    sharp_p: SharpLimit
    sharp_q: SharpLimit
    constant: ZetaExpr
    residue_w2342: LaurentData
    section_constant: ZetaExpr


@dataclass(frozen=True)
class EntirenessReport:
    boundary_ok: bool
    h0_ok: bool
    orbit_ok: bool
    checked_words: int


# -- dualside ---------------------------------------------------------------


@dataclass(frozen=True)
class WeightSet:
    weights: tuple[tuple[Q, ...], ...]


@dataclass(frozen=True)
class DualPairEmbedding:
    long_cochar: tuple[Q, ...]
    short_cochar: tuple[Q, ...]


@dataclass(frozen=True, order=True)
class LFactor:
    shift: Q
    label: str
    mult: int = 1


@dataclass(frozen=True)
class LFactorization:
    factors: tuple[LFactor, ...]


# -- localint ---------------------------------------------------------------


@dataclass(frozen=True)
class ShellFunction:
    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("lattice", "shell"):
            raise ValueError("kind must be 'lattice' or 'shell'")


@dataclass(frozen=True)
class LocalFactor:
    num: tuple[tuple[int, Q], ...]
    den: tuple[tuple[int, Q], ...]
    z: AffineForm
    convergence: str = "Re(z) > 0"
